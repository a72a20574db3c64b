#include "baseline/k_many.h"

#include <algorithm>
#include <optional>

#include "common/rng.h"
#include "common/stopwatch.h"
#include "tind/validator.h"

namespace tind {

Result<std::unique_ptr<KMany>> KMany::Build(const Dataset& dataset,
                                            const KManyOptions& options) {
  if (!IsPowerOfTwo(options.bloom_bits)) {
    return Status::InvalidArgument("bloom_bits must be a power of two");
  }
  if (dataset.domain().num_timestamps() <= 0) {
    return Status::InvalidArgument("empty time domain");
  }
  auto kmany = std::unique_ptr<KMany>(new KMany());
  kmany->dataset_ = &dataset;
  kmany->options_ = options;
  Rng rng(options.seed);
  const int64_t n_ts = dataset.domain().num_timestamps();
  const size_t k =
      std::min<size_t>(options.num_snapshots, static_cast<size_t>(n_ts));
  const std::vector<size_t> picks =
      rng.SampleWithoutReplacement(static_cast<size_t>(n_ts), k);
  kmany->snapshots_.assign(picks.begin(), picks.end());
  std::sort(kmany->snapshots_.begin(), kmany->snapshots_.end());
  for (const Timestamp t : kmany->snapshots_) {
    // Matrices are not charged to the budget: the tIND index carries the
    // same matrix footprint, and the paper attributes k-MANY's OOM to the
    // per-query violation tracking (Figure 7), which Search() does charge.
    BloomMatrix matrix(options.bloom_bits, options.num_hashes, dataset.size());
    for (size_t c = 0; c < dataset.size(); ++c) {
      matrix.SetColumn(c,
                       dataset.attribute(static_cast<AttributeId>(c)).VersionAt(t));
    }
    kmany->matrices_.push_back(std::move(matrix));
  }
  return kmany;
}

Result<std::vector<AttributeId>> KMany::Search(const AttributeHistory& query,
                                               const TindParams& params,
                                               QueryStats* stats) const {
  Stopwatch timer;
  const size_t n = dataset_->size();
  // Without a required-values prefilter every attribute starts as a
  // candidate, so the violation weights need Θ(|D|) state per query — the
  // memory wall of Figure 7.
  const size_t violation_bytes = n * sizeof(double);
  if (options_.memory != nullptr) {
    TIND_RETURN_IF_ERROR(options_.memory->Allocate(violation_bytes));
  }
  std::vector<double> violations(n, 0.0);
  BitVector candidates(n, /*fill=*/true);
  if (query.id() < n && &dataset_->attribute(query.id()) == &query) {
    candidates.Clear(query.id());
  }
  // A snapshot mismatch certifies a violation of that one timestamp only
  // under δ = 0 (see KManyOptions::approximate_delta_pruning).
  const bool can_prune =
      params.delta == 0 || options_.approximate_delta_pruning;
  for (size_t j = 0; j < matrices_.size(); ++j) {
    const Timestamp t = snapshots_[j];
    const ValueSet& q_values = query.VersionAt(t);
    if (q_values.empty()) continue;
    const BloomFilter filter = matrices_[j].MakeQueryFilter(q_values);
    BitVector contained = candidates;
    matrices_[j].QuerySupersets(filter, &contained);
    BitVector violated = candidates;
    violated.AndNot(contained);
    violated.ForEachSet([&](size_t c) {
      violations[c] += params.weight->At(t);
      if (can_prune &&
          violations[c] > params.epsilon + kViolationTolerance) {
        candidates.Clear(c);
      }
    });
  }
  if (stats != nullptr) {
    stats->initial_candidates = n;
    stats->after_slices = candidates.Count();
    stats->after_exact_check = candidates.Count();
  }
  std::vector<AttributeId> results;
  std::vector<size_t> ids = candidates.ToIndexVector();
  if (stats != nullptr) stats->validations = ids.size();
  std::optional<PreparedQuery> prepared;
  if (!ids.empty()) prepared.emplace(query);
  for (const size_t c : ids) {
    const AttributeHistory& a = dataset_->attribute(static_cast<AttributeId>(c));
    if (ValidateTind(*prepared, a, params, dataset_->domain())) {
      results.push_back(static_cast<AttributeId>(c));
    }
  }
  if (options_.memory != nullptr) options_.memory->Free(violation_bytes);
  if (stats != nullptr) {
    stats->num_results = results.size();
    stats->elapsed_ms = timer.ElapsedMillis();
  }
  return results;
}

size_t KMany::MemoryUsageBytes() const {
  size_t bytes = 0;
  for (const auto& m : matrices_) bytes += m.MemoryUsageBytes();
  return bytes;
}

}  // namespace tind
