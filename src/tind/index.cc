#include "tind/index.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <optional>
#include <unordered_map>

#include "common/fault_injection.h"
#include "common/simd.h"
#include "common/stopwatch.h"
#include "obs/metrics.h"
#include "tind/required_values.h"
#include "tind/validator.h"

namespace tind {

Result<std::unique_ptr<TindIndex>> TindIndex::Build(
    const Dataset& dataset, const TindIndexOptions& options) {
  if (!IsPowerOfTwo(options.bloom_bits)) {
    return Status::InvalidArgument("bloom_bits must be a power of two");
  }
  if (options.num_hashes == 0) {
    return Status::InvalidArgument("num_hashes must be positive");
  }
  if (options.weight == nullptr) {
    return Status::InvalidArgument("options.weight must be set");
  }
  if (options.delta < 0 || options.epsilon < 0) {
    return Status::InvalidArgument("delta and epsilon must be non-negative");
  }
  auto index = std::unique_ptr<TindIndex>(new TindIndex());
  index->dataset_ = &dataset;
  index->options_ = options;
  index->reservation_ = MemoryReservation(options.memory);

  TIND_OBS_SCOPED_TIMER("index_build");
  TIND_OBS_COUNTER_ADD("index/builds", 1);
  // Which SIMD backend runs the Bloom kernels (simd::Backend enum value:
  // 0=scalar 1=sse2 2=avx2 3=avx512 4=neon) — recorded so perf regressions
  // can be correlated with dispatch decisions.
  TIND_OBS_GAUGE_SET("bloom/simd_backend",
                     static_cast<int64_t>(simd::ActiveBackend()));
  const size_t n_attrs = dataset.size();

  // Per-phase byte accounting. On budget exhaustion the error carries the
  // phase breakdown and reservation_'s destructor (via the unique_ptr going
  // out of scope) returns everything to the budget — Build never crashes on
  // a cap, it reports OutOfMemory.
  size_t m_t_bytes = 0;
  size_t slices_bytes = 0;
  size_t m_r_bytes = 0;
  const auto breakdown = [&]() {
    return " (accounted so far: m_t=" + std::to_string(m_t_bytes) +
           "B, slices=" + std::to_string(slices_bytes) +
           "B, m_r=" + std::to_string(m_r_bytes) + "B)";
  };
  const auto account = [&](const BloomMatrix& matrix,
                           size_t* phase_bytes) -> Status {
    const size_t bytes = matrix.MemoryUsageBytes();
    if (TIND_FAULT_POINT("index/alloc")) {
      TIND_OBS_COUNTER_ADD("memory/budget_rejections", 1);
      return Status::OutOfMemory("injected fault: index/alloc" + breakdown());
    }
    const Status reserved = index->reservation_.Reserve(bytes);
    if (!reserved.ok()) {
      return Status::OutOfMemory(reserved.message() + breakdown());
    }
    *phase_bytes += bytes;
    return Status::OK();
  };
  // M_T over the full history value sets (constructible with no parameter
  // knowledge at all — Section 4.2.1).
  {
    TIND_OBS_SCOPED_TIMER("m_t");
    index->full_matrix_ =
        BloomMatrix(options.bloom_bits, options.num_hashes, n_attrs);
    TIND_RETURN_IF_ERROR(account(index->full_matrix_, &m_t_bytes));
    for (size_t c = 0; c < n_attrs; ++c) {
      index->full_matrix_.SetColumn(
          c, dataset.attribute(static_cast<AttributeId>(c)).AllValues());
    }
    TIND_OBS_GAUGE_SET("index/m_t_fill_ratio",
                       index->full_matrix_.FillRatio());
    TIND_OBS_GAUGE_SET("memory/index_m_t_bytes", m_t_bytes);
  }

  // Time slices: δ-expanded interval value sets per attribute.
  {
    TIND_OBS_SCOPED_TIMER("slices");
    IntervalSelectionOptions sel;
    sel.strategy = options.strategy;
    sel.num_intervals = options.num_slices;
    sel.epsilon = options.epsilon;
    sel.delta_disjoint = options.build_reverse_index ? options.delta : 0;
    sel.seed = options.seed;
    index->slice_intervals_ =
        SelectIndexIntervals(dataset, *options.weight, sel);
    index->slice_matrices_.reserve(index->slice_intervals_.size());
    for (const Interval& interval : index->slice_intervals_) {
      BloomMatrix matrix(options.bloom_bits, options.num_hashes, n_attrs);
      TIND_RETURN_IF_ERROR(account(matrix, &slices_bytes));
      const Interval expanded =
          dataset.domain().Clamp(interval.Expanded(options.delta));
      for (size_t c = 0; c < n_attrs; ++c) {
        matrix.SetColumn(
            c,
            dataset.attribute(static_cast<AttributeId>(c)).UnionInInterval(expanded));
      }
      index->slice_matrices_.push_back(std::move(matrix));
    }
    if (!index->slice_matrices_.empty()) {
      double fill = 0;
      for (const BloomMatrix& m : index->slice_matrices_) {
        fill += m.FillRatio();
      }
      TIND_OBS_GAUGE_SET(
          "index/slice_fill_ratio_avg",
          fill / static_cast<double>(index->slice_matrices_.size()));
    }
    TIND_OBS_GAUGE_SET("memory/index_slices_bytes", slices_bytes);
  }

  // M_R over required values, for reverse queries (Section 4.5). Unlike
  // M_T, this bakes in the build-time (ε, w).
  if (options.build_reverse_index) {
    TIND_OBS_SCOPED_TIMER("m_r");
    index->reverse_matrix_ =
        BloomMatrix(options.bloom_bits, options.num_hashes, n_attrs);
    TIND_RETURN_IF_ERROR(account(index->reverse_matrix_, &m_r_bytes));
    // The required-value and minimum-weight caches double as the M_R column
    // sets here and as the reverse query stages' lookup tables later (they
    // are also what SaveSnapshot persists, so a loaded index answers with
    // bit-identical weights).
    index->BuildReverseCaches();
    for (size_t c = 0; c < n_attrs; ++c) {
      index->reverse_matrix_.SetColumn(c, index->required_values_[c]);
    }
    index->has_reverse_ = true;
    TIND_OBS_GAUGE_SET("index/m_r_fill_ratio",
                       index->reverse_matrix_.FillRatio());
    TIND_OBS_GAUGE_SET("memory/index_m_r_bytes", m_r_bytes);
  }
  TIND_OBS_GAUGE_SET("index/memory_bytes", index->MemoryUsageBytes());
  return index;
}

void TindIndex::BuildReverseCaches() {
  const size_t n_attrs = dataset_->size();
  required_values_.clear();
  required_values_.reserve(n_attrs);
  for (size_t c = 0; c < n_attrs; ++c) {
    required_values_.push_back(ComputeRequiredValues(
        dataset_->attribute(static_cast<AttributeId>(c)), *options_.weight,
        options_.epsilon));
  }
  // Minimum version-subinterval weights (Figure 6) for the slices reverse
  // queries probe. The weight depends only on (attribute, slice, build w),
  // never on the query, so it is a build-time table.
  const size_t slices_to_use =
      std::min(options_.reverse_slices, slice_intervals_.size());
  reverse_min_weights_.assign(slices_to_use, {});
  for (size_t j = 0; j < slices_to_use; ++j) {
    const Interval expanded =
        dataset_->domain().Clamp(slice_intervals_[j].Expanded(options_.delta));
    std::vector<double>& row = reverse_min_weights_[j];
    row.resize(n_attrs);
    for (size_t c = 0; c < n_attrs; ++c) {
      row[c] = MinVersionWeight(
          dataset_->attribute(static_cast<AttributeId>(c)), expanded,
          *options_.weight);
    }
  }
}

namespace {

/// One planned slice probe of a group: member `b`'s filter for one version
/// (forward) or one slice window (reverse), plus the candidate snapshot the
/// kernel narrows in place. Snapshots are taken at the top of the slice;
/// that is equivalent to per-version seeding because candidates only ever
/// lose bits within a slice, so for the surviving set C ⊆ S:
/// C ∧ ¬(S ∧ rows) = C ∧ ¬rows — the partial violation sets come out
/// identical.
struct BatchSliceTask {
  size_t b = 0;
  double weight = 0;  ///< Violation weight to add per failing candidate.
  BloomFilter filter;
  BitVector cand;
};

/// Bucket bounds for the group-size histogram: 1, 2, 4, ..., 64.
const std::vector<double>& GroupSizeBounds() {
  static const std::vector<double> bounds =
      obs::ExponentialBuckets(1, 2, 7);
  return bounds;
}

}  // namespace

bool TindIndex::Group::PollCancel(size_t b) {
  if (abandoned[b]) return true;
  if (cancels.empty() || cancels[b] == nullptr || !cancels[b]->cancelled()) {
    return false;
  }
  Abandon(b);
  return true;
}

void TindIndex::Group::Abandon(size_t b) {
  // Candidates are deliberately kept: every completed prune was sound, so
  // they remain a valid over-approximation for degraded answers.
  if (!abandoned[b]) TIND_OBS_COUNTER_ADD("index/batch_cancelled_queries", 1);
  abandoned[b] = 1;
  stats[b].cancelled = true;
  stats[b].num_results = 0;
  results[b].clear();
}

TindIndex::Group TindIndex::MakeGroup(const AttributeHistory* const* queries,
                                      size_t n, const TindParams& params,
                                      bool forward, QueryPlan plan,
                                      const CancellationToken* const* cancels)
    const {
  assert(params.weight != nullptr);
  assert(n <= kBloomBatchGroupSize);
  if (forward) {
    TIND_OBS_COUNTER_ADD("search/queries", n);
  } else {
    TIND_OBS_COUNTER_ADD("reverse/queries", n);
  }
  Group g;
  g.queries.assign(queries, queries + n);
  g.params = params;
  g.forward = forward;
  g.plan = plan;
  if (cancels != nullptr) g.cancels.assign(cancels, cancels + n);
  g.candidates.reserve(n);
  for (size_t b = 0; b < n; ++b) {
    BitVector cand(dataset_->size(), /*fill=*/true);
    // Exclude the query itself when it is an indexed attribute: reflexive
    // tINDs hold trivially.
    const AttributeHistory& query = *queries[b];
    if (query.id() < dataset_->size() &&
        &dataset_->attribute(query.id()) == &query) {
      cand.Clear(query.id());
    }
    g.candidates.push_back(std::move(cand));
  }
  g.required.resize(n);
  g.abandoned.assign(n, 0);
  g.stats.assign(n, QueryStats{});
  for (QueryStats& stats : g.stats) stats.plan = plan;
  g.results.resize(n);
  return g;
}

void TindIndex::StepGroup(Group* g) const {
  if (g->next == SearchStage::kDone) return;
  const size_t n = g->size();
  // Stage boundary: observe cancellation before any work is spent.
  std::vector<char> ran(n, 0);
  size_t active = 0;
  for (size_t b = 0; b < n; ++b) {
    if (g->PollCancel(b)) continue;
    ran[b] = 1;
    ++active;
  }
  if (active == 0) {
    g->next = SearchStage::kDone;
    return;
  }
  Stopwatch timer;
  double QueryStats::*stage_ms = nullptr;
  switch (g->next) {
    case SearchStage::kProbe:
      ProbeStage(g);
      stage_ms = &QueryStats::probe_ms;
      break;
    case SearchStage::kSlices:
      SliceStage(g);
      stage_ms = &QueryStats::slices_ms;
      break;
    case SearchStage::kRecheck:
      RecheckStage(g);
      stage_ms = &QueryStats::recheck_ms;
      break;
    case SearchStage::kValidate:
      ValidateStage(g);
      stage_ms = &QueryStats::validate_ms;
      break;
    case SearchStage::kDone:
      return;
  }
  g->next = NextStage(g->plan, g->next);
  // Per-query wall time is not separable inside a shared scan: each member
  // that ran the stage is charged an equal share of it.
  const double share = timer.ElapsedMillis() / static_cast<double>(active);
  for (size_t b = 0; b < n; ++b) {
    if (!ran[b]) continue;
    g->stats[b].*stage_ms = share;
    g->stats[b].elapsed_ms += share;
  }
  if (std::all_of(g->abandoned.begin(), g->abandoned.end(),
                  [](char a) { return a != 0; })) {
    g->next = SearchStage::kDone;
  }
}

bool TindIndex::ReversePrefilterUsable(const TindParams& params) const {
  return has_reverse_ &&
         params.epsilon <= options_.epsilon + kViolationTolerance;
}

void TindIndex::ProbeStage(Group* g) const {
  const TindParams& params = g->params;
  const bool reverse_usable = ReversePrefilterUsable(params);
  std::vector<BloomFilter> filters;
  filters.reserve(g->size());  // Probes hold pointers into this.
  std::vector<BloomProbe> probes;
  {
    TIND_OBS_SCOPED_TIMER("query_filters");
    for (size_t b = 0; b < g->size(); ++b) {
      if (g->abandoned[b]) continue;
      const AttributeHistory& query = *g->queries[b];
      BitVector& cand = g->candidates[b];
      bool use_prefilter = reverse_usable;
      if (g->forward) {
        // Required values against M_T (sound for every ε, w, δ).
        g->required[b] =
            ComputeRequiredValues(query, *params.weight, params.epsilon);
        use_prefilter = !g->required[b].empty();
        if (use_prefilter) {
          filters.push_back(full_matrix_.MakeQueryFilter(g->required[b]));
        }
      } else if (use_prefilter) {
        filters.push_back(reverse_matrix_.MakeQueryFilter(query.AllValues()));
      }
      if (use_prefilter) probes.push_back(BloomProbe{&filters.back(), &cand});
      g->stats[b].used_prefilter = use_prefilter;
    }
  }
  if (g->forward) {
    TIND_OBS_SCOPED_TIMER("m_t_probe");
    full_matrix_.QuerySupersetsBatch(probes.data(), probes.size());
  } else {
    TIND_OBS_SCOPED_TIMER("m_r_probe");
    reverse_matrix_.QuerySubsetsBatch(probes.data(), probes.size());
  }
  for (size_t b = 0; b < g->size(); ++b) {
    if (g->abandoned[b]) continue;
    g->stats[b].initial_candidates = g->candidates[b].Count();
    if (g->forward) {
      TIND_OBS_COUNTER_ADD("search/candidates_after_m_t",
                           g->stats[b].initial_candidates);
    } else {
      TIND_OBS_COUNTER_ADD("reverse/candidates_after_m_r",
                           g->stats[b].initial_candidates);
    }
  }
}

bool SlicesPayOff(const std::vector<Interval>& slice_intervals,
                  const AttributeHistory& query, size_t candidates) {
  // True iff some non-empty version of `query` falls inside a slice.
  const auto has_slice_probe = [&] {
    for (const Interval& interval : slice_intervals) {
      const auto [first, last] = query.VersionRangeInInterval(interval);
      for (int64_t v = first; v <= last; ++v) {
        if (!query.versions()[static_cast<size_t>(v)].empty()) return true;
      }
    }
    return false;
  };
  const bool pays = candidates > kSkipSlicesMax && has_slice_probe();
  if (pays) {
    TIND_OBS_COUNTER_ADD("planner/full", 1);
  } else {
    TIND_OBS_COUNTER_ADD("planner/skip_slices", 1);
  }
  return pays;
}

void TindIndex::SliceStage(Group* g) const {
  // Time slices are only sound if the query's δ does not exceed the build δ
  // (Section 4.4). After the recheck, the cost rule skips the members whose
  // slices cannot pay for their probes, and the prune loops pass over them.
  const bool slices_usable = g->params.delta <= options_.delta;
  bool any_runs = false;
  for (size_t b = 0; b < g->size(); ++b) {
    if (g->abandoned[b]) continue;
    g->stats[b].plan_skipped_slices =
        slices_usable && g->plan == QueryPlan::kRecheckFirst &&
        !SlicesPayOff(slice_intervals_, *g->queries[b],
                      g->stats[b].after_exact_check);
    any_runs = any_runs || !g->stats[b].plan_skipped_slices;
  }
  if (slices_usable && any_runs) {
    TIND_OBS_SCOPED_TIMER("slice_prune");
    if (g->forward) PruneForwardSlices(g);
    if (!g->forward) PruneReverseSlices(g);
  }
  for (size_t b = 0; b < g->size(); ++b) {
    if (g->abandoned[b]) continue;
    QueryStats& stats = g->stats[b];
    stats.used_slices = slices_usable && !stats.plan_skipped_slices;
    stats.after_slices = g->candidates[b].Count();
    if (g->forward) {
      TIND_OBS_COUNTER_ADD("search/candidates_after_slices",
                           stats.after_slices);
    }
  }
}

void TindIndex::RecheckStage(Group* g) const {
  TIND_OBS_SCOPED_TIMER("exact_recheck");
  // Reverse rechecks evaluate R_{ε,w}(A) at the build (ε, w) — exactly the
  // required_values_ table, populated whenever has_reverse_ is — so they
  // are only usable together with the M_R prefilter.
  const bool reverse_usable = ReversePrefilterUsable(g->params);
  assert(!reverse_usable || required_values_.size() == dataset_->size());
  for (size_t b = 0; b < g->size(); ++b) {
    if (g->abandoned[b]) continue;
    BitVector& cand = g->candidates[b];
    // Exact required-values recheck to shed Bloom false positives
    // (Algorithm 1, line 16). By default it runs before the slices: the
    // false positives are mostly catch-alls whose saturated slice columns
    // would be probed for nothing. Those catch-alls keep a dense
    // membership bitmap, so HoldsAll tests their bits.
    if (g->forward && !g->required[b].empty()) {
      const ValueSet& required = g->required[b];
      cand.ForEachSet([&](size_t c) {
        if (!dataset_->attribute(static_cast<AttributeId>(c))
                 .HoldsAll(required)) {
          cand.Clear(c);
        }
      });
    }
    if (!g->forward && reverse_usable) {
      const AttributeHistory& query = *g->queries[b];
      cand.ForEachSet([&](size_t c) {
        if (!query.HoldsAll(required_values_[c])) cand.Clear(c);
      });
    }
    g->stats[b].after_exact_check = cand.Count();
  }
}

void TindIndex::ValidateStage(Group* g) const {
  for (size_t b = 0; b < g->size(); ++b) {
    if (g->abandoned[b]) continue;
    const CancellationToken* cancel =
        g->cancels.empty() ? nullptr : g->cancels[b];
    g->results[b] = ValidateCandidates(*g->queries[b], g->params,
                                       g->candidates[b], g->forward, g->pool,
                                       cancel, &g->stats[b].validations);
    g->stats[b].num_results = g->results[b].size();
    // A partially validated answer is neither exact nor a sound superset:
    // a token that fired during validation abandons the member.
    g->PollCancel(b);
  }
}

std::vector<AttributeId> TindIndex::ValidateCandidates(
    const AttributeHistory& query, const TindParams& params,
    const BitVector& candidates, bool forward, ThreadPool* pool,
    const CancellationToken* cancel, size_t* validations) const {
  TIND_OBS_SCOPED_TIMER("validate");
  const std::vector<size_t> ids = candidates.ToIndexVector();
  std::vector<char> valid(ids.size(), 0);
  std::atomic<size_t> validations_run{0};
  // The query's side of Algorithm 2 is prepared once and shared read-only
  // by every validation; in reverse the candidate is the lhs, so each
  // validation prepares its own.
  std::optional<PreparedQuery> prepared;
  if (forward && !ids.empty()) prepared.emplace(query);
  const auto validate_one = [&](size_t i) {
    // Validation is the most expensive stage, so cancellation is polled per
    // candidate: once the token fires, at most the in-flight validations
    // (one per worker) complete before the query is abandoned.
    if (cancel != nullptr && cancel->cancelled()) return;
    validations_run.fetch_add(1, std::memory_order_relaxed);
    const AttributeHistory& a =
        dataset_->attribute(static_cast<AttributeId>(ids[i]));
    const bool ok = forward
                        ? ValidateTind(*prepared, a, params, dataset_->domain())
                        : ValidateTind(a, query, params, dataset_->domain());
    valid[i] = ok ? 1 : 0;
  };
  if (pool != nullptr && ids.size() >= 8) {
    pool->ParallelFor(0, ids.size(), validate_one);
  } else {
    for (size_t i = 0; i < ids.size(); ++i) validate_one(i);
  }
  *validations = validations_run.load();
  TIND_OBS_COUNTER_ADD("search/validations", *validations);
  std::vector<AttributeId> results;
  for (size_t i = 0; i < ids.size(); ++i) {
    if (valid[i]) results.push_back(static_cast<AttributeId>(ids[i]));
  }
  return results;
}

void TindIndex::PruneForwardSlices(Group* g) const {
  const TindParams& params = g->params;
  // Violation bookkeeping only for surviving candidates; M_T pruning keeps
  // these maps small (Section 4.2.2). This is the structural difference
  // from k-MANY, which must track all |D| candidates.
  std::vector<std::unordered_map<AttributeId, double>> violations(g->size());
  std::vector<BatchSliceTask> tasks;
  std::vector<BloomProbe> probes;
  size_t slice_probes = 0;
  size_t violation_updates = 0;
  size_t pruned = 0;
  for (size_t j = 0; j < slice_matrices_.size(); ++j) {
    const Interval& interval = slice_intervals_[j];
    const BloomMatrix& matrix = slice_matrices_[j];
    // Plan: every valid (member, version) pair of this slice becomes one
    // probe. A member abandoned here plans no probes for this or any later
    // slice, so at most one slice's worth of its probes ever ran past
    // Cancel().
    tasks.clear();
    for (size_t b = 0; b < g->size(); ++b) {
      if (g->stats[b].plan_skipped_slices || g->PollCancel(b) ||
          g->candidates[b].None()) {
        continue;
      }
      const AttributeHistory& query = *g->queries[b];
      const auto [first, last] = query.VersionRangeInInterval(interval);
      for (int64_t v = first; v <= last; ++v) {
        const ValueSet& version = query.versions()[static_cast<size_t>(v)];
        if (version.empty()) continue;
        // The violated sub-interval is the version's validity clipped to I
        // (Algorithm 1, lines 6-9 walk version boundaries within I).
        const Interval validity = query.ValidityInterval(v);
        const Interval clipped{std::max(validity.begin, interval.begin),
                               std::min(validity.end, interval.end)};
        if (clipped.begin > clipped.end) continue;
        BatchSliceTask task;
        task.b = b;
        task.weight = params.weight->Sum(clipped);
        task.filter = matrix.MakeQueryFilter(version);
        task.cand = g->candidates[b];
        tasks.push_back(std::move(task));
      }
    }
    if (tasks.empty()) continue;
    slice_probes += tasks.size();
    probes.clear();
    for (BatchSliceTask& t : tasks) {
      probes.push_back(BloomProbe{&t.filter, &t.cand});
    }
    matrix.QuerySupersetsBatch(probes.data(), probes.size());
    // Replay the violation bookkeeping in planning order — per member that
    // is exactly the version order, and members do not interact.
    for (const BatchSliceTask& t : tasks) {
      // PV = C ∧ ¬C_ij: candidates that failed this version's containment.
      BitVector partial = g->candidates[t.b];
      partial.AndNot(t.cand);
      partial.ForEachSet([&](size_t c) {
        double& vio = violations[t.b][static_cast<AttributeId>(c)];
        vio += t.weight;
        ++violation_updates;
        if (vio > params.epsilon + kViolationTolerance) {
          g->candidates[t.b].Clear(c);  // Pruned (Algorithm 1, line 14).
          ++pruned;
        }
      });
    }
  }
  TIND_OBS_COUNTER_ADD("search/slice_probes", slice_probes);
  TIND_OBS_COUNTER_ADD("search/partial_violation_updates", violation_updates);
  TIND_OBS_COUNTER_ADD("search/slice_pruned_candidates", pruned);
}

void TindIndex::PruneReverseSlices(Group* g) const {
  const TindParams& params = g->params;
  std::vector<std::unordered_map<AttributeId, double>> violations(g->size());
  std::vector<BatchSliceTask> tasks;
  std::vector<BloomProbe> probes;
  size_t slice_probes = 0;
  size_t violation_updates = 0;
  size_t pruned = 0;
  size_t min_weights_cached = 0;
  // Per-call memo of minimum weights for weights other than the build
  // weight, whose build-time table does not apply. Allocated on first use,
  // so queries under the build weight never pay for it.
  std::vector<double> memo;
  std::vector<char> memo_ready;
  const size_t slices_to_use =
      std::min(options_.reverse_slices, slice_matrices_.size());
  for (size_t j = 0; j < slices_to_use; ++j) {
    const Interval& interval = slice_intervals_[j];
    const BloomMatrix& matrix = slice_matrices_[j];
    // Columns hold A[I^δ]; the query side is expanded by a further δ so a
    // Bloom-level non-containment proves a genuine δ-violation of some
    // version of A within I^δ (Section 4.5).
    const Interval query_window =
        dataset_->domain().Clamp(interval.Expanded(2 * options_.delta));
    tasks.clear();
    for (size_t b = 0; b < g->size(); ++b) {
      if (g->stats[b].plan_skipped_slices || g->PollCancel(b) ||
          g->candidates[b].None()) {
        continue;
      }
      BatchSliceTask task;
      task.b = b;
      task.filter =
          matrix.MakeQueryFilter(g->queries[b]->UnionInInterval(query_window));
      task.cand = g->candidates[b];
      tasks.push_back(std::move(task));
    }
    if (tasks.empty()) continue;
    slice_probes += tasks.size();
    probes.clear();
    for (BatchSliceTask& t : tasks) {
      probes.push_back(BloomProbe{&t.filter, &t.cand});
    }
    matrix.QuerySubsetsBatch(probes.data(), probes.size());
    const Interval expanded =
        dataset_->domain().Clamp(interval.Expanded(options_.delta));
    // The build-time table is valid only for the build weight object; it
    // was filled by MinVersionWeight too, so both paths are bit-identical.
    const std::vector<double>* table =
        (params.weight == options_.weight && j < reverse_min_weights_.size())
            ? &reverse_min_weights_[j]
            : nullptr;
    if (table == nullptr) {
      memo.resize(dataset_->size());
      memo_ready.assign(dataset_->size(), 0);
    }
    const auto min_weight = [&](size_t c) {
      if (table != nullptr) {
        ++min_weights_cached;
        return (*table)[c];
      }
      if (!memo_ready[c]) {
        memo_ready[c] = 1;
        memo[c] = MinVersionWeight(
            dataset_->attribute(static_cast<AttributeId>(c)), expanded,
            *params.weight);
      }
      return memo[c];
    };
    for (const BatchSliceTask& t : tasks) {
      BitVector partial = g->candidates[t.b];
      partial.AndNot(t.cand);
      partial.ForEachSet([&](size_t c) {
        // The Bloom filters cannot reveal *which* version of A violated, so
        // only the minimum version-subinterval weight may be added
        // (Figure 6). A weight <= 0 covers both "no version in the window"
        // (-1) and zero-weight sub-intervals; neither proves a violation.
        const double w = min_weight(c);
        if (w <= 0) return;
        double& vio = violations[t.b][static_cast<AttributeId>(c)];
        vio += w;
        ++violation_updates;
        if (vio > params.epsilon + kViolationTolerance) {
          g->candidates[t.b].Clear(c);
          ++pruned;
        }
      });
    }
  }
  TIND_OBS_COUNTER_ADD("reverse/slice_probes", slice_probes);
  TIND_OBS_COUNTER_ADD("reverse/partial_violation_updates", violation_updates);
  TIND_OBS_COUNTER_ADD("reverse/slice_pruned_candidates", pruned);
  TIND_OBS_COUNTER_ADD("reverse/min_weights_cached", min_weights_cached);
}

std::vector<AttributeId> TindIndex::RunSingle(const AttributeHistory& query,
                                              const TindParams& params,
                                              QueryPlan plan,
                                              QueryStats* stats,
                                              ThreadPool* pool,
                                              bool forward) const {
  const AttributeHistory* queries[] = {&query};
  Group g = MakeGroup(queries, 1, params, forward, plan, /*cancels=*/nullptr);
  g.pool = pool;
  while (g.next != SearchStage::kDone) StepGroup(&g);
  if (stats != nullptr) *stats = g.stats[0];
  return std::move(g.results[0]);
}

std::vector<AttributeId> TindIndex::Search(const AttributeHistory& query,
                                           const TindParams& params,
                                           QueryStats* stats,
                                           ThreadPool* pool) const {
  return Search(query, params, QueryPlan::kRecheckFirst, stats, pool);
}

std::vector<AttributeId> TindIndex::Search(const AttributeHistory& query,
                                           const TindParams& params,
                                           QueryPlan plan,
                                           QueryStats* stats,
                                           ThreadPool* pool) const {
  TIND_OBS_SCOPED_TIMER("search");
  return RunSingle(query, params, plan, stats, pool, /*forward=*/true);
}

std::vector<AttributeId> TindIndex::ReverseSearch(const AttributeHistory& query,
                                                  const TindParams& params,
                                                  QueryStats* stats,
                                                  ThreadPool* pool) const {
  return ReverseSearch(query, params, QueryPlan::kRecheckFirst, stats, pool);
}

std::vector<AttributeId> TindIndex::ReverseSearch(const AttributeHistory& query,
                                                  const TindParams& params,
                                                  QueryPlan plan,
                                                  QueryStats* stats,
                                                  ThreadPool* pool) const {
  TIND_OBS_SCOPED_TIMER("reverse_search");
  return RunSingle(query, params, plan, stats, pool, /*forward=*/false);
}

std::vector<std::vector<AttributeId>> TindIndex::BatchExecute(
    const std::vector<const AttributeHistory*>& queries,
    const TindParams& params, std::vector<QueryStats>* stats, ThreadPool* pool,
    bool forward) const {
  const size_t n = queries.size();
  std::vector<std::vector<AttributeId>> results(n);
  if (stats != nullptr) stats->assign(n, QueryStats{});
  if (n == 0) return results;
  const size_t workers = pool != nullptr ? pool->num_threads() : 1;
  const std::vector<IndexRange> shards =
      PlanBatchShards(n, workers, kBloomBatchGroupSize);
  TIND_OBS_COUNTER_ADD("index/batch_calls", 1);
  TIND_OBS_COUNTER_ADD("index/batch_shards", shards.size());
  const auto run_shard = [&](size_t s) {
    const IndexRange& range = shards[s];
    // A shard never exceeds kBloomBatchGroupSize, but tolerate larger ones
    // by re-chunking rather than assuming the planner's cap.
    for (size_t lo = range.begin; lo < range.end;
         lo += kBloomBatchGroupSize) {
      const size_t size = std::min(kBloomBatchGroupSize, range.end - lo);
      TIND_OBS_SCOPED_TIMER(forward ? "batch_search_group"
                                    : "batch_reverse_group");
      TIND_OBS_OBSERVE_BOUNDS("index/batch_group_size", size,
                              GroupSizeBounds());
      Group g = MakeGroup(queries.data() + lo, size, params, forward,
                          QueryPlan::kRecheckFirst, /*cancels=*/nullptr);
      while (g.next != SearchStage::kDone) StepGroup(&g);
      for (size_t b = 0; b < size; ++b) {
        results[lo + b] = std::move(g.results[b]);
        if (stats != nullptr) (*stats)[lo + b] = g.stats[b];
      }
    }
  };
  if (pool != nullptr && shards.size() > 1) {
    pool->ParallelFor(0, shards.size(), run_shard);
  } else {
    for (size_t s = 0; s < shards.size(); ++s) run_shard(s);
  }
  return results;
}

std::vector<std::vector<AttributeId>> TindIndex::BatchSearch(
    const std::vector<const AttributeHistory*>& queries,
    const TindParams& params, std::vector<QueryStats>* stats,
    ThreadPool* pool) const {
  TIND_OBS_SCOPED_TIMER("batch_search");
  return BatchExecute(queries, params, stats, pool, /*forward=*/true);
}

std::vector<std::vector<AttributeId>> TindIndex::BatchReverseSearch(
    const std::vector<const AttributeHistory*>& queries,
    const TindParams& params, std::vector<QueryStats>* stats,
    ThreadPool* pool) const {
  TIND_OBS_SCOPED_TIMER("batch_reverse_search");
  return BatchExecute(queries, params, stats, pool, /*forward=*/false);
}

size_t TindIndex::MemoryUsageBytes() const {
  size_t bytes = full_matrix_.MemoryUsageBytes();
  for (const auto& m : slice_matrices_) bytes += m.MemoryUsageBytes();
  if (has_reverse_) bytes += reverse_matrix_.MemoryUsageBytes();
  return bytes;
}

}  // namespace tind
