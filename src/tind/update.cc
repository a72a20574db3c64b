#include "tind/update.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "common/fault_injection.h"
#include "common/simd.h"
#include "obs/metrics.h"
#include "tind/required_values.h"

namespace tind {
namespace {

/// Interns a revision's value strings into `dict`, flagging growth so the
/// snapshot compactor knows the dictionary section changed.
ValueSet InternValues(ValueDictionary* dict,
                      const std::vector<std::string>& strings, bool* grew) {
  std::vector<ValueId> ids;
  ids.reserve(strings.size());
  const size_t before = dict->size();
  for (const std::string& s : strings) ids.push_back(dict->Intern(s));
  if (dict->size() != before) *grew = true;
  return ValueSet::FromUnsorted(std::move(ids));
}

/// Row word count a matrix section serializes for `columns` columns; when it
/// differs between base and updated index, even an untouched slice section
/// changes size on disk.
size_t RowWords(size_t columns) { return PadWordCount((columns + 63) / 64); }

}  // namespace

Result<DeltaApplication> ApplyDeltaToDataset(const Dataset& base,
                                             const RevisionDelta& delta) {
  DeltaApplication out;
  // The copy shares the base dictionary's strings and interns into a private
  // overlay; the published base is never appended to.
  auto dict = std::make_shared<ValueDictionary>(base.dictionary());
  out.dataset = std::make_shared<Dataset>(base.domain(), dict);
  // Each op adds at most one history.
  out.dataset->Reserve(base.size() + delta.ops.size());
  for (AttributeId id = 0; id < base.size(); ++id) {
    out.dataset->Add(base.shared_attribute(id));
  }
  Dataset& ds = *out.dataset;

  // Histories this delta owns: a clone made the first time an op touches an
  // existing history (copy-on-write), or an added one. Ops mutate only these;
  // every other history stays shared with the base.
  std::unordered_map<AttributeId, std::shared_ptr<AttributeHistory>> owned;
  const auto writable = [&](AttributeId id) {
    std::shared_ptr<AttributeHistory>& history = owned[id];
    if (history == nullptr) {
      history = std::make_shared<AttributeHistory>(ds.attribute(id));
      ds.Replace(id, history);
    }
    return history.get();
  };
  const auto mark_dirty = [&out](AttributeId id, Timestamp t) {
    const auto [it, inserted] = out.dirty.emplace(id, t);
    if (!inserted && t < it->second) it->second = t;
  };

  for (const RevisionOp& op : delta.ops) {
    switch (op.kind) {
      case RevisionOp::Kind::kAppendVersion: {
        if (op.attribute >= ds.size()) {
          return Status::InvalidArgument(
              "append to unknown attribute " + std::to_string(op.attribute));
        }
        ValueSet values =
            InternValues(dict.get(), op.values, &out.dictionary_grew);
        TIND_RETURN_IF_ERROR(writable(op.attribute)
                                 ->AppendVersion(op.timestamp,
                                                 std::move(values)));
        ++out.versions_appended;
        mark_dirty(op.attribute, op.timestamp);
        break;
      }
      case RevisionOp::Kind::kAddAttribute: {
        const AttributeId id = static_cast<AttributeId>(ds.size());
        AttributeHistoryBuilder builder(id, op.meta, ds.domain());
        for (const auto& [t, strings] : op.versions) {
          ValueSet values =
              InternValues(dict.get(), strings, &out.dictionary_grew);
          TIND_RETURN_IF_ERROR(builder.AddVersion(t, std::move(values)));
        }
        auto history = builder.Finish();
        if (!history.ok()) {
          return Status::InvalidArgument("added attribute has no versions: " +
                                         history.status().message());
        }
        auto added = std::make_shared<AttributeHistory>(std::move(*history));
        owned.emplace(id, added);
        ds.Add(std::move(added));
        ++out.attributes_added;
        mark_dirty(id, 0);
        break;
      }
      case RevisionOp::Kind::kRetireAttribute: {
        if (op.attribute >= ds.size()) {
          return Status::InvalidArgument(
              "retire of unknown attribute " + std::to_string(op.attribute));
        }
        TIND_RETURN_IF_ERROR(
            writable(op.attribute)->AppendVersion(op.timestamp, ValueSet()));
        ++out.attributes_retired;
        mark_dirty(op.attribute, op.timestamp);
        break;
      }
    }
  }
  return out;
}

Result<UpdateResult> IndexUpdater::ApplyDelta(const TindIndex& base,
                                              const RevisionDelta& delta) {
  TIND_OBS_SCOPED_TIMER("index_update");
  TIND_OBS_COUNTER_ADD("index/updates", 1);
  const TindIndexOptions& options = base.options_;

  Result<DeltaApplication> applied_or = [&] {
    TIND_OBS_SCOPED_TIMER("index_update/dataset_copy");
    return ApplyDeltaToDataset(base.dataset(), delta);
  }();
  if (!applied_or.ok()) return applied_or.status();
  DeltaApplication applied = std::move(*applied_or);
  const Dataset& ds = *applied.dataset;
  const size_t old_n = base.dataset().size();
  const size_t new_n = ds.size();

  // Deterministic patch order: ascending attribute id, so both differential
  // paths execute identical SetColumn sequences.
  std::vector<std::pair<AttributeId, Timestamp>> dirty(applied.dirty.begin(),
                                                       applied.dirty.end());
  std::sort(dirty.begin(), dirty.end());

  auto index = std::unique_ptr<TindIndex>(new TindIndex());
  index->dataset_ = applied.dataset.get();
  index->options_ = options;
  index->reservation_ = MemoryReservation(options.memory);

  UpdateStats stats;
  stats.attributes_added = applied.attributes_added;
  stats.attributes_retired = applied.attributes_retired;
  stats.versions_appended = applied.versions_appended;
  stats.dictionary_dirty = applied.dictionary_grew;
  // The attribute-meta snapshot section carries per-attribute version counts,
  // so any dirty attribute (not just an added one) invalidates it.
  stats.attribute_meta_dirty = !dirty.empty();
  for (const auto& [c, t0] : dirty) {
    if (c < old_n) ++stats.attributes_touched;
  }

  // Both epochs hold matrix reservations while they coexist; the budget must
  // cover the overlap, exactly as two live indexes would.
  const auto account = [&](const BloomMatrix& matrix) -> Status {
    if (TIND_FAULT_POINT("update/alloc")) {
      TIND_OBS_COUNTER_ADD("memory/budget_rejections", 1);
      return Status::OutOfMemory("injected fault: update/alloc");
    }
    const Status reserved = index->reservation_.Reserve(
        matrix.MemoryUsageBytes());
    if (!reserved.ok()) return Status::OutOfMemory(reserved.message());
    return Status::OK();
  };
  const auto patch_fault = [&]() -> Status {
    if (TIND_FAULT_POINT("update/patch")) {
      return Status::Internal("injected fault: update/patch");
    }
    return Status::OK();
  };

  // M_T: clone, then re-set every dirty column from its new AllValues().
  {
    TIND_OBS_SCOPED_TIMER("index_update/m_t_patch");
    BloomMatrix matrix = base.full_matrix_.CloneWithColumns(new_n);
    TIND_RETURN_IF_ERROR(account(matrix));
    TIND_RETURN_IF_ERROR(patch_fault());
    for (const auto& [c, t0] : dirty) {
      if (c < old_n) matrix.ClearColumn(c);
      matrix.SetColumn(c, ds.attribute(c).AllValues());
      ++stats.columns_reset;
    }
    index->full_matrix_ = std::move(matrix);
  }

  // Re-select the slice intervals with the exact build options. Under
  // kRandom (the default) placement is a function of domain/weight/seed
  // only, so the intervals come back unchanged and slices are patchable; a
  // content-dependent strategy (kWeightedRandom) may move them, in which
  // case the affected slices are rebuilt outright.
  IntervalSelectionOptions sel;
  sel.strategy = options.strategy;
  sel.num_intervals = options.num_slices;
  sel.epsilon = options.epsilon;
  sel.delta_disjoint = options.build_reverse_index ? options.delta : 0;
  sel.seed = options.seed;
  index->slice_intervals_ = SelectIndexIntervals(ds, *options.weight, sel);

  const size_t k = index->slice_intervals_.size();
  stats.slice_intervals_changed =
      index->slice_intervals_ != base.slice_intervals_;
  stats.slice_dirty.assign(k, false);
  const bool width_changed = RowWords(new_n) != RowWords(old_n);
  index->slice_matrices_.reserve(k);
  {
    TIND_OBS_SCOPED_TIMER("index_update/slice_patch");
    for (size_t j = 0; j < k; ++j) {
      const Interval& interval = index->slice_intervals_[j];
      const Interval expanded =
          ds.domain().Clamp(interval.Expanded(options.delta));
      const bool stable = j < base.slice_intervals_.size() &&
                          interval == base.slice_intervals_[j];
      if (stable) {
        // Patch only the dirty columns whose earliest affected timestamp
        // falls inside the δ-expanded slice: an append strictly after the
        // window cannot change A[I^δ] (change points are append-only, so
        // version resolution before the first affected timestamp is
        // untouched).
        std::vector<AttributeId> touched;
        for (const auto& [c, t0] : dirty) {
          if (c >= old_n || expanded.end >= t0) touched.push_back(c);
        }
        BloomMatrix matrix = base.slice_matrices_[j].CloneWithColumns(new_n);
        TIND_RETURN_IF_ERROR(account(matrix));
        if (touched.empty()) {
          ++stats.slices_skipped;
        } else {
          TIND_RETURN_IF_ERROR(patch_fault());
          for (const AttributeId c : touched) {
            if (c < old_n) matrix.ClearColumn(c);
            matrix.SetColumn(c, ds.attribute(c).UnionInInterval(expanded));
            ++stats.columns_reset;
          }
          ++stats.slices_patched;
        }
        stats.slice_dirty[j] = !touched.empty() || width_changed;
        index->slice_matrices_.push_back(std::move(matrix));
      } else {
        BloomMatrix matrix(options.bloom_bits, options.num_hashes, new_n);
        TIND_RETURN_IF_ERROR(account(matrix));
        TIND_RETURN_IF_ERROR(patch_fault());
        for (size_t c = 0; c < new_n; ++c) {
          matrix.SetColumn(c, ds.attribute(static_cast<AttributeId>(c))
                                  .UnionInInterval(expanded));
        }
        ++stats.slices_rebuilt;
        stats.slice_dirty[j] = true;
        index->slice_matrices_.push_back(std::move(matrix));
      }
    }
  }

  if (options.build_reverse_index) {
    TIND_OBS_SCOPED_TIMER("index_update/reverse_patch");
    // Required values: content of clean columns is unchanged by definition,
    // so only dirty attributes recompute (same call as BuildReverseCaches).
    index->required_values_ = base.required_values_;
    index->required_values_.resize(new_n);
    for (const auto& [c, t0] : dirty) {
      index->required_values_[c] = ComputeRequiredValues(
          ds.attribute(c), *options.weight, options.epsilon);
    }

    BloomMatrix matrix = base.reverse_matrix_.CloneWithColumns(new_n);
    TIND_RETURN_IF_ERROR(account(matrix));
    TIND_RETURN_IF_ERROR(patch_fault());
    for (const auto& [c, t0] : dirty) {
      if (c < old_n) matrix.ClearColumn(c);
      matrix.SetColumn(c, index->required_values_[c]);
      ++stats.columns_reset;
    }
    index->reverse_matrix_ = std::move(matrix);

    const size_t slices_to_use =
        std::min(options.reverse_slices, index->slice_intervals_.size());
    index->reverse_min_weights_.assign(slices_to_use, {});
    for (size_t j = 0; j < slices_to_use; ++j) {
      const Interval expanded = ds.domain().Clamp(
          index->slice_intervals_[j].Expanded(options.delta));
      std::vector<double>& row = index->reverse_min_weights_[j];
      const bool stable = j < base.slice_intervals_.size() &&
                          index->slice_intervals_[j] ==
                              base.slice_intervals_[j] &&
                          j < base.reverse_min_weights_.size();
      if (stable) {
        row = base.reverse_min_weights_[j];
        row.resize(new_n, -1.0);
        for (const auto& [c, t0] : dirty) {
          row[c] = MinVersionWeight(ds.attribute(c), expanded,
                                    *options.weight);
        }
      } else {
        row.assign(new_n, -1.0);
        for (size_t c = 0; c < new_n; ++c) {
          row[c] = MinVersionWeight(
              ds.attribute(static_cast<AttributeId>(c)), expanded,
              *options.weight);
        }
      }
    }
    index->has_reverse_ = true;
  }

  TIND_OBS_COUNTER_ADD("index/update_columns_reset", stats.columns_reset);
  TIND_OBS_COUNTER_ADD("index/update_slices_patched", stats.slices_patched);
  TIND_OBS_COUNTER_ADD("index/update_slices_skipped", stats.slices_skipped);
  TIND_OBS_COUNTER_ADD("index/update_slices_rebuilt", stats.slices_rebuilt);
  TIND_OBS_GAUGE_SET("index/memory_bytes", index->MemoryUsageBytes());

  UpdateResult result;
  result.dataset = applied.dataset;
  result.index = std::shared_ptr<const TindIndex>(std::move(index));
  result.stats = std::move(stats);
  return result;
}

}  // namespace tind
