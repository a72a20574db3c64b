#include "tind/progressive.h"

#include <algorithm>

#include "obs/metrics.h"
#include "tind/planner.h"

namespace tind {

const char* SearchStageName(SearchStage stage) {
  switch (stage) {
    case SearchStage::kProbe:
      return "probe";
    case SearchStage::kSlices:
      return "slices";
    case SearchStage::kRecheck:
      return "recheck";
    case SearchStage::kValidate:
      return "validate";
    case SearchStage::kDone:
      return "done";
  }
  return "unknown";
}

SearchCursor::SearchCursor(const TindIndex& index,
                           const std::vector<Member>& members,
                           const TindParams& params, const Options& options)
    : index_(&index), planner_(options.planner), size_(members.size()) {
  std::vector<const AttributeHistory*> queries;
  std::vector<const CancellationToken*> cancels;
  for (const Member& m : members) {
    queries.push_back(m.query);
    cancels.push_back(m.cancel);
  }
  for (size_t lo = 0; lo < size_; lo += kBloomBatchGroupSize) {
    const size_t n = std::min(kBloomBatchGroupSize, size_ - lo);
    groups_.push_back(index.MakeGroup(queries.data() + lo, n, params,
                                      !options.reverse, cancels.data() + lo));
    TindIndex::Group& g = groups_.back();
    for (size_t b = 0; b < n; ++b) g.plans[b] = members[lo + b].plan;
    g.pool = options.pool;
  }
  TIND_OBS_COUNTER_ADD("progressive/cursors", 1);
}

SearchCursor::SearchCursor(const TindIndex& index, const AttributeHistory& query,
                           const TindParams& params, const Options& options)
    : SearchCursor(index, {Member{&query, options.cancel, options.plan}},
                   params, options) {}

SearchStage SearchCursor::Step() {
  for (TindIndex::Group& g : groups_) {
    const bool probing = g.next == SearchStage::kProbe;
    index_->StepGroup(&g);
    // The planner decides each member's remaining stages once its stage-1
    // candidate count is known.
    if (!probing || planner_ == nullptr || g.next == SearchStage::kDone) {
      continue;
    }
    for (size_t b = 0; b < g.size(); ++b) {
      if (g.abandoned[b]) continue;
      g.plans[b] = planner_->Plan(*g.queries[b], g.params,
                                  g.stats[b].initial_candidates);
    }
  }
  return next_stage();
}

const std::vector<AttributeId>& SearchCursor::RunToCompletion() {
  while (!done()) Step();
  return results();
}

SearchStage SearchCursor::next_stage() const {
  SearchStage next = SearchStage::kDone;
  for (const TindIndex::Group& g : groups_) next = std::min(next, g.next);
  return next;
}

std::vector<AttributeId> SearchCursor::Superset(size_t b) const {
  const std::vector<size_t> ids =
      group(b).candidates[b % kBloomBatchGroupSize].ToIndexVector();
  return std::vector<AttributeId>(ids.begin(), ids.end());
}

void SearchCursor::Abandon(size_t b) {
  TindIndex::Group& g = groups_[b / kBloomBatchGroupSize];
  g.Abandon(b % kBloomBatchGroupSize);
  if (std::all_of(g.abandoned.begin(), g.abandoned.end(),
                  [](char a) { return a != 0; })) {
    g.next = SearchStage::kDone;
  }
}

}  // namespace tind
