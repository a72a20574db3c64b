#include "tind/progressive.h"

#include <algorithm>

#include "obs/metrics.h"

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
    : index_(&index), size_(members.size()) {
  std::vector<const AttributeHistory*> queries;
  std::vector<const CancellationToken*> cancels;
  for (const Member& m : members) {
    queries.push_back(m.query);
    cancels.push_back(m.cancel);
  }
  for (size_t lo = 0; lo < size_; lo += kBloomBatchGroupSize) {
    const size_t n = std::min(kBloomBatchGroupSize, size_ - lo);
    groups_.push_back(index.MakeGroup(queries.data() + lo, n, params,
                                      !options.reverse, options.plan,
                                      cancels.data() + lo));
    groups_.back().pool = options.pool;
  }
  TIND_OBS_COUNTER_ADD("progressive/cursors", 1);
}

SearchCursor::SearchCursor(const TindIndex& index, const AttributeHistory& query,
                           const TindParams& params, const Options& options)
    : SearchCursor(index, {Member{&query, options.cancel}}, params, options) {}

SearchStage SearchCursor::Step() {
  for (TindIndex::Group& g : groups_) index_->StepGroup(&g);
  return next_stage();
}

const std::vector<AttributeId>& SearchCursor::RunToCompletion() {
  while (!done()) Step();
  return results();
}

SearchStage SearchCursor::next_stage() const {
  // Step() advances every unfinished group by one stage of the same order,
  // and a group only ever jumps ahead to kDone, so the unfinished groups
  // agree on their next stage.
  for (const TindIndex::Group& g : groups_) {
    if (g.next != SearchStage::kDone) return g.next;
  }
  return SearchStage::kDone;
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
