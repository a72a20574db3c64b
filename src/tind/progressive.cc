#include "tind/progressive.h"

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

SearchCursor::SearchCursor(const TindIndex& index, const AttributeHistory& query,
                           const TindParams& params, const Options& options)
    : index_(&index), planner_(options.planner) {
  const AttributeHistory* queries[] = {&query};
  group_ = index.MakeGroup(queries, 1, params, !options.reverse,
                           &options.cancel);
  group_.plan = options.plan;
  group_.pool = options.pool;
  TIND_OBS_COUNTER_ADD("progressive/cursors", 1);
}

SearchStage SearchCursor::Step() {
  const bool probing = group_.next == SearchStage::kProbe;
  index_->StepGroup(&group_);
  // The cost model decides the remaining stages once the stage-1 candidate
  // count is known.
  if (probing && planner_ != nullptr && !done()) {
    group_.plan = planner_->Plan(*group_.queries[0], group_.params,
                                 stats().initial_candidates);
  }
  return group_.next;
}

const std::vector<AttributeId>& SearchCursor::RunToCompletion() {
  while (!done()) Step();
  return results();
}

std::vector<AttributeId> SearchCursor::Superset() const {
  const std::vector<size_t> ids = group_.candidates[0].ToIndexVector();
  return std::vector<AttributeId>(ids.begin(), ids.end());
}

void SearchCursor::Abandon() {
  group_.Abandon(0);
  group_.next = SearchStage::kDone;
}

}  // namespace tind
