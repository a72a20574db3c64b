#include "tind/planner.h"

#include "obs/metrics.h"

namespace tind {

CostModelPlanner::CostModelPlanner(const TindIndex& index)
    : build_delta_(index.options().delta),
      slice_intervals_(index.slice_intervals()) {}

bool CostModelPlanner::HasSliceProbe(const AttributeHistory& query) const {
  for (const Interval& interval : slice_intervals_) {
    const auto [first, last] = query.VersionRangeInInterval(interval);
    for (int64_t v = first; v <= last; ++v) {
      if (!query.versions()[static_cast<size_t>(v)].empty()) return true;
    }
  }
  return false;
}

QueryPlan CostModelPlanner::Plan(const AttributeHistory& query,
                                 const TindParams& params,
                                 size_t initial_candidates) const {
  QueryPlan plan;
  // When the query δ exceeds the build δ the slice stage's soundness gate
  // skips it anyway; returning the default plan keeps QueryStats honest
  // (plan_skipped_slices means "the planner chose to skip a usable stage").
  if (params.delta > build_delta_) {
    TIND_OBS_COUNTER_ADD("planner/full", 1);
    return plan;
  }
  if (initial_candidates <= kSkipSlicesMax || !HasSliceProbe(query)) {
    plan.skip_slices = true;
    TIND_OBS_COUNTER_ADD("planner/skip_slices", 1);
    return plan;
  }
  TIND_OBS_COUNTER_ADD("planner/full", 1);
  return plan;
}

}  // namespace tind
