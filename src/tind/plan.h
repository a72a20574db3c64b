#ifndef TIND_TIND_PLAN_H_
#define TIND_TIND_PLAN_H_

/// \file plan.h
/// Per-query execution plans for the staged search funnel. Every stage of
/// Algorithm 1 before exact validation is a *sound prune* — it only removes
/// attributes that cannot be in the answer — so skipping a prune stage can
/// never change the final result, only the amount of work stage 4 validates.
/// A QueryPlan records whether the planner (tind/planner.h) decided to skip
/// the slice stage.

#include <cstdint>

namespace tind {

/// Stage skips for one query. The default plan runs the full funnel and is
/// bit-identical (results and QueryStats) to the pre-plan Search().
struct QueryPlan {
  /// Skip the time-slice violation pruning (stage 2). Chosen when the
  /// expected validation savings cannot repay the slice probes — typically
  /// tiny candidate sets or queries with no versions in the indexed slices.
  bool skip_slices = false;
};

/// The four funnel stages plus the terminal state. Values are ordered by
/// execution; the wire protocol ships them as a u8.
enum class SearchStage : uint8_t {
  kProbe = 0,     ///< M_T (or M_R) Bloom probe — the microseconds stage.
  kSlices = 1,    ///< Time-slice violation pruning.
  kRecheck = 2,   ///< Exact required-values recheck.
  kValidate = 3,  ///< Exact Algorithm-2 validation.
  kDone = 4,
};

}  // namespace tind

#endif  // TIND_TIND_PLAN_H_
