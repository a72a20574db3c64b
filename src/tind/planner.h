#ifndef TIND_TIND_PLANNER_H_
#define TIND_TIND_PLANNER_H_

/// \file planner.h
/// Fixed-rule planner for the staged search funnel. Stage 2 (time-slice
/// pruning) is pure overhead when it cannot repay its probes: tiny
/// candidate sets after the M_T/M_R probe, or queries with no versions
/// inside any indexed slice. The rule, in order:
///
///  1. query δ above the build δ → the default plan (the slice stage's
///     soundness gate skips it anyway);
///  2. at most kSkipSlicesMax candidates → skip slices;
///  3. no query version inside any indexed slice → skip slices;
///  4. otherwise the full funnel.
///
/// On serve-8k traffic rule 2 decides about 97% of served queries. The
/// exact recheck always runs: it is a cheap subset test that keeps Bloom
/// false positives away from Algorithm 2. Skipping the slice stage is sound
/// (tind/plan.h), so a wrong decision costs latency, never correctness.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "temporal/dataset.h"
#include "tind/index.h"
#include "tind/params.h"
#include "tind/plan.h"

namespace tind {

/// Per-query skip decisions. Copies what it needs from the index at
/// construction (build δ, slice intervals) and never retains the index
/// pointer, so an instance stays valid across serving-layer epoch swaps.
/// Plan() is const and thread-safe.
class CostModelPlanner {
 public:
  /// Candidate sets at or below this size skip the slice stage: even a
  /// perfect prune cannot save more than the probes cost.
  static constexpr size_t kSkipSlicesMax = 8;

  explicit CostModelPlanner(const TindIndex& index);

  /// Decides the skips for one query given the candidate count after the
  /// stage-1 probe. Counts each decision in planner/{full,skip_slices}.
  QueryPlan Plan(const AttributeHistory& query, const TindParams& params,
                 size_t initial_candidates) const;

 private:
  /// True iff some non-empty query version falls inside an indexed slice —
  /// otherwise the forward slice stage would issue no probe at all.
  bool HasSliceProbe(const AttributeHistory& query) const;

  int64_t build_delta_ = 0;
  std::vector<Interval> slice_intervals_;  ///< Copied; index not retained.
};

}  // namespace tind

#endif  // TIND_TIND_PLANNER_H_
