#ifndef TIND_TIND_PLAN_H_
#define TIND_TIND_PLAN_H_

/// \file plan.h
/// Stage orders for the search funnel. Every stage of Algorithm 1 before
/// exact validation is a *sound prune* — it only removes attributes that
/// cannot be in the answer — so the order of the two middle prunes, and
/// whether the slice stage runs at all, can never change the final result,
/// only the work each stage does.

#include <cstdint>

namespace tind {

/// The order in which a query runs the funnel. Recorded in QueryStats::plan.
enum class QueryPlan : uint8_t {
  /// The default: probe → exact recheck → slices → validate. The cheap
  /// exact recheck drops the Bloom false positives (mostly catch-all
  /// attributes with saturated columns) before any slice probe, and the
  /// slice stage runs only when its cost rule (SlicesPayOff in
  /// tind/index.h) says it can pay for its probes.
  kRecheckFirst = 0,
  /// Algorithm 1 as written: probe → slices → exact recheck → validate,
  /// every usable slice probed. Kept for the paper's figure benches and the
  /// fixtures that pin the paper's funnel counts.
  kPaperOrder = 1,
};

/// The four funnel stages plus the terminal state. The wire protocol ships
/// them as a u8; the order they run in is the plan's (NextStage).
enum class SearchStage : uint8_t {
  kProbe = 0,     ///< M_T (or M_R) Bloom probe — the microseconds stage.
  kSlices = 1,    ///< Time-slice violation pruning.
  kRecheck = 2,   ///< Exact required-values recheck.
  kValidate = 3,  ///< Exact Algorithm-2 validation.
  kDone = 4,
};

/// The stage `plan` runs after `stage` (kDone after kValidate and kDone).
constexpr SearchStage NextStage(QueryPlan plan, SearchStage stage) {
  const bool paper = plan == QueryPlan::kPaperOrder;
  switch (stage) {
    case SearchStage::kProbe:
      return paper ? SearchStage::kSlices : SearchStage::kRecheck;
    case SearchStage::kSlices:
      return paper ? SearchStage::kRecheck : SearchStage::kValidate;
    case SearchStage::kRecheck:
      return paper ? SearchStage::kValidate : SearchStage::kSlices;
    case SearchStage::kValidate:
    case SearchStage::kDone:
      return SearchStage::kDone;
  }
  return SearchStage::kDone;
}

}  // namespace tind

#endif  // TIND_TIND_PLAN_H_
