#ifndef TIND_TIND_REQUIRED_VALUES_H_
#define TIND_TIND_REQUIRED_VALUES_H_

/// \file required_values.h
/// Required values (Section 4.2.1): the values of an attribute whose summed
/// occurrence weight exceeds ε. If v occurs in Q at timestamps of total
/// weight > ε, any valid right-hand side of Q ⊆_{w,ε,δ} A must contain v at
/// some point (otherwise those timestamps alone violate the budget), so
/// R_{ε,w}(Q) ⊆ A[T] is a necessary condition and drives the M_T pruning.

#include "temporal/attribute_history.h"
#include "temporal/value_set.h"
#include "temporal/weights.h"

namespace tind {

/// Computes R_{ε,w}(Q) = {v : w_v(Q) > ε}, where w_v(Q) is the summed weight
/// of the timestamps at which v occurs in Q (Equations 6 and 7).
ValueSet ComputeRequiredValues(const AttributeHistory& attribute,
                               const WeightFunction& weight, double epsilon);

/// Minimum version-subinterval weight (Section 4.5, Figure 6): the least
/// weight of any one version of `attribute` whose validity, clipped to
/// `window`, is non-empty; -1 when no version overlaps the window. A reverse
/// slice probe cannot tell which version of a candidate violated, so this is
/// all a Bloom-level violation may add to the candidate's budget.
double MinVersionWeight(const AttributeHistory& attribute,
                        const Interval& window, const WeightFunction& weight);

}  // namespace tind

#endif  // TIND_TIND_REQUIRED_VALUES_H_
