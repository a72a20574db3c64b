#include "tind/required_values.h"

#include <algorithm>
#include <vector>

#include "tind/validator.h"

namespace tind {

ValueSet ComputeRequiredValues(const AttributeHistory& attribute,
                               const WeightFunction& weight, double epsilon) {
  // Accumulate per-value occurrence weight over version validity intervals,
  // densely by each value's slot in AllValues() (the union of the
  // versions). One interval-sum per version (O(1)); each value's weights
  // are added in version order.
  const ValueSet& universe = attribute.AllValues();
  std::vector<double> occurrence_weight(universe.size(), 0.0);
  attribute.ForEachVersion([&](const ValueSet& version,
                               const Interval& validity) {
    const double w = weight.Sum(validity);
    if (w <= 0) return;
    ForEachUniverseSlot(universe, version, [&](uint32_t slot) {
      occurrence_weight[slot] += w;
    });
  });
  // Slots ascend with the values, so the result comes out sorted. A value
  // held only by zero-weight versions never occurred (weight 0), whatever ε.
  std::vector<ValueId> required;
  for (size_t slot = 0; slot < universe.size(); ++slot) {
    const double w = occurrence_weight[slot];
    if (w > 0 && w > epsilon) required.push_back(universe.values()[slot]);
  }
  return ValueSet::FromSorted(std::move(required));
}

double MinVersionWeight(const AttributeHistory& attribute,
                        const Interval& window, const WeightFunction& weight) {
  const auto [first, last] = attribute.VersionRangeInInterval(window);
  double min_w = -1;
  for (int64_t v = first; v <= last; ++v) {
    const Interval validity = attribute.ValidityInterval(v);
    const Interval clipped{std::max(validity.begin, window.begin),
                           std::min(validity.end, window.end)};
    if (clipped.begin > clipped.end) continue;
    const double w = weight.Sum(clipped);
    if (min_w < 0 || w < min_w) min_w = w;
  }
  return min_w;
}

}  // namespace tind
