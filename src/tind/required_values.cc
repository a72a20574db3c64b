#include "tind/required_values.h"

#include <algorithm>
#include <unordered_map>
#include <vector>

namespace tind {

ValueSet ComputeRequiredValues(const AttributeHistory& attribute,
                               const WeightFunction& weight, double epsilon) {
  // Accumulate per-value occurrence weight over version validity intervals.
  // One interval-sum per (version, value) pair; interval sums are O(1).
  std::unordered_map<ValueId, double> occurrence_weight;
  occurrence_weight.reserve(attribute.AllValues().size());
  attribute.ForEachVersion([&](const ValueSet& version,
                               const Interval& validity) {
    const double w = weight.Sum(validity);
    if (w <= 0) return;
    for (const ValueId v : version.values()) {
      occurrence_weight[v] += w;
    }
  });
  std::vector<ValueId> required;
  for (const auto& [value, w] : occurrence_weight) {
    if (w > epsilon) required.push_back(value);
  }
  return ValueSet::FromUnsorted(std::move(required));
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
