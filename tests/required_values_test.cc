#include "tind/required_values.h"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "test_util.h"
#include "temporal/weights.h"

namespace tind {
namespace {

using testutil::MakeHistory;

/// The hash-map implementation ComputeRequiredValues replaced, kept as the
/// oracle: per-value weights summed in an unordered_map in version order,
/// then filtered and sorted.
std::unordered_map<ValueId, double> OracleWeights(const AttributeHistory& h,
                                                  const WeightFunction& weight) {
  std::unordered_map<ValueId, double> occurrence_weight;
  h.ForEachVersion([&](const ValueSet& version, const Interval& validity) {
    const double w = weight.Sum(validity);
    if (w <= 0) return;
    for (const ValueId v : version.values()) occurrence_weight[v] += w;
  });
  return occurrence_weight;
}

ValueSet OracleRequiredValues(const AttributeHistory& h,
                              const WeightFunction& weight, double epsilon) {
  std::vector<ValueId> required;
  for (const auto& [value, w] : OracleWeights(h, weight)) {
    if (w > epsilon) required.push_back(value);
  }
  return ValueSet::FromUnsorted(std::move(required));
}

/// Compares against the oracle at a fixed ε grid and at every accumulated
/// weight exactly (the strict threshold's boundary), plus just below it.
void ExpectMatchesOracle(const AttributeHistory& h,
                         const WeightFunction& weight,
                         const std::string& context) {
  std::vector<double> epsilons = {0.0, 0.5, 1.0, 3.0, 10.0, 1e9};
  for (const auto& [value, w] : OracleWeights(h, weight)) {
    epsilons.push_back(w);
    epsilons.push_back(std::nextafter(w, 0.0));
  }
  for (const double eps : epsilons) {
    EXPECT_EQ(ComputeRequiredValues(h, weight, eps),
              OracleRequiredValues(h, weight, eps))
        << context << " eps=" << eps;
  }
}

/// Zero weight on [n/4, n/2) and a step up after 3n/4.
std::unique_ptr<PiecewiseConstantWeight> MakePiecewise(int64_t n) {
  return std::make_unique<PiecewiseConstantWeight>(
      std::vector<PiecewiseConstantWeight::Segment>{
          {Interval{0, n / 4 - 1}, 1.0},
          {Interval{n / 4, n / 2 - 1}, 0.0},
          {Interval{n / 2, 3 * n / 4 - 1}, 0.25},
          {Interval{3 * n / 4, n - 1}, 3.0}});
}

TEST(RequiredValuesOracleTest, RandomHistoriesMatchHashMapOracle) {
  const int64_t n = 240;
  const TimeDomain domain(n);
  const ConstantWeight constant(n);
  const ExponentialDecayWeight decay(n, 0.97);
  const auto piecewise = MakePiecewise(n);
  const WeightFunction* weights[] = {&constant, &decay, piecewise.get()};
  Rng rng(2024);
  for (int trial = 0; trial < 200; ++trial) {
    // Small versions over a wide universe take the binary-search walk;
    // large ones over a narrow universe the linear walk.
    const bool wide = trial % 2 == 0;
    const auto h = testutil::RandomHistory(domain, &rng, wide ? 400 : 30,
                                           /*id=*/0, /*max_versions=*/12,
                                           /*max_cardinality=*/wide ? 5 : 24);
    for (const WeightFunction* w : weights) {
      ExpectMatchesOracle(h, *w,
                          "trial=" + std::to_string(trial) + " " +
                              w->ToString());
    }
  }
}

TEST(RequiredValuesOracleTest, ZeroWeightValiditiesAndEmptyVersions) {
  const int64_t n = 80;
  const TimeDomain domain(n);
  const auto piecewise = MakePiecewise(n);  // Zero weight on [20, 39].
  // Value 3 lives only inside the zero-weight segment; value 4 straddles it;
  // the history is empty for a while in between.
  const auto h = MakeHistory(domain, {{0, ValueSet{1}},
                                      {20, ValueSet{1, 3}},
                                      {30, ValueSet{1, 3, 4}},
                                      {40, ValueSet{}},
                                      {50, ValueSet{4}},
                                      {70, ValueSet{1, 4}}});
  ExpectMatchesOracle(h, *piecewise, "piecewise");
  EXPECT_FALSE(ComputeRequiredValues(h, *piecewise, 0.0).Contains(3));
  EXPECT_TRUE(ComputeRequiredValues(h, *piecewise, 0.0).Contains(4));
  // An all-zero weight requires nothing.
  const ConstantWeight zero(n, 0.0);
  ExpectMatchesOracle(h, zero, "zero");
  EXPECT_TRUE(ComputeRequiredValues(h, zero, 0.0).empty());
}

TEST(RequiredValuesOracleTest, EpsilonEqualToAccumulatedWeightIsExcluded) {
  const int64_t n = 100;
  const TimeDomain domain(n);
  const ExponentialDecayWeight decay(n, 0.9);
  // Value 9 accumulates three non-adjacent validities.
  const auto h = MakeHistory(domain, {{0, ValueSet{1, 9}},
                                      {7, ValueSet{1}},
                                      {40, ValueSet{1, 9}},
                                      {41, ValueSet{1}},
                                      {90, ValueSet{9}}});
  const double w9 = OracleWeights(h, decay).at(9);
  EXPECT_FALSE(ComputeRequiredValues(h, decay, w9).Contains(9));
  EXPECT_TRUE(
      ComputeRequiredValues(h, decay, std::nextafter(w9, 0.0)).Contains(9));
  ExpectMatchesOracle(h, decay, "decay");
}

TEST(RequiredValuesTest, AllValuesRequiredAtEpsilonZero) {
  const TimeDomain domain(10);
  const ConstantWeight w(10);
  // Value 1 present days 0-9, value 2 present days 5-9.
  const auto h = MakeHistory(domain, {{0, ValueSet{1}}, {5, ValueSet{1, 2}}});
  const ValueSet r = ComputeRequiredValues(h, w, 0.0);
  EXPECT_EQ(r, (ValueSet{1, 2}));
}

TEST(RequiredValuesTest, ShortLivedValuesNotRequired) {
  const TimeDomain domain(100);
  const ConstantWeight w(100);
  // Value 2 present only for days 50..52 (3 days of weight).
  const auto h = MakeHistory(
      domain, {{0, ValueSet{1}}, {50, ValueSet{1, 2}}, {53, ValueSet{1}}});
  EXPECT_EQ(ComputeRequiredValues(h, w, 3.0), (ValueSet{1}));
  EXPECT_EQ(ComputeRequiredValues(h, w, 2.9), (ValueSet{1, 2}));
}

TEST(RequiredValuesTest, ThresholdIsStrict) {
  const TimeDomain domain(10);
  const ConstantWeight w(10);
  // Value 7 present exactly 3 days (5,6,7).
  const auto h = MakeHistory(
      domain, {{0, ValueSet{1}}, {5, ValueSet{1, 7}}, {8, ValueSet{1}}});
  // w_v == 3 is NOT > 3, so not required at eps = 3.
  const ValueSet r3 = ComputeRequiredValues(h, w, 3.0);
  EXPECT_FALSE(r3.Contains(7));
  EXPECT_TRUE(r3.Contains(1));
}

TEST(RequiredValuesTest, NonContiguousOccurrencesAccumulate) {
  const TimeDomain domain(20);
  const ConstantWeight w(20);
  // Value 9: days 2-3 (2 days) and days 10-12 (3 days) -> 5 total.
  const auto h = MakeHistory(domain, {{0, ValueSet{1}},
                                      {2, ValueSet{1, 9}},
                                      {4, ValueSet{1}},
                                      {10, ValueSet{1, 9}},
                                      {13, ValueSet{1}}});
  EXPECT_TRUE(ComputeRequiredValues(h, w, 4.9).Contains(9));
  EXPECT_FALSE(ComputeRequiredValues(h, w, 5.0).Contains(9));
}

TEST(RequiredValuesTest, HugeEpsilonRequiresNothing) {
  const TimeDomain domain(10);
  const ConstantWeight w(10);
  const auto h = MakeHistory(domain, {{0, ValueSet{1, 2, 3}}});
  EXPECT_TRUE(ComputeRequiredValues(h, w, 1000).empty());
}

TEST(RequiredValuesTest, DecayWeightDiscountsOldValues) {
  const int64_t n = 1000;
  const TimeDomain domain(n);
  const ExponentialDecayWeight w(n, 0.99);
  // Value 5: present days 0..99 only (ancient). Value 6: days 900..999.
  const auto h = MakeHistory(
      domain,
      {{0, ValueSet{1, 5}}, {100, ValueSet{1}}, {900, ValueSet{1, 6}}});
  const double old_weight = w.Sum(Interval{0, 99});
  const double recent_weight = w.Sum(Interval{900, 999});
  ASSERT_LT(old_weight, 0.01);
  ASSERT_GT(recent_weight, 50.0);
  const ValueSet r = ComputeRequiredValues(h, w, 1.0);
  EXPECT_FALSE(r.Contains(5));  // Ancient presence below budget.
  EXPECT_TRUE(r.Contains(6));
  EXPECT_TRUE(r.Contains(1));
}

TEST(RequiredValuesTest, LateBirthShortensOccupancy) {
  const TimeDomain domain(100);
  const ConstantWeight w(100);
  const auto h = MakeHistory(domain, {{98, ValueSet{4}}});
  // Only 2 days of existence: required iff eps < 2.
  EXPECT_TRUE(ComputeRequiredValues(h, w, 1.9).Contains(4));
  EXPECT_FALSE(ComputeRequiredValues(h, w, 2.0).Contains(4));
}

TEST(RequiredValuesTest, RequiredValuesAreSubsetOfAllValues) {
  Rng rng(5);
  const TimeDomain domain(200);
  const ConstantWeight w(200);
  for (int trial = 0; trial < 30; ++trial) {
    const auto h = testutil::RandomHistory(domain, &rng, 40);
    const ValueSet r = ComputeRequiredValues(h, w, 10.0);
    EXPECT_TRUE(r.IsSubsetOf(h.AllValues()));
  }
}

TEST(RequiredValuesTest, MonotoneInEpsilon) {
  Rng rng(6);
  const TimeDomain domain(150);
  const ConstantWeight w(150);
  for (int trial = 0; trial < 20; ++trial) {
    const auto h = testutil::RandomHistory(domain, &rng, 30);
    const ValueSet r_small = ComputeRequiredValues(h, w, 2.0);
    const ValueSet r_large = ComputeRequiredValues(h, w, 20.0);
    EXPECT_TRUE(r_large.IsSubsetOf(r_small));
  }
}

}  // namespace
}  // namespace tind
