#include <gtest/gtest.h>

#include <memory>
#include <tuple>

#include "test_util.h"
#include "tind/validator.h"

namespace tind {
namespace {

/// The central correctness property: Algorithm 2 (sliding-window interval
/// sweep) must agree exactly with the per-timestamp naive oracle on random
/// history pairs, for every (ε, δ, w) combination.
class ValidatorEquivalenceTest
    : public ::testing::TestWithParam<std::tuple<int, int64_t, double, int>> {};

TEST_P(ValidatorEquivalenceTest, SweepMatchesNaiveOracle) {
  const auto [seed, delta, eps, weight_kind] = GetParam();
  Rng rng(static_cast<uint64_t>(seed) * 7919 + 13);
  const int64_t n = 60;
  const TimeDomain domain(n);
  std::unique_ptr<WeightFunction> weight;
  switch (weight_kind) {
    case 0:
      weight = std::make_unique<ConstantWeight>(n);
      break;
    case 1:
      weight = std::make_unique<ExponentialDecayWeight>(n, 0.93);
      break;
    default:
      weight = std::make_unique<LinearDecayWeight>(n);
  }
  for (int trial = 0; trial < 40; ++trial) {
    const auto q = testutil::RandomHistory(domain, &rng, 12, 0);
    const auto a = testutil::RandomHistory(domain, &rng, 12, 1);
    const TindParams params{eps, delta, weight.get()};
    const bool fast = ValidateTind(q, a, params, domain);
    const bool naive = ValidateTindNaive(q, a, params, domain);
    ASSERT_EQ(fast, naive)
        << "seed=" << seed << " trial=" << trial << " delta=" << delta
        << " eps=" << eps << " w=" << weight->ToString();
    const double v_fast = ComputeViolationWeight(q, a, delta, *weight, domain);
    const double v_naive =
        ComputeViolationWeightNaive(q, a, delta, *weight, domain);
    ASSERT_NEAR(v_fast, v_naive, 1e-7)
        << "seed=" << seed << " trial=" << trial << " delta=" << delta;
  }
}

INSTANTIATE_TEST_SUITE_P(
    RandomPairs, ValidatorEquivalenceTest,
    ::testing::Combine(::testing::Values(1, 2, 3),
                       ::testing::Values<int64_t>(0, 1, 3, 7, 25),
                       ::testing::Values(0.0, 1.0, 4.0),
                       ::testing::Values(0, 1, 2)));

TEST(ValidatorMonotonicityTest, ViolationWeightNonIncreasingInDelta) {
  Rng rng(71);
  const TimeDomain domain(80);
  const ConstantWeight w(80);
  for (int trial = 0; trial < 60; ++trial) {
    const auto q = testutil::RandomHistory(domain, &rng, 15, 0);
    const auto a = testutil::RandomHistory(domain, &rng, 15, 1);
    double prev = ComputeViolationWeight(q, a, 0, w, domain);
    for (const int64_t delta : {1, 2, 4, 8, 16, 40}) {
      const double cur = ComputeViolationWeight(q, a, delta, w, domain);
      ASSERT_LE(cur, prev + 1e-9) << "trial " << trial << " delta " << delta;
      prev = cur;
    }
  }
}

TEST(ValidatorMonotonicityTest, ValidityMonotoneInEpsilon) {
  Rng rng(72);
  const TimeDomain domain(70);
  const ConstantWeight w(70);
  for (int trial = 0; trial < 60; ++trial) {
    const auto q = testutil::RandomHistory(domain, &rng, 10, 0);
    const auto a = testutil::RandomHistory(domain, &rng, 10, 1);
    bool prev_valid = false;
    for (const double eps : {0.0, 1.0, 2.0, 5.0, 10.0, 70.0}) {
      const TindParams p{eps, 2, &w};
      const bool valid = ValidateTind(q, a, p, domain);
      // Once valid at a smaller eps, must stay valid at larger eps.
      if (prev_valid) {
        ASSERT_TRUE(valid) << "trial " << trial << " eps " << eps;
      }
      prev_valid = valid;
    }
    // At eps = total weight, everything is valid.
    const TindParams all{w.Total(), 0, &w};
    ASSERT_TRUE(ValidateTind(q, a, all, domain));
  }
}

TEST(ValidatorReflexivityTest, EveryHistoryIncludesItself) {
  // Reflexivity holds for all relaxed tIND variants (Section 3.4).
  Rng rng(73);
  const TimeDomain domain(50);
  const ConstantWeight w(50);
  for (int trial = 0; trial < 50; ++trial) {
    const auto q = testutil::RandomHistory(domain, &rng, 20, 0);
    for (const int64_t delta : {0, 3}) {
      const TindParams p{0.0, delta, &w};
      ASSERT_TRUE(ValidateTind(q, q, p, domain)) << "trial " << trial;
    }
  }
}

TEST(ValidatorSubsetTest, TrueSubsetHistoriesAlwaysValid) {
  // If at every timestamp Q[t] ⊆ A[t] by construction, the strict tIND must
  // hold for any delta and any weight.
  Rng rng(74);
  const TimeDomain domain(60);
  const ConstantWeight w(60);
  for (int trial = 0; trial < 40; ++trial) {
    const auto a = testutil::RandomHistory(domain, &rng, 15, 1, 10, 8);
    // Derive Q from A's own versions, dropping random values, with changes
    // exactly at A's change points.
    AttributeHistoryBuilder qb(0, {}, domain);
    for (size_t v = 0; v < a.num_versions(); ++v) {
      std::vector<ValueId> kept;
      for (const ValueId val : a.versions()[v].values()) {
        if (rng.Bernoulli(0.6)) kept.push_back(val);
      }
      (void)qb.AddVersion(a.change_timestamps()[v],
                          ValueSet::FromUnsorted(std::move(kept)));
    }
    if (qb.num_versions() == 0) continue;
    auto q = qb.Finish();
    ASSERT_TRUE(q.ok());
    // Q is born when A is born and is a per-timestamp subset afterwards —
    // except Q may be born *later* than A if leading versions were empty;
    // both cases keep Q[t] ⊆ A[t] for all t.
    const TindParams p{0.0, 0, &w};
    ASSERT_TRUE(ValidateTind(*q, a, p, domain)) << "trial " << trial;
  }
}

/// A candidate history built around Q's value universe `u`, so both of the
/// window's lopsided intersection branches run: each version is huge (most
/// of u plus over 8|u| values Q never holds), tiny (under |u|/8 values of
/// u), empty, or a plain random subset of u.
AttributeHistory LopsidedCandidate(const TimeDomain& domain, Rng* rng,
                                   const ValueSet& u, AttributeId id) {
  const int64_t n = domain.num_timestamps();
  std::vector<Timestamp> ts;
  for (size_t i = 0, k = 1 + rng->Uniform(6); i < k; ++i) {
    ts.push_back(static_cast<Timestamp>(rng->Uniform(n)));
  }
  std::sort(ts.begin(), ts.end());
  ts.erase(std::unique(ts.begin(), ts.end()), ts.end());
  AttributeHistoryBuilder b(id, {}, domain);
  for (const Timestamp t : ts) {
    std::vector<ValueId> vals;
    switch (rng->Uniform(4)) {
      case 0:  // Huge: a catch-all holding most of u.
        for (const ValueId v : u.values()) {
          if (rng->Bernoulli(0.9)) vals.push_back(v);
        }
        for (size_t k = 0; k < 9 * u.size(); ++k) {
          vals.push_back(static_cast<ValueId>(100000 + k));
        }
        break;
      case 1:  // Tiny: fewer than |u| / 8 values of u.
        for (size_t k = 0, c = rng->Uniform(u.size() / 8); k < c; ++k) {
          vals.push_back(u.values()[rng->Uniform(u.size())]);
        }
        break;
      case 2:  // Empty.
        break;
      default:  // Comparable to u.
        for (const ValueId v : u.values()) {
          if (rng->Bernoulli(0.7)) vals.push_back(v);
        }
        vals.push_back(static_cast<ValueId>(100000 + rng->Uniform(50)));
    }
    (void)b.AddVersion(t, ValueSet::FromUnsorted(std::move(vals)));
  }
  if (b.num_versions() == 0) (void)b.AddVersion(0, u);
  auto result = b.Finish();
  if (!result.ok()) std::abort();
  return std::move(result).ValueOrDie();
}

/// One PreparedQuery serves many candidates: its verdicts must equal a
/// fresh per-candidate ValidateTind and the naive oracle over the whole
/// (ε, δ, w) grid, including candidates whose versions are far larger or
/// far smaller than Q's universe, or empty.
TEST(ValidatorPreparedQueryTest, ReuseAcrossCandidatesMatchesOracle) {
  const int64_t n = 60;
  const TimeDomain domain(n);
  const ConstantWeight constant(n);
  const ExponentialDecayWeight decay(n, 0.93);
  const LinearDecayWeight linear(n);
  const WeightFunction* weights[] = {&constant, &decay, &linear};
  for (const int seed : {1, 2, 3}) {
    Rng rng(static_cast<uint64_t>(seed) * 104729 + 7);
    AttributeHistory q = testutil::RandomHistory(domain, &rng, 80, 0, 8, 30);
    while (q.AllValues().size() < 24) {
      q = testutil::RandomHistory(domain, &rng, 80, 0, 8, 30);
    }
    const size_t u = q.AllValues().size();
    const PreparedQuery prepared(q);
    size_t huge = 0, tiny = 0, empty = 0, accepted = 0, rejected = 0;
    for (int trial = 0; trial < 60; ++trial) {
      const AttributeHistory a = LopsidedCandidate(
          domain, &rng, q.AllValues(), static_cast<AttributeId>(trial + 1));
      for (const ValueSet& v : a.versions()) {
        if (v.empty()) {
          ++empty;
        } else if (u * 8 < v.size()) {
          ++huge;
        } else if (v.size() * 8 < u) {
          ++tiny;
        }
      }
      for (const WeightFunction* w : weights) {
        for (const int64_t delta : {0, 1, 3, 7, 25}) {
          for (const double eps : {0.0, 1.0, 4.0}) {
            const TindParams params{eps, delta, w};
            const bool reused = ValidateTind(prepared, a, params, domain);
            ++(reused ? accepted : rejected);
            ASSERT_EQ(reused, ValidateTind(q, a, params, domain))
                << "seed=" << seed << " trial=" << trial << " delta=" << delta
                << " eps=" << eps << " w=" << w->ToString();
            ASSERT_EQ(reused, ValidateTindNaive(q, a, params, domain))
                << "seed=" << seed << " trial=" << trial << " delta=" << delta
                << " eps=" << eps << " w=" << w->ToString();
          }
          ASSERT_NEAR(ComputeViolationWeight(q, a, delta, *w, domain),
                      ComputeViolationWeightNaive(q, a, delta, *w, domain),
                      1e-7)
              << "seed=" << seed << " trial=" << trial << " delta=" << delta;
        }
      }
    }
    // Every shape of candidate version, and both verdicts, occurred.
    EXPECT_GT(huge, 0u) << "seed=" << seed;
    EXPECT_GT(tiny, 0u) << "seed=" << seed;
    EXPECT_GT(empty, 0u) << "seed=" << seed;
    EXPECT_GT(accepted, 0u) << "seed=" << seed;
    EXPECT_GT(rejected, 0u) << "seed=" << seed;
  }
}

}  // namespace
}  // namespace tind
