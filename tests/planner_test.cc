#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "temporal/weights.h"
#include "tind/index.h"
#include "tind/planner.h"
#include "wiki/generator.h"

/// \file planner_test.cc
/// Unit tests for the fixed-rule planner: an over-δ query must get the
/// default plan, candidate sets of at most 8 must skip the slice stage (and
/// 9 must not), and a query with no version inside any slice must skip it
/// too.

namespace tind {
namespace {

wiki::GeneratedDataset MakeCorpus(uint64_t seed) {
  wiki::GeneratorOptions gen;
  gen.seed = seed;
  gen.num_days = 150;
  gen.num_families = 2;
  gen.num_noise_attributes = 12;
  gen.num_drifter_attributes = 4;
  gen.num_catchall_attributes = 2;
  gen.shared_vocabulary = 100;
  gen.entities_per_family_pool = 60;
  auto generated = wiki::WikiGenerator(gen).GenerateDataset();
  if (!generated.ok()) std::abort();
  return std::move(*generated);
}

class PlannerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    corpus_ = std::make_unique<wiki::GeneratedDataset>(MakeCorpus(17));
    const int64_t n_days = corpus_->dataset.domain().num_timestamps();
    weight_ = std::make_unique<ConstantWeight>(n_days);
    TindIndexOptions opts;
    opts.bloom_bits = 512;
    opts.num_hashes = 2;
    opts.num_slices = 6;
    opts.delta = 7;
    opts.epsilon = 3.0;
    opts.weight = weight_.get();
    auto built = TindIndex::Build(corpus_->dataset, opts);
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    index_ = std::move(*built);
    // Pick a query with versions inside the indexed slices, so the
    // zero-probe rule does not mask the rule under test. Above 8 candidates
    // the planner skips slices only when the probe count is zero.
    const CostModelPlanner sentinel(*index_);
    const TindParams params{3.0, 7, weight_.get()};
    for (size_t q = 0; q < corpus_->dataset.size(); ++q) {
      const AttributeHistory& candidate =
          corpus_->dataset.attribute(static_cast<AttributeId>(q));
      if (!sentinel.Plan(candidate, params, 1000).skip_slices) {
        query_ = &candidate;
        break;
      }
    }
    ASSERT_NE(query_, nullptr) << "no attribute intersects any slice";
  }

  std::unique_ptr<wiki::GeneratedDataset> corpus_;
  std::unique_ptr<ConstantWeight> weight_;
  std::unique_ptr<TindIndex> index_;
  const AttributeHistory* query_ = nullptr;
};

TEST_F(PlannerTest, OverDeltaQueriesGetTheDefaultPlan) {
  const CostModelPlanner planner(*index_);
  const TindParams params{3.0, /*delta=*/100, weight_.get()};
  const QueryPlan plan = planner.Plan(*query_, params, 1000);
  EXPECT_FALSE(plan.skip_slices);
}

TEST_F(PlannerTest, TinyCandidateSetsSkipTheSliceStage) {
  const CostModelPlanner planner(*index_);
  const TindParams params{3.0, 7, weight_.get()};

  const QueryPlan tiny = planner.Plan(*query_, params, 8);
  EXPECT_TRUE(tiny.skip_slices);  // The exact recheck still runs.

  const QueryPlan boundary = planner.Plan(*query_, params, 9);
  EXPECT_FALSE(boundary.skip_slices);  // query_ has slice probes.
}

TEST_F(PlannerTest, ZeroSliceProbesSkipsTheSliceStage) {
  // An empty history has no versions inside any slice: the stage would
  // issue zero probes, so the planner skips it however many candidates.
  const CostModelPlanner planner(*index_);
  const AttributeHistory empty;  // No versions anywhere, slices included.
  const TindParams params{3.0, 7, weight_.get()};
  const QueryPlan plan = planner.Plan(empty, params, 1000);
  EXPECT_TRUE(plan.skip_slices);
}

}  // namespace
}  // namespace tind
