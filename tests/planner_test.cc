#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "obs/metrics.h"
#include "temporal/weights.h"
#include "tind/index.h"
#include "wiki/generator.h"

/// \file planner_test.cc
/// Unit tests for the slice stage's cost rule (SlicesPayOff): recheck
/// survivor counts of at most kSkipSlicesMax skip the slices (and one more
/// does not), a query with no version inside any slice skips them too, an
/// over-δ query never reaches the rule, the paper order never consults it,
/// and each decision is counted in planner/{full,skip_slices}.

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
    // zero-probe rule does not mask the rule under test. Above
    // kSkipSlicesMax survivors the rule skips slices only when the probe
    // count is zero.
    for (size_t q = 0; q < corpus_->dataset.size(); ++q) {
      const AttributeHistory& candidate =
          corpus_->dataset.attribute(static_cast<AttributeId>(q));
      if (SlicesPayOff(index_->slice_intervals(), candidate, 1000)) {
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

TEST_F(PlannerTest, OverDeltaQueriesNeverRunSlices) {
  // Above the build δ the slices are unsound: they do not run, and that is
  // not the cost rule's skip.
  const TindParams params{3.0, /*delta=*/100, weight_.get()};
  QueryStats stats;
  (void)index_->Search(*query_, params, &stats);
  EXPECT_FALSE(stats.used_slices);
  EXPECT_FALSE(stats.plan_skipped_slices);
}

TEST_F(PlannerTest, TinyCandidateSetsSkipTheSliceStage) {
  const std::vector<Interval>& slices = index_->slice_intervals();
  // The exact recheck has already run when the rule is consulted.
  EXPECT_FALSE(SlicesPayOff(slices, *query_, kSkipSlicesMax));
  EXPECT_FALSE(SlicesPayOff(slices, *query_, 0));
  // query_ has slice probes.
  EXPECT_TRUE(SlicesPayOff(slices, *query_, kSkipSlicesMax + 1));
}

TEST_F(PlannerTest, ZeroSliceProbesSkipsTheSliceStage) {
  // An empty history has no versions inside any slice: the stage would
  // issue zero probes, so the rule skips it however many candidates.
  const AttributeHistory empty;  // No versions anywhere, slices included.
  EXPECT_FALSE(SlicesPayOff(index_->slice_intervals(), empty, 1000));
}

TEST_F(PlannerTest, SearchFollowsTheRuleOnRecheckSurvivors) {
  // Every query of the default order consults the rule on its recheck
  // survivors; the paper order probes every usable slice.
  const TindParams params{3.0, 7, weight_.get()};
  for (size_t q = 0; q < corpus_->dataset.size(); ++q) {
    const AttributeHistory& query =
        corpus_->dataset.attribute(static_cast<AttributeId>(q));
    QueryStats stats;
    (void)index_->Search(query, params, &stats);
    EXPECT_EQ(stats.plan, QueryPlan::kRecheckFirst);
    EXPECT_EQ(stats.plan_skipped_slices,
              !SlicesPayOff(index_->slice_intervals(), query,
                            stats.after_exact_check))
        << "q=" << q;
    EXPECT_EQ(stats.used_slices, !stats.plan_skipped_slices) << "q=" << q;

    QueryStats paper;
    (void)index_->Search(query, params, QueryPlan::kPaperOrder, &paper);
    EXPECT_EQ(paper.plan, QueryPlan::kPaperOrder);
    EXPECT_TRUE(paper.used_slices) << "q=" << q;
    EXPECT_FALSE(paper.plan_skipped_slices) << "q=" << q;
  }
}

TEST_F(PlannerTest, DecisionsAreCounted) {
#if TIND_OBS_DISABLED
  GTEST_SKIP() << "decision counting requires TIND_ENABLE_METRICS=ON";
#else
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  const bool was_enabled = registry.enabled();
  registry.set_enabled(true);
  obs::Counter* full = registry.GetCounter("planner/full");
  obs::Counter* skip = registry.GetCounter("planner/skip_slices");
  const uint64_t full_before = full->value();
  const uint64_t skip_before = skip->value();
  (void)SlicesPayOff(index_->slice_intervals(), *query_, kSkipSlicesMax);
  (void)SlicesPayOff(index_->slice_intervals(), *query_, kSkipSlicesMax + 1);
  (void)SlicesPayOff(index_->slice_intervals(), *query_, kSkipSlicesMax + 2);
  EXPECT_EQ(skip->value() - skip_before, 1u);
  EXPECT_EQ(full->value() - full_before, 2u);
  registry.set_enabled(was_enabled);
#endif
}

}  // namespace
}  // namespace tind
