#include "tind/index.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "test_util.h"
#include "tind/validator.h"

namespace tind {
namespace {

using testutil::MakeDataset;
using testutil::MakeHistory;

/// Small deterministic dataset with known containments:
///  0: Q  = {1} then {1,2}            (child)
///  1: A  = {1,2,3} always            (contains 0 strictly)
///  2: B  = {1,2} from day 5          (contains 0 from day 5 only)
///  3: C  = {9} always                (unrelated)
///  4: D  = {1,2,3,4} with a gap      (temporarily loses value 2)
Dataset SmallDataset() {
  return MakeDataset(
      100, {
               {{0, ValueSet{1}}, {50, ValueSet{1, 2}}},
               {{0, ValueSet{1, 2, 3}}},
               {{5, ValueSet{1, 2}}},
               {{0, ValueSet{9}}},
               {{0, ValueSet{1, 2, 3, 4}},
                {60, ValueSet{1, 3, 4}},
                {63, ValueSet{1, 2, 3, 4}}},
           });
}

TindIndexOptions SmallOptions(const WeightFunction* w) {
  TindIndexOptions opts;
  opts.bloom_bits = 256;
  opts.num_hashes = 2;
  opts.num_slices = 4;
  opts.delta = 3;
  opts.epsilon = 5.0;
  opts.weight = w;
  opts.seed = 11;
  return opts;
}

TEST(TindIndexBuildTest, RejectsBadOptions) {
  const Dataset dataset = SmallDataset();
  const ConstantWeight w(100);
  TindIndexOptions opts = SmallOptions(&w);
  opts.bloom_bits = 1000;  // Not a power of two.
  EXPECT_TRUE(TindIndex::Build(dataset, opts).status().IsInvalidArgument());
  opts = SmallOptions(&w);
  opts.weight = nullptr;
  EXPECT_TRUE(TindIndex::Build(dataset, opts).status().IsInvalidArgument());
  opts = SmallOptions(&w);
  opts.num_hashes = 0;
  EXPECT_TRUE(TindIndex::Build(dataset, opts).status().IsInvalidArgument());
  opts = SmallOptions(&w);
  opts.epsilon = -1;
  EXPECT_TRUE(TindIndex::Build(dataset, opts).status().IsInvalidArgument());
}

TEST(TindIndexBuildTest, BuildsSlices) {
  const Dataset dataset = SmallDataset();
  const ConstantWeight w(100);
  const auto index = TindIndex::Build(dataset, SmallOptions(&w));
  ASSERT_TRUE(index.ok());
  EXPECT_EQ((*index)->slice_intervals().size(), 4u);
  EXPECT_GT((*index)->MemoryUsageBytes(), 0u);
}

TEST(TindIndexBuildTest, MemoryBudgetEnforced) {
  const Dataset dataset = SmallDataset();
  const ConstantWeight w(100);
  MemoryBudget budget(64);  // Far too small for even one matrix.
  TindIndexOptions opts = SmallOptions(&w);
  opts.memory = &budget;
  EXPECT_TRUE(TindIndex::Build(dataset, opts).status().IsOutOfMemory());
}

class TindIndexSearchTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dataset_ = SmallDataset();
    weight_ = std::make_unique<ConstantWeight>(100);
    auto index = TindIndex::Build(dataset_, SmallOptions(weight_.get()));
    ASSERT_TRUE(index.ok());
    index_ = std::move(*index);
  }

  Dataset dataset_;
  std::unique_ptr<ConstantWeight> weight_;
  std::unique_ptr<TindIndex> index_;
};

TEST_F(TindIndexSearchTest, StrictSearchFindsTrueSuperset) {
  const TindParams params{0.0, 0, weight_.get()};
  const auto results = index_->Search(dataset_.attribute(0), params);
  // Only attribute 1 contains Q at every timestamp. D loses value 2 during
  // days 60..62, but Q holds {1,2} then — violation; B misses days 0..4.
  EXPECT_EQ(results, (std::vector<AttributeId>{1}));
}

TEST_F(TindIndexSearchTest, EpsilonRecoversLateBorn) {
  // B misses only days 0..4 (5 days): valid at eps >= 5.
  const TindParams params{5.0, 0, weight_.get()};
  const auto results = index_->Search(dataset_.attribute(0), params);
  EXPECT_TRUE(std::count(results.begin(), results.end(), 2));
  EXPECT_TRUE(std::count(results.begin(), results.end(), 1));
}

TEST_F(TindIndexSearchTest, DeltaRecoversGap) {
  // D's 3-day gap (60..62) is rescued by delta = 3.
  const TindParams strict{0.0, 0, weight_.get()};
  auto results = index_->Search(dataset_.attribute(0), strict);
  EXPECT_FALSE(std::count(results.begin(), results.end(), 4));
  const TindParams with_delta{0.0, 3, weight_.get()};
  results = index_->Search(dataset_.attribute(0), with_delta);
  EXPECT_TRUE(std::count(results.begin(), results.end(), 4));
}

TEST_F(TindIndexSearchTest, SelfExcluded) {
  const TindParams params{100.0, 3, weight_.get()};
  const auto results = index_->Search(dataset_.attribute(0), params);
  EXPECT_FALSE(std::count(results.begin(), results.end(), 0));
}

TEST_F(TindIndexSearchTest, ExternalQueryNotExcluded) {
  // A query built outside the dataset may equal an indexed attribute but is
  // not excluded (no identity match).
  const auto q = MakeHistory(dataset_.domain(), {{0, ValueSet{9}}}, 77);
  const TindParams params{0.0, 0, weight_.get()};
  const auto results = index_->Search(q, params);
  EXPECT_TRUE(std::count(results.begin(), results.end(), 3));
}

TEST_F(TindIndexSearchTest, StatsPopulated) {
  QueryStats stats;  // Algorithm 1's order: probe → slices → recheck.
  const TindParams params{0.0, 0, weight_.get()};
  const auto results = index_->Search(dataset_.attribute(0), params,
                                      QueryPlan::kPaperOrder, &stats);
  EXPECT_TRUE(stats.used_prefilter);
  EXPECT_TRUE(stats.used_slices);
  EXPECT_EQ(stats.num_results, results.size());
  EXPECT_GE(stats.initial_candidates, stats.after_slices);
  EXPECT_GE(stats.after_slices, stats.after_exact_check);
  EXPECT_GE(stats.after_exact_check, stats.num_results);
  EXPECT_GT(stats.elapsed_ms, 0.0);
}

TEST_F(TindIndexSearchTest, QueryDeltaAboveBuildDeltaSkipsSlices) {
  QueryStats stats;
  const TindParams params{0.0, 10, weight_.get()};  // Build delta is 3.
  (void)index_->Search(dataset_.attribute(0), params, &stats);
  EXPECT_FALSE(stats.used_slices);
  // Results must still be exact.
  const auto results = index_->Search(dataset_.attribute(0), params);
  for (AttributeId id = 1; id < dataset_.size(); ++id) {
    const bool expected =
        ValidateTind(dataset_.attribute(0), dataset_.attribute(id), params,
                     dataset_.domain());
    EXPECT_EQ(static_cast<bool>(std::count(results.begin(), results.end(), id)),
              expected)
        << "id " << id;
  }
}

TEST_F(TindIndexSearchTest, ParallelValidationMatchesSerial) {
  ThreadPool pool(4);
  const TindParams params{5.0, 3, weight_.get()};
  const auto serial = index_->Search(dataset_.attribute(0), params);
  const auto parallel =
      index_->Search(dataset_.attribute(0), params, nullptr, &pool);
  EXPECT_EQ(serial, parallel);
}

TEST_F(TindIndexSearchTest, ReverseSearchFindsSubsets) {
  // Reverse of attribute 1 ({1,2,3} always): who is contained in it?
  // Q (={1},{1,2}) strictly; B from birth-day-5 asymmetry is on Q's side
  // here: B={1,2} days 5.., empty before -> contained strictly.
  const TindParams params{0.0, 0, weight_.get()};
  const auto results = index_->ReverseSearch(dataset_.attribute(1), params);
  EXPECT_TRUE(std::count(results.begin(), results.end(), 0));
  EXPECT_TRUE(std::count(results.begin(), results.end(), 2));
  EXPECT_FALSE(std::count(results.begin(), results.end(), 3));
  EXPECT_FALSE(std::count(results.begin(), results.end(), 4));
}

TEST_F(TindIndexSearchTest, ReverseMatchesForwardGroundTruth) {
  // Cross-check: id in Reverse(Q) iff Q in Search(id) ... i.e. both equal
  // exact validation.
  for (const double eps : {0.0, 3.0, 10.0}) {
    for (const int64_t delta : {0, 2}) {
      const TindParams params{eps, delta, weight_.get()};
      for (AttributeId q = 0; q < dataset_.size(); ++q) {
        const auto reverse = index_->ReverseSearch(dataset_.attribute(q), params);
        for (AttributeId a = 0; a < dataset_.size(); ++a) {
          if (a == q) continue;
          const bool expected =
              ValidateTind(dataset_.attribute(a), dataset_.attribute(q), params,
                           dataset_.domain());
          EXPECT_EQ(static_cast<bool>(
                        std::count(reverse.begin(), reverse.end(), a)),
                    expected)
              << "eps=" << eps << " delta=" << delta << " q=" << q << " a=" << a;
        }
      }
    }
  }
}

TEST_F(TindIndexSearchTest, ReverseEpsilonAboveBuildSkipsPrefilter) {
  QueryStats stats;
  const TindParams params{50.0, 0, weight_.get()};  // Build eps is 5.
  (void)index_->ReverseSearch(dataset_.attribute(1), params, &stats);
  EXPECT_FALSE(stats.used_prefilter);
  // Still exact.
  const auto results = index_->ReverseSearch(dataset_.attribute(1), params);
  for (AttributeId a = 0; a < dataset_.size(); ++a) {
    if (a == 1) continue;
    const bool expected = ValidateTind(dataset_.attribute(a),
                                       dataset_.attribute(1), params,
                                       dataset_.domain());
    EXPECT_EQ(static_cast<bool>(std::count(results.begin(), results.end(), a)),
              expected);
  }
}

TEST(TindIndexNoReverseTest, ReverseWithoutIndexStillCorrect) {
  const Dataset dataset = SmallDataset();
  const ConstantWeight w(100);
  TindIndexOptions opts;
  opts.bloom_bits = 256;
  opts.num_hashes = 2;
  opts.num_slices = 2;
  opts.delta = 2;
  opts.epsilon = 3.0;
  opts.weight = &w;
  opts.build_reverse_index = false;
  const auto index = TindIndex::Build(dataset, opts);
  ASSERT_TRUE(index.ok());
  QueryStats stats;
  const TindParams params{0.0, 0, &w};
  const auto results =
      (*index)->ReverseSearch(dataset.attribute(1), params, &stats);
  EXPECT_FALSE(stats.used_prefilter);
  EXPECT_TRUE(std::count(results.begin(), results.end(), 0));
}

TEST(TindIndexEmptySlicesTest, ZeroSlicesStillExact) {
  const Dataset dataset = SmallDataset();
  const ConstantWeight w(100);
  TindIndexOptions opts;
  opts.bloom_bits = 256;
  opts.num_hashes = 2;
  opts.num_slices = 0;
  opts.delta = 3;
  opts.epsilon = 3.0;
  opts.weight = &w;
  const auto index = TindIndex::Build(dataset, opts);
  ASSERT_TRUE(index.ok());
  const TindParams params{0.0, 0, &w};
  const auto results = (*index)->Search(dataset.attribute(0), params);
  EXPECT_EQ(results, (std::vector<AttributeId>{1}));
}

}  // namespace
}  // namespace tind
