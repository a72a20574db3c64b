#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "temporal/weights.h"
#include "tind/index.h"
#include "tind/progressive.h"
#include "wiki/generator.h"

/// \file stage_order_differential_test.cc
/// Differential proof that the stage order is a plan choice and never an
/// answer change: the default recheck-first order (with its slice cost
/// rule) and Algorithm 1's order return identical result lists, forward and
/// reverse, single, batched and cursor-stepped, over an (ε, δ, w) grid that
/// includes ε above the build ε, δ above the build δ, and a weight other
/// than the build weight. Both prunes are sound and commute — a candidate's slice
/// violations depend on that candidate alone — so wherever the default
/// order also ran its slices, it validates exactly the candidates the paper
/// order validates.

namespace tind {
namespace {

/// Catch-alls over nearly the whole shared vocabulary: many queries keep
/// more than kSkipSlicesMax of them through the recheck, so the cost rule
/// runs the slices for some queries and skips them for others.
wiki::GeneratedDataset MakeCorpus(uint64_t seed) {
  wiki::GeneratorOptions gen;
  gen.seed = seed;
  gen.num_days = 200;
  gen.num_families = 4;
  gen.num_noise_attributes = 24;
  gen.num_drifter_attributes = 8;
  gen.num_catchall_attributes = 14;
  gen.catchall_coverage_min = 0.9;
  gen.catchall_coverage_max = 1.0;
  gen.shared_vocabulary = 120;
  gen.entities_per_family_pool = 60;
  auto generated = wiki::WikiGenerator(gen).GenerateDataset();
  if (!generated.ok()) std::abort();
  return std::move(*generated);
}

struct GridPoint {
  double epsilon;
  int64_t delta;
  bool decay_weight;
};

/// Build ε = 3, build δ = 7, build weight constant.
constexpr GridPoint kGrid[] = {
    {0.0, 0, false},   // Strict.
    {3.0, 7, false},   // The build parameters.
    {5.0, 7, false},   // ε above the build ε: M_R and its recheck unusable.
    {3.0, 12, false},  // δ above the build δ: slices unusable.
    {2.0, 3, true},    // Another weight: no build-time min-weight table.
    {6.0, 10, true},   // Everything above build, another weight.
};

/// Runs `queries` through one SearchCursor in Algorithm 1's order.
void RunPaperOrder(const TindIndex& index,
                   const std::vector<const AttributeHistory*>& queries,
                   const TindParams& params, bool forward,
                   std::vector<std::vector<AttributeId>>* results,
                   std::vector<QueryStats>* stats) {
  std::vector<SearchCursor::Member> members;
  for (const AttributeHistory* query : queries) members.push_back({query});
  SearchCursor::Options options;
  options.reverse = !forward;
  options.plan = QueryPlan::kPaperOrder;
  SearchCursor cursor(index, members, params, options);
  while (!cursor.done()) cursor.Step();
  for (size_t q = 0; q < queries.size(); ++q) {
    results->push_back(cursor.results(q));
    stats->push_back(cursor.stats(q));
  }
}

/// The funnel narrows in the order the plan ran the stages.
void ExpectMonotone(const QueryStats& s, const std::string& context) {
  const bool paper = s.plan == QueryPlan::kPaperOrder;
  const size_t second = paper ? s.after_slices : s.after_exact_check;
  const size_t third = paper ? s.after_exact_check : s.after_slices;
  EXPECT_GE(s.initial_candidates, second) << context;
  EXPECT_GE(second, third) << context;
  EXPECT_GE(third, s.num_results) << context;
}

class StageOrderDifferentialTest : public ::testing::TestWithParam<uint64_t> {
};

TEST_P(StageOrderDifferentialTest, BothOrdersGiveIdenticalResults) {
  const uint64_t seed = GetParam();
  const wiki::GeneratedDataset corpus = MakeCorpus(seed);
  const Dataset& dataset = corpus.dataset;
  ASSERT_GE(dataset.size(), 16u);
  const int64_t n_days = dataset.domain().num_timestamps();
  const ConstantWeight const_w(n_days);
  const ExponentialDecayWeight decay_w(n_days, 0.98);

  TindIndexOptions opts;
  opts.bloom_bits = 128;
  opts.num_hashes = 2;
  opts.num_slices = 6;
  opts.delta = 7;
  opts.epsilon = 3.0;
  opts.build_reverse_index = true;
  opts.reverse_slices = 2;
  opts.weight = &const_w;
  opts.seed = seed + 5;
  auto built = TindIndex::Build(dataset, opts);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  const TindIndex& index = **built;

  std::vector<const AttributeHistory*> queries;
  for (size_t q = 0; q < dataset.size(); ++q) {
    queries.push_back(&dataset.attribute(static_cast<AttributeId>(q)));
  }
  size_t slices_ran = 0;
  size_t slices_skipped = 0;
  for (const GridPoint& point : kGrid) {
    const WeightFunction* w =
        point.decay_weight ? static_cast<const WeightFunction*>(&decay_w)
                           : &const_w;
    const TindParams params{point.epsilon, point.delta, w};
    for (const bool forward : {true, false}) {
      std::vector<QueryStats> fresh, paper;
      const auto batch_fresh =
          forward ? index.BatchSearch(queries, params, &fresh)
                  : index.BatchReverseSearch(queries, params, &fresh);
      std::vector<std::vector<AttributeId>> batch_paper;
      RunPaperOrder(index, queries, params, forward, &batch_paper, &paper);
      for (size_t q = 0; q < queries.size(); ++q) {
        const std::string context =
            "seed=" + std::to_string(seed) +
            " eps=" + std::to_string(point.epsilon) +
            " delta=" + std::to_string(point.delta) +
            (point.decay_weight ? " decay" : " const") +
            (forward ? " forward" : " reverse") + " q=" + std::to_string(q);
        EXPECT_EQ(batch_fresh[q], batch_paper[q]) << context;
        EXPECT_EQ(fresh[q].plan, QueryPlan::kRecheckFirst) << context;
        EXPECT_EQ(paper[q].plan, QueryPlan::kPaperOrder) << context;
        ExpectMonotone(fresh[q], context);
        ExpectMonotone(paper[q], context);
        EXPECT_EQ(fresh[q].initial_candidates, paper[q].initial_candidates)
            << context;
        EXPECT_FALSE(paper[q].plan_skipped_slices) << context;
        if (point.delta > opts.delta) {
          EXPECT_FALSE(fresh[q].used_slices) << context;
          EXPECT_FALSE(fresh[q].plan_skipped_slices) << context;
        }
        // Where both orders ran both prunes, the same candidates reach
        // validation.
        if (fresh[q].used_slices) {
          EXPECT_EQ(fresh[q].after_slices, paper[q].after_exact_check)
              << context;
          EXPECT_EQ(fresh[q].validations, paper[q].validations) << context;
          ++slices_ran;
        }
        if (fresh[q].plan_skipped_slices) ++slices_skipped;

        // The single-query calls agree with their batched twins.
        QueryStats single;
        const std::vector<AttributeId> one =
            forward ? index.Search(*queries[q], params, &single)
                    : index.ReverseSearch(*queries[q], params, &single);
        EXPECT_EQ(one, batch_fresh[q]) << context;
        EXPECT_EQ(single.after_exact_check, fresh[q].after_exact_check)
            << context;
        EXPECT_EQ(single.after_slices, fresh[q].after_slices) << context;
        EXPECT_EQ(single.plan_skipped_slices, fresh[q].plan_skipped_slices)
            << context;
      }
    }
  }
  // The corpus must exercise both sides of the cost rule, or the
  // comparison above proves little.
  EXPECT_GT(slices_ran, 0u);
  EXPECT_GT(slices_skipped, 0u);
}

INSTANTIATE_TEST_SUITE_P(Corpora, StageOrderDifferentialTest,
                         ::testing::Range<uint64_t>(300, 304));

}  // namespace
}  // namespace tind
