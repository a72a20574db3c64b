#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/simd.h"
#include "common/thread_pool.h"
#include "temporal/weights.h"
#include "tind/index.h"
#include "tind/progressive.h"
#include "wiki/generator.h"

/// \file progressive_differential_test.cc
/// Differential proof that staged execution is exact: a SearchCursor
/// stepped to completion must return the same attribute-id list — and the
/// same QueryStats funnel, including the slice cost rule's skip flag — as
/// the monolithic Search / ReverseSearch call with the same QueryPlan,
/// across the (ε, δ, w) grid, every available SIMD backend, and both stage
/// orders (recheck-first with its cost rule, and the paper's). The plan
/// overloads must in turn agree with the default plan on the final result
/// list: reordering or skipping a prune stage is sound, it can never change
/// the answer.

namespace tind {
namespace {

/// Everything of a QueryStats except the timing fields (elapsed_ms,
/// *_ms stage attributions) — wall time is the one thing staged execution
/// is allowed to report differently.
void ExpectSameFunnel(const QueryStats& got, const QueryStats& want,
                      const std::string& context) {
  EXPECT_EQ(got.plan, want.plan) << context;
  EXPECT_EQ(got.initial_candidates, want.initial_candidates) << context;
  EXPECT_EQ(got.after_slices, want.after_slices) << context;
  EXPECT_EQ(got.after_exact_check, want.after_exact_check) << context;
  EXPECT_EQ(got.num_results, want.num_results) << context;
  EXPECT_EQ(got.validations, want.validations) << context;
  EXPECT_EQ(got.used_slices, want.used_slices) << context;
  EXPECT_EQ(got.used_prefilter, want.used_prefilter) << context;
  EXPECT_EQ(got.cancelled, want.cancelled) << context;
  EXPECT_EQ(got.plan_skipped_slices, want.plan_skipped_slices) << context;
}

wiki::GeneratedDataset MakeCorpus(uint64_t seed) {
  wiki::GeneratorOptions gen;
  gen.seed = seed;
  gen.num_days = 150;
  gen.num_families = 3;
  gen.num_noise_attributes = 18;
  gen.num_drifter_attributes = 8;
  gen.num_catchall_attributes = 2;
  gen.shared_vocabulary = 120;
  gen.entities_per_family_pool = 80;
  auto generated = wiki::WikiGenerator(gen).GenerateDataset();
  if (!generated.ok()) std::abort();
  return std::move(*generated);
}

struct GridPoint {
  double epsilon;
  int64_t delta;
  bool decay_weight;
};

constexpr GridPoint kGrid[] = {
    {0.0, 0, false},   // Strict tIND.
    {3.0, 7, false},   // The paper's operating point (within build params).
    {6.0, 10, true},   // Exceeds build ε and δ: slices + M_R unusable.
};

/// The stage orders under test.
constexpr QueryPlan kPlans[] = {
    QueryPlan::kRecheckFirst,  // Default: recheck, then slices by cost rule.
    QueryPlan::kPaperOrder,    // Algorithm 1: every usable slice probed.
};

class ScopedBackend {
 public:
  explicit ScopedBackend(simd::Backend backend)
      : forced_(simd::ForceBackend(backend)) {}
  ~ScopedBackend() { simd::ClearForcedBackend(); }
  bool forced() const { return forced_; }

 private:
  bool forced_;
};

class ProgressiveDifferentialTest
    : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ProgressiveDifferentialTest, CursorMatchesMonolithicExactly) {
  const uint64_t seed = GetParam();
  const wiki::GeneratedDataset corpus = MakeCorpus(seed);
  const Dataset& dataset = corpus.dataset;
  ASSERT_GE(dataset.size(), 8u);
  const int64_t n_days = dataset.domain().num_timestamps();
  const ConstantWeight const_w(n_days);
  const ExponentialDecayWeight decay_w(n_days, 0.98);

  TindIndexOptions opts;
  opts.bloom_bits = 512;
  opts.num_hashes = 2;
  opts.num_slices = 6;
  opts.delta = 7;
  opts.epsilon = 3.0;
  opts.build_reverse_index = true;
  opts.reverse_slices = 2;
  opts.weight = &const_w;
  opts.seed = seed * 13 + 1;
  auto built = TindIndex::Build(dataset, opts);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  const TindIndex& index = **built;

  ThreadPool pool(3);
  const size_t n_attrs = dataset.size();

  for (const GridPoint& point : kGrid) {
    const WeightFunction* w =
        point.decay_weight ? static_cast<const WeightFunction*>(&decay_w)
                           : &const_w;
    const TindParams params{point.epsilon, point.delta, w};
    for (const bool forward : {true, false}) {
      for (size_t q = 0; q < n_attrs; ++q) {
        const AttributeHistory& query =
            dataset.attribute(static_cast<AttributeId>(q));

        // The default-plan monolithic answer is the ground truth every
        // plan's *result list* must reproduce (prune skips are sound).
        QueryStats default_stats;
        const std::vector<AttributeId> exact =
            forward ? index.Search(query, params, &default_stats)
                    : index.ReverseSearch(query, params, &default_stats);

        for (const QueryPlan& plan : kPlans) {
          const std::string context =
              "seed=" + std::to_string(seed) +
              " eps=" + std::to_string(point.epsilon) +
              " delta=" + std::to_string(point.delta) +
              (forward ? " forward" : " reverse") + " q=" +
              std::to_string(q) + " plan=" +
              std::to_string(static_cast<int>(plan));

          QueryStats mono_stats;
          const std::vector<AttributeId> mono =
              forward ? index.Search(query, params, plan, &mono_stats)
                      : index.ReverseSearch(query, params, plan,
                                            &mono_stats);
          EXPECT_EQ(mono, exact) << context << " (plan changed the answer)";

          SearchCursor::Options cursor_opts;
          cursor_opts.reverse = !forward;
          cursor_opts.plan = plan;
          SearchCursor cursor(index, query, params, cursor_opts);
          EXPECT_EQ(cursor.RunToCompletion(), exact) << context;
          EXPECT_TRUE(cursor.done()) << context;
          ExpectSameFunnel(cursor.stats(), mono_stats, context);

          // Pooled validation must not change anything either.
          SearchCursor::Options pooled_opts = cursor_opts;
          pooled_opts.pool = &pool;
          SearchCursor pooled(index, query, params, pooled_opts);
          EXPECT_EQ(pooled.RunToCompletion(), exact) << context << " pooled";
          ExpectSameFunnel(pooled.stats(), mono_stats, context + " pooled");
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Corpora, ProgressiveDifferentialTest,
                         ::testing::Range<uint64_t>(200, 208));

/// Every compiled-in SIMD backend must agree with the scalar reference on
/// the staged pipeline, plans included (the staged stage bodies share the
/// batch kernels' dispatch).
TEST(ProgressiveSimdDifferentialTest, BackendsMatchScalar) {
  const wiki::GeneratedDataset corpus = MakeCorpus(42);
  const Dataset& dataset = corpus.dataset;
  const int64_t n_days = dataset.domain().num_timestamps();
  const ConstantWeight w(n_days);
  TindIndexOptions opts;
  opts.bloom_bits = 512;
  opts.num_hashes = 2;
  opts.num_slices = 6;
  opts.delta = 7;
  opts.epsilon = 3.0;
  opts.build_reverse_index = true;
  opts.reverse_slices = 2;
  opts.weight = &w;
  auto built = TindIndex::Build(dataset, opts);
  ASSERT_TRUE(built.ok());
  const TindIndex& index = **built;
  const TindParams params{3.0, 7, &w};

  // Scalar reference: cursor results + funnels for each query × plan.
  struct Reference {
    std::vector<AttributeId> ids;
    QueryStats stats;
  };
  std::vector<Reference> reference;
  {
    ScopedBackend scalar(simd::Backend::kScalar);
    ASSERT_TRUE(scalar.forced());
    for (size_t q = 0; q < dataset.size(); ++q) {
      for (const QueryPlan& plan : kPlans) {
        for (const bool forward : {true, false}) {
          SearchCursor::Options cursor_opts;
          cursor_opts.reverse = !forward;
          cursor_opts.plan = plan;
          SearchCursor cursor(index,
                              dataset.attribute(static_cast<AttributeId>(q)),
                              params, cursor_opts);
          Reference ref;
          ref.ids = cursor.RunToCompletion();
          ref.stats = cursor.stats();
          reference.push_back(std::move(ref));
        }
      }
    }
  }

  for (const simd::Backend backend : simd::AvailableBackends()) {
    if (backend == simd::Backend::kScalar) continue;
    ScopedBackend forced(backend);
    if (!forced.forced()) continue;  // CPU lacks this backend.
    size_t r = 0;
    for (size_t q = 0; q < dataset.size(); ++q) {
      for (const QueryPlan& plan : kPlans) {
        for (const bool forward : {true, false}) {
          SearchCursor::Options cursor_opts;
          cursor_opts.reverse = !forward;
          cursor_opts.plan = plan;
          SearchCursor cursor(index,
                              dataset.attribute(static_cast<AttributeId>(q)),
                              params, cursor_opts);
          const std::string context =
              std::string("backend=") + std::to_string(int(backend)) +
              " q=" + std::to_string(q) +
              " plan=" + std::to_string(static_cast<int>(plan)) +
              (forward ? " forward" : " reverse");
          EXPECT_EQ(cursor.RunToCompletion(), reference[r].ids) << context;
          ExpectSameFunnel(cursor.stats(), reference[r].stats, context);
          ++r;
        }
      }
    }
  }
}

/// Stage-by-stage invariants the monolithic call cannot exhibit: the
/// superset is sound and shrinks monotonically; Abandon keeps it valid.
TEST(ProgressiveCursorTest, SupersetShrinksAndStaysSound) {
  const wiki::GeneratedDataset corpus = MakeCorpus(9);
  const Dataset& dataset = corpus.dataset;
  const int64_t n_days = dataset.domain().num_timestamps();
  const ConstantWeight w(n_days);
  TindIndexOptions opts;
  opts.bloom_bits = 512;
  opts.num_hashes = 2;
  opts.num_slices = 6;
  opts.delta = 7;
  opts.epsilon = 3.0;
  opts.weight = &w;
  auto built = TindIndex::Build(dataset, opts);
  ASSERT_TRUE(built.ok());
  const TindIndex& index = **built;
  const TindParams params{3.0, 7, &w};

  auto contains_all = [](const std::vector<AttributeId>& super,
                         const std::vector<AttributeId>& sub) {
    size_t i = 0;
    for (const AttributeId id : sub) {
      while (i < super.size() && super[i] < id) ++i;
      if (i == super.size() || super[i] != id) return false;
    }
    return true;
  };

  for (size_t q = 0; q < dataset.size(); ++q) {
    const AttributeHistory& query =
        dataset.attribute(static_cast<AttributeId>(q));
    const std::vector<AttributeId> exact = index.Search(query, params);

    SearchCursor cursor(index, query, params);
    size_t prev = SIZE_MAX;
    while (!cursor.done()) {
      cursor.Step();
      const std::vector<AttributeId> superset = cursor.Superset();
      EXPECT_LE(superset.size(), prev) << "q=" << q;
      EXPECT_TRUE(contains_all(superset, exact)) << "q=" << q;
      prev = superset.size();
    }
    EXPECT_EQ(cursor.results(), exact) << "q=" << q;

    // Abandon mid-funnel: empty results, cancelled stats, sound superset.
    SearchCursor abandoned(index, query, params);
    abandoned.Step();  // Probe.
    abandoned.Abandon();
    EXPECT_TRUE(abandoned.done());
    EXPECT_TRUE(abandoned.cancelled());
    EXPECT_TRUE(abandoned.results().empty());
    EXPECT_TRUE(contains_all(abandoned.Superset(), exact)) << "q=" << q;
  }
}

/// A pre-fired cancellation token abandons at the first Step; a token fired
/// between stages abandons at the next.
TEST(ProgressiveCursorTest, CancellationAbandonsAtStageBoundary) {
  const wiki::GeneratedDataset corpus = MakeCorpus(5);
  const Dataset& dataset = corpus.dataset;
  const int64_t n_days = dataset.domain().num_timestamps();
  const ConstantWeight w(n_days);
  TindIndexOptions opts;
  opts.bloom_bits = 512;
  opts.num_hashes = 2;
  opts.num_slices = 4;
  opts.weight = &w;
  auto built = TindIndex::Build(dataset, opts);
  ASSERT_TRUE(built.ok());
  const TindIndex& index = **built;
  const TindParams params{3.0, 7, &w};
  const AttributeHistory& query = dataset.attribute(0);

  CancellationToken pre_fired;
  pre_fired.Cancel();
  SearchCursor::Options cursor_opts;
  cursor_opts.cancel = &pre_fired;
  SearchCursor cursor(index, query, params, cursor_opts);
  cursor.Step();
  EXPECT_TRUE(cursor.done());
  EXPECT_TRUE(cursor.cancelled());
  EXPECT_TRUE(cursor.results().empty());

  CancellationToken mid;
  SearchCursor::Options mid_opts;
  mid_opts.cancel = &mid;
  SearchCursor staged(index, query, params, mid_opts);
  EXPECT_EQ(staged.Step(), SearchStage::kRecheck);
  mid.Cancel();
  staged.Step();
  EXPECT_TRUE(staged.done());
  EXPECT_TRUE(staged.cancelled());
  EXPECT_TRUE(staged.results().empty());
  EXPECT_GT(staged.Superset().size() + 1, 0u);  // Still answerable.
}

}  // namespace
}  // namespace tind
