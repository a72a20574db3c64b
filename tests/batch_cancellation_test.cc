#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <set>
#include <thread>
#include <vector>

#include "common/cancellation.h"
#include "common/thread_pool.h"
#include "temporal/weights.h"
#include "tind/index.h"
#include "tind/progressive.h"
#include "wiki/generator.h"

/// \file batch_cancellation_test.cc
/// CancellationToken propagation through a group SearchCursor (per-member
/// tokens over groups of up to 64), and the degraded superset mode the
/// serving layer builds from it (abandon after the slice stage). The
/// contracts under test:
///  * a pre-cancelled query returns an empty result with stats.cancelled set
///    and a consistent (all-zero tail) funnel, without running validations,
///    while its Superset() stays a sound superset of the exact answer;
///  * the *other* queries of the same cursor are bit-identical to a
///    BatchSearch without any tokens — cancellation never leaks across
///    queries;
///  * cancellation observed mid-run terminates the cursor without hanging;
///  * members abandoned after the slice stage answer supersets of the exact
///    results, with zero Algorithm-2 validations.

namespace tind {
namespace {

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

class BatchCancellationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    corpus_ = std::make_unique<wiki::GeneratedDataset>(MakeCorpus(29));
    const int64_t n_days = corpus_->dataset.domain().num_timestamps();
    weight_ = std::make_unique<ConstantWeight>(n_days);
    TindIndexOptions opts;
    opts.bloom_bits = 512;
    opts.num_hashes = 2;
    opts.num_slices = 6;
    opts.delta = 7;
    opts.epsilon = 3.0;
    opts.build_reverse_index = true;
    opts.reverse_slices = 2;
    opts.weight = weight_.get();
    auto built = TindIndex::Build(corpus_->dataset, opts);
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    index_ = std::move(*built);
  }

  std::vector<const AttributeHistory*> AllQueries() const {
    std::vector<const AttributeHistory*> queries;
    for (size_t q = 0; q < corpus_->dataset.size(); ++q) {
      queries.push_back(
          &corpus_->dataset.attribute(static_cast<AttributeId>(q)));
    }
    return queries;
  }

  TindParams Params() const { return TindParams{3.0, 2, weight_.get()}; }

  std::unique_ptr<wiki::GeneratedDataset> corpus_;
  std::unique_ptr<ConstantWeight> weight_;
  std::unique_ptr<TindIndex> index_;
};

/// Steps a group cursor over `queries` (one member per query, token
/// `cancels[q]` when given) to completion.
struct CursorRun {
  std::vector<std::vector<AttributeId>> results;
  std::vector<std::vector<AttributeId>> supersets;
  std::vector<QueryStats> stats;
};

CursorRun RunCursor(const TindIndex& index,
                    const std::vector<const AttributeHistory*>& queries,
                    const TindParams& params, bool forward,
                    const std::vector<const CancellationToken*>& cancels = {},
                    ThreadPool* pool = nullptr) {
  std::vector<SearchCursor::Member> members;
  for (size_t q = 0; q < queries.size(); ++q) {
    members.push_back({queries[q], cancels.empty() ? nullptr : cancels[q]});
  }
  SearchCursor::Options options;
  options.reverse = !forward;
  options.pool = pool;
  SearchCursor cursor(index, members, params, options);
  while (!cursor.done()) cursor.Step();
  CursorRun run;
  for (size_t q = 0; q < queries.size(); ++q) {
    run.results.push_back(cursor.results(q));
    run.supersets.push_back(cursor.Superset(q));
    run.stats.push_back(cursor.stats(q));
  }
  return run;
}

TEST_F(BatchCancellationTest, PreCancelledQueriesAreAbandonedOthersExact) {
  // Three copies of the corpus, so the cursor spans more than one group.
  std::vector<const AttributeHistory*> queries;
  for (int rep = 0; rep < 3; ++rep) {
    const auto all = AllQueries();
    queries.insert(queries.end(), all.begin(), all.end());
  }
  const size_t n = queries.size();
  ASSERT_GT(n, kBloomBatchGroupSize);
  const TindParams params = Params();

  for (const bool forward : {true, false}) {
    std::vector<QueryStats> baseline_stats;
    const auto baseline =
        forward
            ? index_->BatchSearch(queries, params, &baseline_stats)
            : index_->BatchReverseSearch(queries, params, &baseline_stats);

    // Cancel every third query before the cursor starts.
    std::vector<CancellationToken> tokens(n);
    std::vector<const CancellationToken*> cancels(n, nullptr);
    std::set<size_t> cancelled_ids;
    for (size_t q = 0; q < n; ++q) {
      cancels[q] = &tokens[q];
      if (q % 3 == 1) {
        tokens[q].Cancel();
        cancelled_ids.insert(q);
      }
    }
    ASSERT_FALSE(cancelled_ids.empty());
    const CursorRun run = RunCursor(*index_, queries, params, forward, cancels);
    const auto& results = run.results;
    const auto& stats = run.stats;

    for (size_t q = 0; q < n; ++q) {
      const std::string ctx =
          (forward ? "fwd q=" : "rev q=") + std::to_string(q);
      if (cancelled_ids.count(q)) {
        EXPECT_TRUE(stats[q].cancelled) << ctx;
        EXPECT_TRUE(results[q].empty()) << ctx;
        EXPECT_EQ(stats[q].num_results, 0u) << ctx;
        EXPECT_EQ(stats[q].validations, 0u) << ctx;
        // Funnel consistency: no stage ran for a pre-cancelled query, so
        // the whole funnel reads zero.
        EXPECT_EQ(stats[q].initial_candidates, 0u) << ctx;
        EXPECT_EQ(stats[q].after_slices, 0u) << ctx;
        EXPECT_EQ(stats[q].after_exact_check, 0u) << ctx;
        // ...but its superset is still sound.
        const std::set<AttributeId> superset(run.supersets[q].begin(),
                                             run.supersets[q].end());
        for (AttributeId id : baseline[q]) {
          EXPECT_TRUE(superset.count(id)) << ctx << " missing " << id;
        }
      } else {
        // Unaffected queries answer bit-identically to the token-free run.
        EXPECT_FALSE(stats[q].cancelled) << ctx;
        EXPECT_EQ(results[q], baseline[q]) << ctx;
        EXPECT_EQ(stats[q].num_results, baseline_stats[q].num_results) << ctx;
        EXPECT_EQ(stats[q].validations, baseline_stats[q].validations) << ctx;
        EXPECT_EQ(stats[q].initial_candidates,
                  baseline_stats[q].initial_candidates)
            << ctx;
        EXPECT_EQ(stats[q].after_slices, baseline_stats[q].after_slices)
            << ctx;
        EXPECT_EQ(stats[q].after_exact_check,
                  baseline_stats[q].after_exact_check)
            << ctx;
      }
    }
  }
}

TEST_F(BatchCancellationTest, CursorAbandonedBeforeItsProbeKeepsASoundSuperset) {
  // A token that fired before the probe leaves the candidates untouched;
  // they must read as every attribute but the query, never as empty.
  const TindParams params = Params();
  size_t checked = 0;
  for (size_t q = 0; q < corpus_->dataset.size(); ++q) {
    const AttributeHistory& query =
        corpus_->dataset.attribute(static_cast<AttributeId>(q));
    const std::vector<AttributeId> exact = index_->Search(query, params);
    if (exact.empty()) continue;
    CancellationToken token;
    token.Cancel();
    SearchCursor::Options options;
    options.cancel = &token;
    SearchCursor cursor(*index_, query, params, options);
    EXPECT_EQ(cursor.Superset().size(), corpus_->dataset.size() - 1) << q;
    cursor.RunToCompletion();
    EXPECT_TRUE(cursor.cancelled()) << q;
    EXPECT_TRUE(cursor.results().empty()) << q;
    const std::vector<AttributeId> superset = cursor.Superset();
    const std::set<AttributeId> ids(superset.begin(), superset.end());
    EXPECT_FALSE(ids.count(static_cast<AttributeId>(q))) << q;
    for (AttributeId id : exact) EXPECT_TRUE(ids.count(id)) << q << " " << id;
    ++checked;
  }
  EXPECT_GT(checked, 0u);
}

TEST_F(BatchCancellationTest, NullAndDefaultTokensChangeNothing) {
  const auto queries = AllQueries();
  const TindParams params = Params();
  std::vector<QueryStats> baseline_stats;
  const auto baseline = index_->BatchSearch(queries, params, &baseline_stats);

  // Tokens present but never cancelled, plus a null entry: exact equality.
  std::vector<CancellationToken> tokens(queries.size());
  std::vector<const CancellationToken*> cancels(queries.size(), nullptr);
  for (size_t q = 0; q < queries.size(); q += 2) cancels[q] = &tokens[q];
  const CursorRun run = RunCursor(*index_, queries, params, true, cancels);
  ASSERT_EQ(run.results.size(), baseline.size());
  for (size_t q = 0; q < run.results.size(); ++q) {
    EXPECT_EQ(run.results[q], baseline[q]) << q;
    EXPECT_FALSE(run.stats[q].cancelled) << q;
    EXPECT_EQ(run.stats[q].validations, baseline_stats[q].validations) << q;
  }
}

TEST_F(BatchCancellationTest, MidRunCancellationTerminatesAndStaysConsistent) {
  const auto base_queries = AllQueries();
  const TindParams params = Params();
  // Inflate the cursor so the run is long enough to catch mid-flight.
  std::vector<const AttributeHistory*> queries;
  for (int rep = 0; rep < 40; ++rep) {
    queries.insert(queries.end(), base_queries.begin(), base_queries.end());
  }
  const size_t n = queries.size();
  CancellationToken shared;  // One token across all queries (deadline style).
  std::vector<const CancellationToken*> cancels(n, &shared);

  CursorRun run;
  std::thread runner(
      [&] { run = RunCursor(*index_, queries, params, true, cancels); });
  shared.Cancel();
  runner.join();  // Must terminate promptly; a hang fails via test timeout.

  ASSERT_EQ(run.results.size(), n);
  ASSERT_EQ(run.stats.size(), n);
  std::vector<QueryStats> baseline_stats;
  const auto baseline =
      index_->BatchSearch(base_queries, params, &baseline_stats);
  for (size_t q = 0; q < n; ++q) {
    if (run.stats[q].cancelled) {
      // Abandoned: empty answer, zeroed tail of the funnel.
      EXPECT_TRUE(run.results[q].empty()) << q;
      EXPECT_EQ(run.stats[q].num_results, 0u) << q;
    } else {
      // Completed before the token was observed: exact answer.
      EXPECT_EQ(run.results[q], baseline[q % base_queries.size()]) << q;
    }
  }
}

/// The serving layer's brown-out: step the probe and the funnel's second
/// stage (the exact recheck in the default order), then abandon every
/// member and read its superset.
CursorRun RunSupersetMode(const TindIndex& index,
                          const std::vector<const AttributeHistory*>& queries,
                          const TindParams& params, bool forward,
                          ThreadPool* pool = nullptr) {
  std::vector<SearchCursor::Member> members;
  for (const AttributeHistory* query : queries) {
    members.push_back({query, nullptr});
  }
  SearchCursor::Options options;
  options.reverse = !forward;
  options.pool = pool;
  SearchCursor cursor(index, members, params, options);
  cursor.Step();
  cursor.Step();
  for (size_t q = 0; q < queries.size(); ++q) cursor.Abandon(q);
  EXPECT_TRUE(cursor.done());
  CursorRun run;
  for (size_t q = 0; q < queries.size(); ++q) {
    run.results.push_back(cursor.results(q));
    run.supersets.push_back(cursor.Superset(q));
    run.stats.push_back(cursor.stats(q));
  }
  return run;
}

TEST_F(BatchCancellationTest, SupersetModeIsASoundDegradedSuperset) {
  const auto queries = AllQueries();
  const TindParams params = Params();

  for (const bool forward : {true, false}) {
    std::vector<QueryStats> exact_stats;
    const auto exact =
        forward ? index_->BatchSearch(queries, params, &exact_stats)
                : index_->BatchReverseSearch(queries, params, &exact_stats);

    const CursorRun run = RunSupersetMode(*index_, queries, params, forward);
    const auto& stats = run.stats;
    const auto& degraded = run.supersets;

    size_t total_superset = 0;
    for (size_t q = 0; q < queries.size(); ++q) {
      const std::string ctx =
          (forward ? "fwd q=" : "rev q=") + std::to_string(q);
      // Abandonment is what marks the answer as not exact.
      EXPECT_TRUE(stats[q].cancelled) << ctx;
      EXPECT_TRUE(run.results[q].empty()) << ctx;
      // No Algorithm-2 validations in brown-out mode — that is the point.
      EXPECT_EQ(stats[q].validations, 0u) << ctx;
      // The degraded answer is exactly the post-recheck candidate set...
      EXPECT_EQ(degraded[q].size(), stats[q].after_exact_check) << ctx;
      // ...whose funnel prefix matches the exact run's (stages 1-2 are
      // deterministic and unaffected by the mode switch).
      EXPECT_EQ(stats[q].initial_candidates,
                exact_stats[q].initial_candidates)
          << ctx;
      EXPECT_EQ(stats[q].after_exact_check, exact_stats[q].after_exact_check)
          << ctx;
      // ...and a superset of the exact answer.
      const std::set<AttributeId> superset(degraded[q].begin(),
                                           degraded[q].end());
      for (AttributeId id : exact[q]) {
        EXPECT_TRUE(superset.count(id)) << ctx << " missing " << id;
      }
      EXPECT_TRUE(std::is_sorted(degraded[q].begin(), degraded[q].end()))
          << ctx;
      total_superset += degraded[q].size();
    }
    // The corpus has Bloom false positives at 512 bits: the superset must be
    // a real superset somewhere, or this test proves nothing.
    size_t total_exact = 0;
    for (const auto& r : exact) total_exact += r.size();
    EXPECT_GE(total_superset, total_exact);
  }
}

TEST_F(BatchCancellationTest, SupersetModeWorksWithThreadPool) {
  const auto queries = AllQueries();
  const TindParams params = Params();
  ThreadPool pool(3);
  const CursorRun pooled = RunSupersetMode(*index_, queries, params, true, &pool);
  const CursorRun serial = RunSupersetMode(*index_, queries, params, true);
  ASSERT_EQ(pooled.supersets.size(), serial.supersets.size());
  for (size_t q = 0; q < pooled.supersets.size(); ++q) {
    EXPECT_EQ(pooled.supersets[q], serial.supersets[q]) << q;
    EXPECT_EQ(pooled.stats[q].after_exact_check,
              serial.stats[q].after_exact_check)
        << q;
  }
}

}  // namespace
}  // namespace tind
