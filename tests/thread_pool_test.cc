#include "common/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <thread>
#include <vector>

namespace tind {
namespace {

TEST(ThreadPoolTest, DefaultSizeMatchesHardware) {
  ThreadPool pool;
  EXPECT_GE(pool.num_threads(), 1u);
}

TEST(ThreadPoolTest, SubmitReturnsValue) {
  ThreadPool pool(2);
  auto f = pool.Submit([] { return 41 + 1; });
  EXPECT_EQ(f.get(), 42);
}

TEST(ThreadPoolTest, SubmitManyTasks) {
  ThreadPool pool(4);
  std::vector<std::future<int>> futures;
  for (int i = 0; i < 100; ++i) {
    futures.push_back(pool.Submit([i] { return i * i; }));
  }
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(futures[static_cast<size_t>(i)].get(), i * i);
  }
}

TEST(ThreadPoolTest, SubmitPropagatesExceptionsThroughFuture) {
  ThreadPool pool(1);
  auto f = pool.Submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(f.get(), std::runtime_error);
}

TEST(ThreadPoolTest, ParallelForCoversAllIndicesExactlyOnce) {
  ThreadPool pool(4);
  const size_t n = 10000;
  std::vector<std::atomic<int>> counts(n);
  pool.ParallelFor(0, n, [&](size_t i) { counts[i].fetch_add(1); });
  for (size_t i = 0; i < n; ++i) EXPECT_EQ(counts[i].load(), 1) << i;
}

TEST(ThreadPoolTest, ParallelForEmptyRange) {
  ThreadPool pool(2);
  std::atomic<int> calls{0};
  pool.ParallelFor(5, 5, [&](size_t) { calls.fetch_add(1); });
  pool.ParallelFor(7, 3, [&](size_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 0);
}

TEST(ThreadPoolTest, ParallelForNonZeroBegin) {
  ThreadPool pool(3);
  std::atomic<long> sum{0};
  pool.ParallelFor(10, 20, [&](size_t i) {
    sum.fetch_add(static_cast<long>(i));
  });
  EXPECT_EQ(sum.load(), 145);  // 10 + 11 + ... + 19
}

TEST(ThreadPoolTest, ParallelForSingleElement) {
  ThreadPool pool(2);
  std::atomic<int> calls{0};
  pool.ParallelFor(0, 1, [&](size_t i) {
    EXPECT_EQ(i, 0u);
    calls.fetch_add(1);
  });
  EXPECT_EQ(calls.load(), 1);
}

TEST(ThreadPoolTest, ParallelForActuallyUsesWorkers) {
  ThreadPool pool(4);
  std::set<std::thread::id> ids;
  std::mutex m;
  // Each index sleeps briefly so the calling thread cannot race through all
  // chunks before the workers wake up.
  pool.ParallelFor(0, 64, [&](size_t) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    std::lock_guard<std::mutex> lock(m);
    ids.insert(std::this_thread::get_id());
  });
  EXPECT_GE(ids.size(), 2u);
}

TEST(ThreadPoolTest, ParallelForSlowIndexDoesNotHoldBackLaterIndices) {
  // Index 0 blocks until every other index has finished (bounded, so a
  // regression fails instead of hanging). Indices are claimed one at a
  // time, so the other workers run all of them meanwhile.
  ThreadPool pool(4);
  const size_t n = 64;
  std::atomic<size_t> others_done{0};
  bool all_others_finished = false;
  pool.ParallelFor(0, n, [&](size_t i) {
    if (i != 0) {
      others_done.fetch_add(1);
      return;
    }
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(2);
    while (others_done.load() < n - 1 &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    all_others_finished = others_done.load() == n - 1;
  });
  EXPECT_TRUE(all_others_finished);
  EXPECT_EQ(others_done.load(), n - 1);
}

TEST(ThreadPoolTest, DestructorDrainsQueue) {
  std::atomic<int> done{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 50; ++i) {
      pool.Submit([&] { done.fetch_add(1); });
    }
  }  // Destructor joins after draining.
  EXPECT_EQ(done.load(), 50);
}

TEST(ThreadPoolTest, DefaultThreadPoolSingleton) {
  EXPECT_EQ(DefaultThreadPool(), DefaultThreadPool());
  EXPECT_GE(DefaultThreadPool()->num_threads(), 1u);
}

TEST(ThreadPoolTest, ParallelForRethrowsFirstException) {
  ThreadPool pool(4);
  std::atomic<int> calls{0};
  try {
    pool.ParallelFor(0, 1000, [&](size_t i) {
      calls.fetch_add(1);
      if (i == 137) throw std::runtime_error("index 137 failed");
    });
    FAIL() << "ParallelFor swallowed the task exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "index 137 failed");
  }
  // The failing index ran; later chunks may have been skipped but the pool
  // must still be usable afterwards.
  EXPECT_GE(calls.load(), 1);
  std::atomic<int> after{0};
  pool.ParallelFor(0, 100, [&](size_t) { after.fetch_add(1); });
  EXPECT_EQ(after.load(), 100);
}

TEST(ThreadPoolTest, ParallelForStopsEarlyAfterException) {
  ThreadPool pool(2);
  std::atomic<int> calls{0};
  EXPECT_THROW(pool.ParallelFor(0, 100000,
                                [&](size_t i) {
                                  calls.fetch_add(1);
                                  if (i == 0) throw std::runtime_error("x");
                                }),
               std::runtime_error);
  // Index 0 is the first index claimed, so the abort flag is up long before
  // 100k indices complete.
  EXPECT_LT(calls.load(), 100000);
}

TEST(ThreadPoolTest, ParallelForCancellationStopsAtIndexBoundary) {
  ThreadPool pool(2);
  CancellationToken cancel;
  cancel.Cancel();
  std::atomic<int> calls{0};
  pool.ParallelFor(0, 10000, [&](size_t) { calls.fetch_add(1); }, &cancel);
  EXPECT_EQ(calls.load(), 0);
}

TEST(ThreadPoolTest, ParallelForCancellationMidRun) {
  ThreadPool pool(2);
  CancellationToken cancel;
  std::atomic<int> calls{0};
  pool.ParallelFor(0, 100000, [&](size_t i) {
    calls.fetch_add(1);
    if (i == 10) cancel.Cancel();
  }, &cancel);
  EXPECT_GE(calls.load(), 1);
  EXPECT_LT(calls.load(), 100000);
}

TEST(ThreadPoolTest, SubmitDetachedDoesNotLoseTheTask) {
  ThreadPool pool(2);
  std::promise<int> result;
  auto future = result.get_future();
  pool.SubmitDetached([&] { result.set_value(7); });
  EXPECT_EQ(future.get(), 7);
}

TEST(ThreadPoolTest, SubmitDetachedSurvivesThrowingTask) {
  // Regression: a throwing task whose Submit future was discarded used to
  // strand the exception in the shared state; with a detached submit the
  // exception must be reported and the pool must keep working.
  ThreadPool pool(1);
  pool.SubmitDetached([] { throw std::runtime_error("detached boom"); });
  pool.SubmitDetached([] { throw 42; });  // Non-std exceptions too.
  auto f = pool.Submit([] { return 1; });
  EXPECT_EQ(f.get(), 1);
}

TEST(PlanBatchShardsTest, EmptyAndSingle) {
  EXPECT_TRUE(PlanBatchShards(0, 4, 64).empty());
  const auto one = PlanBatchShards(1, 4, 64);
  ASSERT_EQ(one.size(), 1u);
  EXPECT_EQ(one[0], (IndexRange{0, 1}));
}

TEST(PlanBatchShardsTest, SequentialUsesFullGroups) {
  // One worker: no reason to split below the amortization width.
  const auto shards = PlanBatchShards(200, 1, 64);
  ASSERT_EQ(shards.size(), 4u);
  EXPECT_EQ(shards[0], (IndexRange{0, 64}));
  EXPECT_EQ(shards[1], (IndexRange{64, 128}));
  EXPECT_EQ(shards[2], (IndexRange{128, 192}));
  EXPECT_EQ(shards[3], (IndexRange{192, 200}));
}

TEST(PlanBatchShardsTest, ShrinksToKeepWorkersBusy) {
  // 100 items over 4 workers: whole-64 shards would use only 2 workers, so
  // the planner shrinks to ceil(100/4) = 25.
  const auto shards = PlanBatchShards(100, 4, 64);
  ASSERT_EQ(shards.size(), 4u);
  for (size_t s = 0; s < 4; ++s) {
    EXPECT_EQ(shards[s], (IndexRange{s * 25, (s + 1) * 25}));
  }
}

TEST(PlanBatchShardsTest, NeverExceedsMaxShardAndTilesExactly) {
  for (const size_t total : {1u, 17u, 63u, 64u, 65u, 100u, 1000u}) {
    for (const size_t workers : {1u, 2u, 7u, 16u}) {
      for (const size_t max_shard : {1u, 8u, 64u}) {
        const auto shards = PlanBatchShards(total, workers, max_shard);
        size_t expected_begin = 0;
        for (const IndexRange& r : shards) {
          EXPECT_EQ(r.begin, expected_begin);
          EXPECT_GT(r.size(), 0u);
          EXPECT_LE(r.size(), max_shard);
          expected_begin = r.end;
        }
        EXPECT_EQ(expected_begin, total)
            << "total=" << total << " workers=" << workers
            << " max_shard=" << max_shard;
      }
    }
  }
}

TEST(PlanBatchShardsTest, ZeroMaxShardBehavesAsOne) {
  const auto shards = PlanBatchShards(3, 1, 0);
  ASSERT_EQ(shards.size(), 3u);
  for (size_t s = 0; s < 3; ++s) EXPECT_EQ(shards[s].size(), 1u);
}

TEST(CancellationTokenTest, SharedState) {
  CancellationToken token;
  EXPECT_FALSE(token.cancelled());
  CancellationToken copy = token;
  token.Cancel();
  EXPECT_TRUE(token.cancelled());
  EXPECT_TRUE(copy.cancelled());
}

TEST(CancellationTokenTest, DeadlineExpiresTheToken) {
  using Clock = CancellationToken::Clock;
  // Fires without Cancel(), and every copy shares the deadline.
  CancellationToken timed(Clock::now() + std::chrono::milliseconds(20));
  const CancellationToken copy = timed;
  EXPECT_FALSE(timed.cancelled());
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_TRUE(copy.cancelled());
  EXPECT_TRUE(timed.cancelled());

  // A token built without a deadline never expires.
  const CancellationToken plain;
  EXPECT_FALSE(plain.cancelled());

  // Cancel() before the deadline wins.
  CancellationToken early(Clock::now() + std::chrono::hours(1));
  const CancellationToken early_copy = early;
  EXPECT_FALSE(early.cancelled());
  early.Cancel();
  EXPECT_TRUE(early.cancelled());
  EXPECT_TRUE(early_copy.cancelled());
}

}  // namespace
}  // namespace tind
