#include "tind/discovery.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <set>

#include "common/fault_injection.h"
#include "test_util.h"
#include "tind/checkpoint.h"
#include "tind/validator.h"

namespace tind {
namespace {

class DiscoveryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng rng(17);
    dataset_ = Dataset(TimeDomain(90), std::make_shared<ValueDictionary>());
    for (size_t i = 0; i < 35; ++i) {
      dataset_.Add(testutil::RandomHistory(dataset_.domain(), &rng, 12,
                                           static_cast<AttributeId>(i), 5, 5));
    }
    weight_ = std::make_unique<ConstantWeight>(90);
    TindIndexOptions opts;
    opts.bloom_bits = 512;
    opts.num_hashes = 2;
    opts.num_slices = 4;
    opts.delta = 4;
    opts.epsilon = 3.0;
    opts.weight = weight_.get();
    auto index = TindIndex::Build(dataset_, opts);
    ASSERT_TRUE(index.ok());
    index_ = std::move(*index);
  }

  std::set<TindPair> NaiveAllPairs(const TindParams& params) const {
    std::set<TindPair> expected;
    for (AttributeId a = 0; a < dataset_.size(); ++a) {
      for (AttributeId b = 0; b < dataset_.size(); ++b) {
        if (a == b) continue;
        if (ValidateTindNaive(dataset_.attribute(a), dataset_.attribute(b),
                              params, dataset_.domain())) {
          expected.insert(TindPair{a, b});
        }
      }
    }
    return expected;
  }

  Dataset dataset_;
  std::unique_ptr<ConstantWeight> weight_;
  std::unique_ptr<TindIndex> index_;
};

TEST_F(DiscoveryTest, SequentialMatchesNaive) {
  const TindParams params{3.0, 2, weight_.get()};
  const AllPairsResult result = DiscoverAllTinds(*index_, params, nullptr);
  const std::set<TindPair> expected = NaiveAllPairs(params);
  EXPECT_EQ(std::set<TindPair>(result.pairs.begin(), result.pairs.end()),
            expected);
  EXPECT_EQ(result.num_queries, dataset_.size());
  EXPECT_GE(result.elapsed_seconds, 0.0);
}

TEST_F(DiscoveryTest, ParallelMatchesSequential) {
  ThreadPool pool(4);
  const TindParams params{3.0, 2, weight_.get()};
  const AllPairsResult serial = DiscoverAllTinds(*index_, params, nullptr);
  const AllPairsResult parallel = DiscoverAllTinds(*index_, params, &pool);
  EXPECT_EQ(serial.pairs, parallel.pairs);
}

TEST_F(DiscoveryTest, PairsSortedAndUnique) {
  const TindParams params{3.0, 2, weight_.get()};
  const AllPairsResult result = DiscoverAllTinds(*index_, params, nullptr);
  for (size_t i = 1; i < result.pairs.size(); ++i) {
    EXPECT_TRUE(result.pairs[i - 1] < result.pairs[i]);
  }
}

TEST_F(DiscoveryTest, NoSelfPairs) {
  const TindParams params{90.0, 4, weight_.get()};  // Everything included.
  const AllPairsResult result = DiscoverAllTinds(*index_, params, nullptr);
  for (const TindPair& p : result.pairs) EXPECT_NE(p.lhs, p.rhs);
  // With eps = total weight, every ordered pair holds.
  EXPECT_EQ(result.pairs.size(), dataset_.size() * (dataset_.size() - 1));
}

TEST_F(DiscoveryTest, StrictSubsetOfRelaxed) {
  const TindParams strict{0.0, 0, weight_.get()};
  const TindParams relaxed{3.0, 2, weight_.get()};
  const AllPairsResult s = DiscoverAllTinds(*index_, strict, nullptr);
  const AllPairsResult r = DiscoverAllTinds(*index_, relaxed, nullptr);
  const std::set<TindPair> relaxed_set(r.pairs.begin(), r.pairs.end());
  for (const TindPair& p : s.pairs) {
    EXPECT_TRUE(relaxed_set.count(p)) << p.lhs << " in " << p.rhs;
  }
}

TEST_F(DiscoveryTest, OptionsOverloadMatchesLegacy) {
  const TindParams params{3.0, 2, weight_.get()};
  const AllPairsResult legacy = DiscoverAllTinds(*index_, params, nullptr);
  auto result = DiscoverAllTinds(*index_, params, DiscoveryOptions{});
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->pairs, legacy.pairs);
  EXPECT_EQ(result->resumed_queries, 0u);
  EXPECT_EQ(result->checkpoints_written, 0u);
}

TEST_F(DiscoveryTest, PreCancelledTokenStopsImmediately) {
  const TindParams params{3.0, 2, weight_.get()};
  CancellationToken cancel;
  cancel.Cancel();
  DiscoveryOptions options;
  options.cancel = &cancel;
  auto result = DiscoverAllTinds(*index_, params, options);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsCancelled()) << result.status().ToString();
}

TEST_F(DiscoveryTest, MemoryBudgetOverflowIsOutOfMemoryAndReleased) {
  const TindParams params{90.0, 4, weight_.get()};  // Maximal result set.
  MemoryBudget budget(16);  // Room for four result ids in total.
  DiscoveryOptions options;
  options.memory = &budget;
  auto result = DiscoverAllTinds(*index_, params, options);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsOutOfMemory()) << result.status().ToString();
  EXPECT_EQ(budget.used(), 0u);  // The reservation was returned.
}

TEST_F(DiscoveryTest, CheckpointWrittenAndDeletedOnSuccess) {
  const TindParams params{3.0, 2, weight_.get()};
  const std::string path = ::testing::TempDir() + "disc-success-ckpt";
  std::remove(path.c_str());
  DiscoveryOptions options;
  options.checkpoint_path = path;
  options.checkpoint_interval = 4;
  auto result = DiscoverAllTinds(*index_, params, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GT(result->checkpoints_written, 0u);
  EXPECT_EQ(result->checkpoint_failures, 0u);
  EXPECT_FALSE(std::ifstream(path).good()) << "checkpoint not cleaned up";
}

TEST_F(DiscoveryTest, ResumeFromCheckpointProducesIdenticalPairs) {
  const TindParams params{3.0, 2, weight_.get()};
  const AllPairsResult baseline = DiscoverAllTinds(*index_, params, nullptr);

  // Simulate a killed run: persist a checkpoint carrying the first 20
  // queries' results, then resume. The resumed run must skip those queries
  // and still produce a pair set bit-identical to the uninterrupted one.
  DiscoveryCheckpoint checkpoint;
  checkpoint.num_queries = dataset_.size();
  for (AttributeId q = 0; q < 20; ++q) {
    std::vector<AttributeId> rhs =
        index_->Search(dataset_.attribute(q), params);
    checkpoint.completed.emplace_back(q, std::move(rhs));
  }
  const std::string path = ::testing::TempDir() + "disc-resume-ckpt";
  ASSERT_TRUE(SaveDiscoveryCheckpoint(checkpoint, path).ok());

  DiscoveryOptions options;
  options.checkpoint_path = path;
  auto resumed = DiscoverAllTinds(*index_, params, options);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  EXPECT_EQ(resumed->resumed_queries, 20u);
  EXPECT_EQ(resumed->pairs, baseline.pairs);
  std::remove(path.c_str());
}

TEST_F(DiscoveryTest, CorruptCheckpointIsIgnoredNotFatal) {
  const TindParams params{3.0, 2, weight_.get()};
  const AllPairsResult baseline = DiscoverAllTinds(*index_, params, nullptr);
  const std::string path = ::testing::TempDir() + "disc-corrupt-ckpt";
  {
    std::ofstream out(path, std::ios::trunc);
    out << "TIND-CKPT 1 9999\nnot a record at all\n";
  }
  DiscoveryOptions options;
  options.checkpoint_path = path;
  auto result = DiscoverAllTinds(*index_, params, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->resumed_queries, 0u);
  EXPECT_EQ(result->pairs, baseline.pairs);
  std::remove(path.c_str());
}

TEST_F(DiscoveryTest, ParallelWithOptionsMatchesSequential) {
  ThreadPool pool(4);
  const TindParams params{3.0, 2, weight_.get()};
  const AllPairsResult baseline = DiscoverAllTinds(*index_, params, nullptr);
  DiscoveryOptions options;
  options.pool = &pool;
  options.checkpoint_path = ::testing::TempDir() + "disc-par-ckpt";
  options.checkpoint_interval = 8;
  auto result = DiscoverAllTinds(*index_, params, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->pairs, baseline.pairs);
}

#if !TIND_FAULT_INJECTION_DISABLED
TEST_F(DiscoveryTest, InjectedPreemptionThenResumeMatchesBaseline) {
  const TindParams params{3.0, 2, weight_.get()};
  const AllPairsResult baseline = DiscoverAllTinds(*index_, params, nullptr);
  const std::string path = ::testing::TempDir() + "disc-preempt-ckpt";
  std::remove(path.c_str());

  ASSERT_TRUE(
      FaultInjector::Global().Configure("discovery/preempt=0.2", 5).ok());
  DiscoveryOptions options;
  options.checkpoint_path = path;
  options.checkpoint_interval = 4;
  auto preempted = DiscoverAllTinds(*index_, params, options);
  const uint64_t fired = FaultInjector::Global().fired("discovery/preempt");
  FaultInjector::Global().Reset();
  ASSERT_GT(fired, 0u) << "seed never fired; pick another";
  ASSERT_FALSE(preempted.ok());
  EXPECT_TRUE(preempted.status().IsCancelled())
      << preempted.status().ToString();

  auto resumed = DiscoverAllTinds(*index_, params, options);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  EXPECT_EQ(resumed->pairs, baseline.pairs);
  std::remove(path.c_str());
}
#endif  // !TIND_FAULT_INJECTION_DISABLED

#if !TIND_FAULT_INJECTION_DISABLED
TEST_F(DiscoveryTest, CheckpointWriteRetriesRideOutTransientFaults) {
  const TindParams params{3.0, 2, weight_.get()};
  const std::string path = ::testing::TempDir() + "disc-retry-ckpt";
  std::remove(path.c_str());

  // Fail ~35% of checkpoint writes. With backoff retries (3 per write) a
  // transient fault is retried through, so no write is recorded as failed.
  ASSERT_TRUE(FaultInjector::Global()
                  .Configure("discovery/checkpoint_write=0.35", 11)
                  .ok());
  DiscoveryOptions options;
  options.checkpoint_path = path;
  options.checkpoint_interval = 2;
  options.checkpoint_retries = 8;  // 0.35^8: a full exhaustion is ~1e-4.
  auto result = DiscoverAllTinds(*index_, params, options);
  const uint64_t fired =
      FaultInjector::Global().fired("discovery/checkpoint_write");
  FaultInjector::Global().Reset();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_GT(fired, 0u) << "seed never fired; pick another";
  EXPECT_EQ(result->checkpoint_failures, 0u);
  EXPECT_GT(result->checkpoints_written, 0u);

  // Same faults without retries must record failures: proves the retries —
  // not luck — absorbed them above.
  std::remove(path.c_str());
  ASSERT_TRUE(FaultInjector::Global()
                  .Configure("discovery/checkpoint_write=0.35", 11)
                  .ok());
  options.checkpoint_retries = 0;
  auto no_retry = DiscoverAllTinds(*index_, params, options);
  FaultInjector::Global().Reset();
  ASSERT_TRUE(no_retry.ok()) << no_retry.status().ToString();
  EXPECT_GT(no_retry->checkpoint_failures, 0u);
  std::remove(path.c_str());
}
#endif  // !TIND_FAULT_INJECTION_DISABLED

/// A corpus whose first attributes are catch-all-like: many versions of
/// large, mostly overlapping value sets. As queries they have each other as
/// candidates and every validation scans a large universe, so the first
/// query group carries most of the run's work — the shape that used to
/// stall every other worker at a window barrier.
class SlowHeadDiscoveryTest : public ::testing::Test {
 protected:
  static constexpr int64_t kDays = 120;
  static constexpr AttributeId kCatchAlls = 12;
  static constexpr AttributeId kAttributes = 150;

  void SetUp() override {
    Rng rng(29);
    dataset_ = Dataset(TimeDomain(kDays), std::make_shared<ValueDictionary>());
    for (AttributeId i = 0; i < kCatchAlls; ++i) {
      AttributeHistoryBuilder b(i, {}, dataset_.domain());
      for (Timestamp t = 0; t < kDays; t += 4) {
        std::vector<ValueId> vals;
        for (ValueId v = 0; v < 400; ++v) {
          if (rng.Bernoulli(0.999)) vals.push_back(v);
        }
        ASSERT_TRUE(b.AddVersion(t, ValueSet::FromUnsorted(vals)).ok());
      }
      auto history = b.Finish();
      ASSERT_TRUE(history.ok());
      dataset_.Add(std::move(*history));
    }
    for (AttributeId i = kCatchAlls; i < kAttributes; ++i) {
      dataset_.Add(
          testutil::RandomHistory(dataset_.domain(), &rng, 40, i, 6, 6));
    }
    weight_ = std::make_unique<ConstantWeight>(kDays);
    TindIndexOptions opts;
    opts.bloom_bits = 512;
    opts.num_hashes = 2;
    opts.num_slices = 4;
    opts.delta = 4;
    opts.epsilon = 6.0;
    opts.weight = weight_.get();
    auto index = TindIndex::Build(dataset_, opts);
    ASSERT_TRUE(index.ok());
    index_ = std::move(*index);
  }

  TindParams Params() const { return TindParams{6.0, 2, weight_.get()}; }

  Dataset dataset_;
  std::unique_ptr<ConstantWeight> weight_;
  std::unique_ptr<TindIndex> index_;
};

TEST_F(SlowHeadDiscoveryTest, EveryPoolWidthAndGroupSizeMatchesSequential) {
  const AllPairsResult sequential =
      DiscoverAllTinds(*index_, Params(), nullptr);
  // The catch-alls include one another, so the head group is not trivial.
  ASSERT_FALSE(sequential.pairs.empty());
  ASSERT_LT(sequential.pairs.front().lhs, kCatchAlls);
  for (const size_t width : {1, 2, 4}) {
    ThreadPool pool(width);
    for (const size_t batch_size : {1, 7, 64}) {
      DiscoveryOptions options;
      options.pool = &pool;
      options.batch_size = batch_size;
      auto result = DiscoverAllTinds(*index_, Params(), options);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      EXPECT_EQ(result->pairs, sequential.pairs)
          << "width=" << width << " batch_size=" << batch_size;
      EXPECT_EQ(result->total_validations, sequential.total_validations)
          << "width=" << width << " batch_size=" << batch_size;
    }
  }
}

#if !TIND_FAULT_INJECTION_DISABLED
TEST_F(SlowHeadDiscoveryTest, PreemptionCheckpointHoldsExactlyThePrefix) {
  const AllPairsResult sequential =
      DiscoverAllTinds(*index_, Params(), nullptr);
  std::vector<std::vector<AttributeId>> expected(kAttributes);
  for (const TindPair& p : sequential.pairs) expected[p.lhs].push_back(p.rhs);

  // Same fault seed with and without a pool: the preemption is drawn per
  // query during the in-order replay, so both runs stop at the same query
  // and leave the same checkpoint, however the groups were scheduled.
  ThreadPool pool(4);
  std::vector<DiscoveryCheckpoint> checkpoints;
  for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
    const std::string path = ::testing::TempDir() + "disc-slow-head-ckpt";
    std::remove(path.c_str());
    ASSERT_TRUE(
        FaultInjector::Global().Configure("discovery/preempt=0.03", 3).ok());
    DiscoveryOptions options;
    options.pool = p;
    options.batch_size = 7;
    options.checkpoint_path = path;
    options.checkpoint_interval = 5;
    auto preempted = DiscoverAllTinds(*index_, Params(), options);
    const uint64_t fired = FaultInjector::Global().fired("discovery/preempt");
    FaultInjector::Global().Reset();
    ASSERT_EQ(fired, 1u) << "seed never fired; pick another";
    ASSERT_FALSE(preempted.ok());
    ASSERT_TRUE(preempted.status().IsCancelled())
        << preempted.status().ToString();

    auto loaded = LoadDiscoveryCheckpoint(path);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    const size_t stop = loaded->completed.size();
    // Past the slow head group, short of the end.
    EXPECT_GT(stop, 7u);
    EXPECT_LT(stop, static_cast<size_t>(kAttributes));
    EXPECT_NE(preempted.status().ToString().find(
                  "after " + std::to_string(stop) + "/"),
              std::string::npos)
        << preempted.status().ToString();
    for (size_t i = 0; i < stop; ++i) {
      const auto& [q, rhs] = loaded->completed[i];
      ASSERT_EQ(q, i) << "checkpoint is not the prefix before the stop";
      EXPECT_EQ(rhs, expected[q]) << "query " << q;
    }
    checkpoints.push_back(std::move(*loaded));

    auto resumed = DiscoverAllTinds(*index_, Params(), options);
    ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
    EXPECT_EQ(resumed->resumed_queries, stop);
    EXPECT_EQ(resumed->pairs, sequential.pairs);
    std::remove(path.c_str());
  }
  EXPECT_EQ(checkpoints[0].completed, checkpoints[1].completed);
}
#endif  // !TIND_FAULT_INJECTION_DISABLED

TEST(CheckpointTest, SaveLoadRoundTrip) {
  DiscoveryCheckpoint checkpoint;
  checkpoint.num_queries = 10;
  checkpoint.completed.emplace_back(0, std::vector<AttributeId>{1, 2, 3});
  checkpoint.completed.emplace_back(4, std::vector<AttributeId>{});
  checkpoint.completed.emplace_back(9, std::vector<AttributeId>{0});
  const std::string path = ::testing::TempDir() + "ckpt-roundtrip";
  ASSERT_TRUE(SaveDiscoveryCheckpoint(checkpoint, path).ok());
  auto loaded = LoadDiscoveryCheckpoint(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->num_queries, checkpoint.num_queries);
  EXPECT_EQ(loaded->completed, checkpoint.completed);
  RemoveDiscoveryCheckpoint(path);
  EXPECT_TRUE(LoadDiscoveryCheckpoint(path).status().IsNotFound());
}

TEST(CheckpointTest, DetectsTruncationAndBitRot) {
  DiscoveryCheckpoint checkpoint;
  checkpoint.num_queries = 5;
  checkpoint.completed.emplace_back(1, std::vector<AttributeId>{2, 3});
  const std::string path = ::testing::TempDir() + "ckpt-corrupt";
  ASSERT_TRUE(SaveDiscoveryCheckpoint(checkpoint, path).ok());
  std::string contents;
  {
    std::ifstream in(path);
    std::getline(in, contents, '\0');
  }
  {  // Drop the footer: truncation.
    std::ofstream out(path, std::ios::trunc);
    out << contents.substr(0, contents.find("footer"));
  }
  auto truncated = LoadDiscoveryCheckpoint(path);
  EXPECT_FALSE(truncated.ok());
  EXPECT_TRUE(truncated.status().IsIOError());
  {  // Flip one payload byte: CRC mismatch.
    std::string tampered = contents;
    tampered[tampered.find("Q 1") + 2] = '2';
    std::ofstream out(path, std::ios::trunc);
    out << tampered;
  }
  auto tampered = LoadDiscoveryCheckpoint(path);
  EXPECT_FALSE(tampered.ok());
  std::remove(path.c_str());
}

TEST(TindPairTest, Ordering) {
  EXPECT_TRUE((TindPair{1, 2}) < (TindPair{1, 3}));
  EXPECT_TRUE((TindPair{1, 9}) < (TindPair{2, 0}));
  EXPECT_TRUE((TindPair{1, 2}) == (TindPair{1, 2}));
  EXPECT_FALSE((TindPair{1, 2}) == (TindPair{2, 1}));
}

}  // namespace
}  // namespace tind
