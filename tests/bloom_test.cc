#include <gtest/gtest.h>

#include <vector>

#include "bloom/bloom_batch.h"
#include "bloom/bloom_filter.h"
#include "bloom/bloom_matrix.h"
#include "common/rng.h"
#include "obs/metrics.h"

namespace tind {
namespace {

TEST(BloomFilterTest, EmptyFilterContainsNothing) {
  const BloomFilter bf(512, 3);
  EXPECT_EQ(bf.CountSetBits(), 0u);
  EXPECT_FALSE(bf.MightContain(7));
  EXPECT_DOUBLE_EQ(bf.Density(), 0.0);
}

TEST(BloomFilterTest, NoFalseNegatives) {
  BloomFilter bf(1024, 3);
  for (ValueId v = 0; v < 100; ++v) bf.Add(v * 13 + 1);
  for (ValueId v = 0; v < 100; ++v) EXPECT_TRUE(bf.MightContain(v * 13 + 1));
}

TEST(BloomFilterTest, LowFalsePositiveRateWhenSparse) {
  BloomFilter bf(4096, 3);
  for (ValueId v = 0; v < 28; ++v) bf.Add(v);  // Paper's avg cardinality.
  int fp = 0;
  for (ValueId v = 1000; v < 11000; ++v) fp += bf.MightContain(v) ? 1 : 0;
  EXPECT_LT(fp, 50);  // << 0.5% at this density.
}

TEST(BloomFilterTest, FromValueSet) {
  const ValueSet vs{1, 2, 3};
  const BloomFilter bf = BloomFilter::FromValueSet(vs, 512, 2);
  EXPECT_TRUE(bf.MightContain(1));
  EXPECT_TRUE(bf.MightContain(2));
  EXPECT_TRUE(bf.MightContain(3));
  EXPECT_LE(bf.CountSetBits(), 6u);
}

TEST(BloomFilterTest, SubsetRelationPreserved) {
  // The core MANY property: A ⊆ B implies h(A) bits ⊆ h(B) bits.
  Rng rng(17);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<ValueId> big;
    for (int i = 0; i < 40; ++i) big.push_back(static_cast<ValueId>(rng.Uniform(100000)));
    std::vector<ValueId> small;
    for (const ValueId v : big) {
      if (rng.Bernoulli(0.4)) small.push_back(v);
    }
    const BloomFilter bf_big =
        BloomFilter::FromValueSet(ValueSet::FromUnsorted(big), 1024, 3);
    const BloomFilter bf_small =
        BloomFilter::FromValueSet(ValueSet::FromUnsorted(small), 1024, 3);
    EXPECT_TRUE(bf_small.IsSubsetOf(bf_big));
  }
}

TEST(BloomFilterTest, NonSubsetUsuallyDetected) {
  // Disjoint sets in a large filter should practically never appear
  // contained.
  const BloomFilter a =
      BloomFilter::FromValueSet(ValueSet{1, 2, 3, 4, 5}, 4096, 3);
  const BloomFilter b =
      BloomFilter::FromValueSet(ValueSet{100, 200, 300}, 4096, 3);
  EXPECT_FALSE(b.IsSubsetOf(a));
}

TEST(BloomFilterTest, DensityGrowsWithValues) {
  BloomFilter bf(512, 3);
  const double d0 = bf.Density();
  for (ValueId v = 0; v < 50; ++v) bf.Add(v);
  EXPECT_GT(bf.Density(), d0);
  EXPECT_LE(bf.Density(), 1.0);
}

TEST(BloomFilterTest, MemoryUsage) {
  const BloomFilter bf(4096, 3);
  EXPECT_EQ(bf.MemoryUsageBytes(), 4096u / 8);
}

class BloomMatrixTest : public ::testing::Test {
 protected:
  void SetUp() override {
    matrix_ = BloomMatrix(512, 3, 5);
    // Column value sets: 0:{1,2}, 1:{1,2,3}, 2:{2}, 3:{10,11}, 4:{}.
    matrix_.SetColumn(0, ValueSet{1, 2});
    matrix_.SetColumn(1, ValueSet{1, 2, 3});
    matrix_.SetColumn(2, ValueSet{2});
    matrix_.SetColumn(3, ValueSet{10, 11});
  }
  BloomMatrix matrix_;
};

TEST_F(BloomMatrixTest, Geometry) {
  EXPECT_EQ(matrix_.num_bits(), 512u);
  EXPECT_EQ(matrix_.num_hashes(), 3u);
  EXPECT_EQ(matrix_.num_columns(), 5u);
  // 512 rows x 5 columns -> one 64-byte-aligned padded group per row.
  EXPECT_EQ(matrix_.MemoryUsageBytes(), 512u * 64);
}

TEST_F(BloomMatrixTest, SupersetQueryFindsContainingColumns) {
  const BloomFilter q = matrix_.MakeQueryFilter(ValueSet{1, 2});
  BitVector candidates(5, true);
  matrix_.QuerySupersets(q, &candidates);
  EXPECT_TRUE(candidates.Get(0));
  EXPECT_TRUE(candidates.Get(1));
  EXPECT_FALSE(candidates.Get(2));
  EXPECT_FALSE(candidates.Get(3));
  EXPECT_FALSE(candidates.Get(4));
}

TEST_F(BloomMatrixTest, SupersetQueryRespectsIncomingCandidates) {
  const BloomFilter q = matrix_.MakeQueryFilter(ValueSet{1, 2});
  BitVector candidates(5);
  candidates.Set(1);  // Only column 1 allowed in.
  matrix_.QuerySupersets(q, &candidates);
  EXPECT_FALSE(candidates.Get(0));
  EXPECT_TRUE(candidates.Get(1));
}

TEST_F(BloomMatrixTest, EmptyQueryKeepsAllCandidates) {
  const BloomFilter q = matrix_.MakeQueryFilter(ValueSet());
  BitVector candidates(5, true);
  matrix_.QuerySupersets(q, &candidates);
  EXPECT_EQ(candidates.Count(), 5u);
}

TEST_F(BloomMatrixTest, SubsetQueryFindsContainedColumns) {
  // Which columns are subsets of {1,2,3}? 0, 1, 2 and the empty 4.
  const BloomFilter q = matrix_.MakeQueryFilter(ValueSet{1, 2, 3});
  BitVector candidates(5, true);
  matrix_.QuerySubsets(q, &candidates);
  EXPECT_TRUE(candidates.Get(0));
  EXPECT_TRUE(candidates.Get(1));
  EXPECT_TRUE(candidates.Get(2));
  EXPECT_FALSE(candidates.Get(3));
  EXPECT_TRUE(candidates.Get(4));
}

TEST_F(BloomMatrixTest, ColumnContains) {
  const BloomFilter q = matrix_.MakeQueryFilter(ValueSet{1, 2});
  EXPECT_TRUE(matrix_.ColumnContains(q, 0));
  EXPECT_TRUE(matrix_.ColumnContains(q, 1));
  EXPECT_FALSE(matrix_.ColumnContains(q, 3));
}

/// Randomized agreement with exact set logic: Bloom answers must be a
/// superset of the true answers (no false negatives) in both directions.
TEST(BloomMatrixPropertyTest, NeverDropsTrueAnswers) {
  Rng rng(31);
  for (int trial = 0; trial < 20; ++trial) {
    const size_t n_cols = 30;
    std::vector<ValueSet> sets;
    BloomMatrix matrix(1024, 3, n_cols);
    for (size_t c = 0; c < n_cols; ++c) {
      std::vector<ValueId> vals;
      const size_t card = 1 + rng.Uniform(20);
      for (size_t i = 0; i < card; ++i) {
        vals.push_back(static_cast<ValueId>(rng.Uniform(60)));
      }
      sets.push_back(ValueSet::FromUnsorted(std::move(vals)));
      matrix.SetColumn(c, sets.back());
    }
    std::vector<ValueId> qvals;
    for (size_t i = 0; i < 5; ++i) {
      qvals.push_back(static_cast<ValueId>(rng.Uniform(60)));
    }
    const ValueSet query = ValueSet::FromUnsorted(std::move(qvals));
    const BloomFilter qf = matrix.MakeQueryFilter(query);

    BitVector supersets(n_cols, true);
    matrix.QuerySupersets(qf, &supersets);
    BitVector subsets(n_cols, true);
    matrix.QuerySubsets(qf, &subsets);
    for (size_t c = 0; c < n_cols; ++c) {
      if (query.IsSubsetOf(sets[c])) {
        EXPECT_TRUE(supersets.Get(c)) << "trial " << trial << " col " << c;
      }
      if (sets[c].IsSubsetOf(query)) {
        EXPECT_TRUE(subsets.Get(c)) << "trial " << trial << " col " << c;
      }
    }
  }
}

/// Builds a random matrix + query filters and checks the batch kernels
/// word-for-word against the scalar reference. The geometry is chosen to
/// stress the kernel's boundaries: column counts that are not multiples of
/// 64, batch sizes straddling the 64-probe group, all-zero query filters
/// (supersets keep everything; subsets AND-NOT every row), and full-fill
/// matrices whose saturated rows defeat the early exits.
class BloomBatchPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BloomBatchPropertyTest, BatchMatchesScalarReference) {
  Rng rng(GetParam());
  // Deliberately awkward column counts (not multiples of the 64-bit word)
  // and enough columns to span several kBloomBatchBlockWords blocks.
  const size_t n_cols = 70 + rng.Uniform(1500);
  const size_t n_bits = 256;
  BloomMatrix matrix(n_bits, 3, n_cols);
  const bool full_fill = rng.Bernoulli(0.25);
  for (size_t c = 0; c < n_cols; ++c) {
    std::vector<ValueId> vals;
    const size_t card = full_fill ? 200 : rng.Uniform(12);
    for (size_t i = 0; i < card; ++i) {
      vals.push_back(static_cast<ValueId>(rng.Uniform(500)));
    }
    matrix.SetColumn(c, ValueSet::FromUnsorted(std::move(vals)));
  }
  for (const size_t batch : {size_t{1}, size_t{63}, size_t{64}, size_t{65},
                             size_t{130}}) {
    std::vector<BloomFilter> filters;
    filters.reserve(batch);
    std::vector<BitVector> batch_cand;
    std::vector<BitVector> scalar_cand;
    for (size_t b = 0; b < batch; ++b) {
      std::vector<ValueId> vals;
      // Mix empty (all-zero filter), tiny, and large query sets.
      const size_t card = b % 7 == 0 ? 0 : rng.Uniform(30);
      for (size_t i = 0; i < card; ++i) {
        vals.push_back(static_cast<ValueId>(rng.Uniform(500)));
      }
      filters.push_back(
          matrix.MakeQueryFilter(ValueSet::FromUnsorted(std::move(vals))));
      // Random (not all-true) incoming candidates: the kernels must narrow
      // whatever they are given, like the scalar calls do.
      BitVector cand(n_cols);
      for (size_t c = 0; c < n_cols; ++c) {
        if (rng.Bernoulli(0.8)) cand.Set(c);
      }
      scalar_cand.push_back(cand);
      batch_cand.push_back(std::move(cand));
    }
    for (const bool subsets : {false, true}) {
      std::vector<BitVector> batch_out = batch_cand;
      std::vector<BloomProbe> probes;
      for (size_t b = 0; b < batch; ++b) {
        probes.push_back(BloomProbe{&filters[b], &batch_out[b]});
      }
      std::vector<BitVector> scalar_out = scalar_cand;
      if (subsets) {
        matrix.QuerySubsetsBatch(probes);
        for (size_t b = 0; b < batch; ++b) {
          matrix.QuerySubsets(filters[b], &scalar_out[b]);
        }
      } else {
        matrix.QuerySupersetsBatch(probes);
        for (size_t b = 0; b < batch; ++b) {
          matrix.QuerySupersets(filters[b], &scalar_out[b]);
        }
      }
      for (size_t b = 0; b < batch; ++b) {
        for (size_t c = 0; c < n_cols; ++c) {
          ASSERT_EQ(batch_out[b].Get(c), scalar_out[b].Get(c))
              << (subsets ? "subsets" : "supersets") << " batch=" << batch
              << " b=" << b << " col=" << c << " n_cols=" << n_cols
              << " full_fill=" << full_fill;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomMatrices, BloomBatchPropertyTest,
                         ::testing::Range<uint64_t>(1, 13));

TEST(BloomBatchTest, ZeroProbesIsANoOp) {
  const BloomMatrix matrix(128, 2, 10);
  matrix.QuerySupersetsBatch(nullptr, 0);
  matrix.QuerySubsetsBatch(nullptr, 0);
}

/// Restores the global metrics enabled flag.
class MetricsEnabledGuard {
 public:
  MetricsEnabledGuard() : previous_(obs::MetricsRegistry::Global().enabled()) {
    obs::MetricsRegistry::Global().set_enabled(true);
  }
  ~MetricsEnabledGuard() {
    obs::MetricsRegistry::Global().set_enabled(previous_);
  }

 private:
  bool previous_;
};

/// Regression for the ColumnContains early exit: a miss must stop probing
/// at the first absent row instead of walking every set bit of the query
/// filter. Observed via the "bloom/column_contains_rows_probed" counter,
/// so the test has nothing to measure when metrics are compiled out.
TEST(ColumnContainsRegressionTest, EarlyExitsOnMiss) {
#if TIND_OBS_DISABLED
  GTEST_SKIP() << "probe counting requires TIND_ENABLE_METRICS=ON";
#else
  MetricsEnabledGuard metrics;
  BloomMatrix matrix(512, 3, 2);
  // Column 0 stays empty (every row zero); column 1 contains the query.
  std::vector<ValueId> vals;
  for (ValueId v = 0; v < 30; ++v) vals.push_back(v);
  const ValueSet values = ValueSet::FromUnsorted(std::move(vals));
  matrix.SetColumn(1, values);
  const BloomFilter query = matrix.MakeQueryFilter(values);
  const size_t query_bits = query.CountSetBits();
  ASSERT_GT(query_bits, 10u);

  obs::Counter* probed = obs::MetricsRegistry::Global().GetCounter(
      "bloom/column_contains_rows_probed");
  const uint64_t before_miss = probed->value();
  EXPECT_FALSE(matrix.ColumnContains(query, 0));
  const uint64_t miss_probes = probed->value() - before_miss;
  // Column 0 misses on the very first set row of the query.
  EXPECT_EQ(miss_probes, 1u);

  const uint64_t before_hit = probed->value();
  EXPECT_TRUE(matrix.ColumnContains(query, 1));
  const uint64_t hit_probes = probed->value() - before_hit;
  // A hit has no early exit: every set bit of the query filter is probed.
  EXPECT_EQ(hit_probes, query_bits);
  EXPECT_LT(miss_probes, hit_probes);
#endif
}

}  // namespace
}  // namespace tind
