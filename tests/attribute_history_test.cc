#include "temporal/attribute_history.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/rng.h"
#include "temporal/dataset.h"

namespace tind {
namespace {

AttributeHistory MakeHistory(
    const TimeDomain& domain,
    const std::vector<std::pair<Timestamp, ValueSet>>& versions,
    AttributeId id = 0) {
  AttributeHistoryBuilder b(id, AttributeMeta{"p", "t", "c"}, domain);
  for (const auto& [ts, values] : versions) {
    EXPECT_TRUE(b.AddVersion(ts, values).ok());
  }
  auto result = b.Finish();
  EXPECT_TRUE(result.ok());
  return std::move(result).ValueOrDie();
}

TEST(AttributeHistoryBuilderTest, RejectsOutOfDomainTimestamp) {
  AttributeHistoryBuilder b(0, {}, TimeDomain(10));
  EXPECT_TRUE(b.AddVersion(10, ValueSet{1}).IsInvalidArgument());
  EXPECT_TRUE(b.AddVersion(-1, ValueSet{1}).IsInvalidArgument());
}

TEST(AttributeHistoryBuilderTest, RejectsDecreasingTimestamps) {
  AttributeHistoryBuilder b(0, {}, TimeDomain(10));
  ASSERT_TRUE(b.AddVersion(5, ValueSet{1}).ok());
  EXPECT_TRUE(b.AddVersion(4, ValueSet{2}).IsInvalidArgument());
}

TEST(AttributeHistoryBuilderTest, SameDayLaterObservationWins) {
  AttributeHistoryBuilder b(0, {}, TimeDomain(10));
  ASSERT_TRUE(b.AddVersion(2, ValueSet{1}).ok());
  ASSERT_TRUE(b.AddVersion(2, ValueSet{2}).ok());
  const auto h = b.Finish();
  ASSERT_TRUE(h.ok());
  EXPECT_EQ(h->num_versions(), 1u);
  EXPECT_EQ(h->VersionAt(2), (ValueSet{2}));
}

TEST(AttributeHistoryBuilderTest, SameDayOverwriteCoalescesWithPredecessor) {
  AttributeHistoryBuilder b(0, {}, TimeDomain(10));
  ASSERT_TRUE(b.AddVersion(1, ValueSet{7}).ok());
  ASSERT_TRUE(b.AddVersion(3, ValueSet{8}).ok());
  ASSERT_TRUE(b.AddVersion(3, ValueSet{7}).ok());  // Back to the old value.
  const auto h = b.Finish();
  ASSERT_TRUE(h.ok());
  EXPECT_EQ(h->num_versions(), 1u);
}

TEST(AttributeHistoryBuilderTest, CoalescesIdenticalConsecutiveVersions) {
  AttributeHistoryBuilder b(0, {}, TimeDomain(10));
  ASSERT_TRUE(b.AddVersion(1, ValueSet{1, 2}).ok());
  ASSERT_TRUE(b.AddVersion(5, ValueSet{2, 1}).ok());  // Same set.
  ASSERT_TRUE(b.AddVersion(7, ValueSet{3}).ok());
  const auto h = b.Finish();
  ASSERT_TRUE(h.ok());
  EXPECT_EQ(h->num_versions(), 2u);
}

TEST(AttributeHistoryBuilderTest, LeadingEmptyObservationSkipped) {
  AttributeHistoryBuilder b(0, {}, TimeDomain(10));
  ASSERT_TRUE(b.AddVersion(1, ValueSet()).ok());
  ASSERT_TRUE(b.AddVersion(3, ValueSet{1}).ok());
  const auto h = b.Finish();
  ASSERT_TRUE(h.ok());
  EXPECT_EQ(h->birth(), 3);
}

TEST(AttributeHistoryBuilderTest, EmptyHistoryFails) {
  AttributeHistoryBuilder b(0, {}, TimeDomain(10));
  EXPECT_TRUE(b.Finish().status().IsInvalidArgument());
}

TEST(AttributeHistoryBuilderTest, DoubleFinishFails) {
  AttributeHistoryBuilder b(0, {}, TimeDomain(10));
  ASSERT_TRUE(b.AddVersion(0, ValueSet{1}).ok());
  ASSERT_TRUE(b.Finish().ok());
  EXPECT_TRUE(b.Finish().status().IsFailedPrecondition());
  EXPECT_TRUE(b.AddVersion(5, ValueSet{2}).IsFailedPrecondition());
}

TEST(AttributeHistoryTest, VersionAtResolvesByBinarySearch) {
  const TimeDomain domain(20);
  const AttributeHistory h = MakeHistory(
      domain, {{2, ValueSet{1}}, {5, ValueSet{1, 2}}, {10, ValueSet{3}}});
  EXPECT_TRUE(h.VersionAt(0).empty());  // Before birth: unobservable.
  EXPECT_TRUE(h.VersionAt(1).empty());
  EXPECT_EQ(h.VersionAt(2), (ValueSet{1}));
  EXPECT_EQ(h.VersionAt(4), (ValueSet{1}));
  EXPECT_EQ(h.VersionAt(5), (ValueSet{1, 2}));
  EXPECT_EQ(h.VersionAt(9), (ValueSet{1, 2}));
  EXPECT_EQ(h.VersionAt(10), (ValueSet{3}));
  EXPECT_EQ(h.VersionAt(19), (ValueSet{3}));  // Last version persists.
}

TEST(AttributeHistoryTest, CountsAndBirth) {
  const TimeDomain domain(20);
  const AttributeHistory h = MakeHistory(
      domain, {{2, ValueSet{1}}, {5, ValueSet{2}}, {10, ValueSet{3}}});
  EXPECT_EQ(h.num_versions(), 3u);
  EXPECT_EQ(h.num_changes(), 2u);  // 3 versions == 2 changes.
  EXPECT_EQ(h.birth(), 2);
  EXPECT_EQ(h.LifetimeTimestamps(), 18);
}

TEST(AttributeHistoryTest, ValidityIntervals) {
  const TimeDomain domain(20);
  const AttributeHistory h =
      MakeHistory(domain, {{2, ValueSet{1}}, {5, ValueSet{2}}});
  EXPECT_EQ(h.ValidityInterval(0), (Interval{2, 4}));
  EXPECT_EQ(h.ValidityInterval(1), (Interval{5, 19}));
}

TEST(AttributeHistoryTest, VersionRangeInInterval) {
  const TimeDomain domain(30);
  const AttributeHistory h = MakeHistory(
      domain, {{5, ValueSet{1}}, {10, ValueSet{2}}, {20, ValueSet{3}}});
  // Entirely before birth.
  EXPECT_EQ(h.VersionRangeInInterval(Interval{0, 4}).second, -1);
  // Spanning birth.
  EXPECT_EQ(h.VersionRangeInInterval(Interval{0, 7}), (std::pair<int64_t, int64_t>{0, 0}));
  // Middle.
  EXPECT_EQ(h.VersionRangeInInterval(Interval{6, 12}),
            (std::pair<int64_t, int64_t>{0, 1}));
  // All.
  EXPECT_EQ(h.VersionRangeInInterval(Interval{0, 29}),
            (std::pair<int64_t, int64_t>{0, 2}));
  // Clamping beyond the domain.
  EXPECT_EQ(h.VersionRangeInInterval(Interval{25, 99}),
            (std::pair<int64_t, int64_t>{2, 2}));
  // Single timestamp.
  EXPECT_EQ(h.VersionRangeInInterval(Interval{10, 10}),
            (std::pair<int64_t, int64_t>{1, 1}));
}

TEST(AttributeHistoryTest, UnionInInterval) {
  const TimeDomain domain(30);
  const AttributeHistory h = MakeHistory(
      domain, {{5, ValueSet{1}}, {10, ValueSet{2}}, {20, ValueSet{3}}});
  EXPECT_EQ(h.UnionInInterval(Interval{0, 4}), ValueSet());
  EXPECT_EQ(h.UnionInInterval(Interval{5, 9}), (ValueSet{1}));
  EXPECT_EQ(h.UnionInInterval(Interval{9, 10}), (ValueSet{1, 2}));
  EXPECT_EQ(h.UnionInInterval(Interval{0, 29}), (ValueSet{1, 2, 3}));
  EXPECT_EQ(h.UnionInInterval(Interval{-5, 6}), (ValueSet{1}));
}

TEST(AttributeHistoryTest, AllValuesCached) {
  const TimeDomain domain(10);
  const AttributeHistory h =
      MakeHistory(domain, {{0, ValueSet{1, 2}}, {5, ValueSet{2, 3}}});
  EXPECT_EQ(h.AllValues(), (ValueSet{1, 2, 3}));
}

TEST(AttributeHistoryTest, MedianCardinality) {
  const TimeDomain domain(10);
  const AttributeHistory h = MakeHistory(
      domain,
      {{0, ValueSet{1}}, {2, ValueSet{1, 2, 3}}, {4, ValueSet{1, 2, 3, 4, 5}}});
  EXPECT_EQ(h.MedianCardinality(), 3u);
}

TEST(AttributeHistoryTest, ForEachVersionCoversTimeline) {
  const TimeDomain domain(10);
  const AttributeHistory h =
      MakeHistory(domain, {{1, ValueSet{1}}, {6, ValueSet{2}}});
  std::vector<Interval> intervals;
  h.ForEachVersion([&](const ValueSet&, const Interval& i) {
    intervals.push_back(i);
  });
  ASSERT_EQ(intervals.size(), 2u);
  EXPECT_EQ(intervals[0], (Interval{1, 5}));
  EXPECT_EQ(intervals[1], (Interval{6, 9}));
}

TEST(AttributeHistoryTest, DeletionYieldsEmptyVersion) {
  const TimeDomain domain(10);
  AttributeHistoryBuilder b(0, {}, domain);
  ASSERT_TRUE(b.AddVersion(1, ValueSet{1}).ok());
  ASSERT_TRUE(b.AddDeletion(5).ok());
  const auto h = b.Finish();
  ASSERT_TRUE(h.ok());
  EXPECT_EQ(h->num_versions(), 2u);
  EXPECT_TRUE(h->VersionAt(7).empty());
  EXPECT_EQ(h->VersionAt(3), (ValueSet{1}));
}

TEST(AttributeHistoryTest, MetaAndId) {
  const TimeDomain domain(5);
  AttributeHistoryBuilder b(42, AttributeMeta{"Page", "Table", "Col"}, domain);
  ASSERT_TRUE(b.AddVersion(0, ValueSet{1}).ok());
  const auto h = b.Finish();
  ASSERT_TRUE(h.ok());
  EXPECT_EQ(h->id(), 42u);
  EXPECT_EQ(h->meta().FullName(), "Page/Table/Col");
}

/// The side of the size rule A[T] falls on: a bitmap over ids [0, max] that
/// costs at most kDenseMembershipRatio times the sorted list's bytes.
bool DenseBySizeRule(const ValueSet& all) {
  if (all.empty()) return false;
  const size_t words = all.values().back() / 64 + 1;
  return words * sizeof(uint64_t) <= AttributeHistory::kDenseMembershipRatio *
                                         all.size() * sizeof(ValueId);
}

/// HoldsAll must equal IsSubsetOf(AllValues()) on the empty set, on random
/// subsets of A[T], on those subsets plus one id that may be missing (in
/// A[T]'s range, in the bitmap's last word, past it, at the top of the id
/// space) and on random sets over the whole range.
void ExpectHoldsAllMatchesIsSubsetOf(const AttributeHistory& h, Rng* rng,
                                     const std::string& context) {
  const ValueSet& all = h.AllValues();
  EXPECT_EQ(h.has_dense_membership(), DenseBySizeRule(all)) << context;
  const auto check = [&](std::vector<ValueId> ids) {
    const ValueSet q = ValueSet::FromUnsorted(std::move(ids));
    EXPECT_EQ(h.HoldsAll(q), q.IsSubsetOf(all))
        << context << " |q|=" << q.size();
  };
  check({});
  const ValueId max_id = all.empty() ? 0 : all.values().back();
  const ValueId past_last_word = (max_id / 64 + 1) * 64;
  check({max_id + 1});
  check({past_last_word - 1});
  check({past_last_word});
  check({kInvalidValueId - 1});
  for (int trial = 0; trial < 40; ++trial) {
    std::vector<ValueId> ids;
    for (const ValueId v : all.values()) {
      if (rng->Bernoulli(0.3)) ids.push_back(v);
    }
    check(ids);
    for (const ValueId extra :
         {static_cast<ValueId>(rng->Uniform(uint64_t{max_id} + 2)),
          static_cast<ValueId>(past_last_word + rng->Uniform(1000)),
          kInvalidValueId - 1}) {
      std::vector<ValueId> with_extra = ids;
      with_extra.push_back(extra);
      check(std::move(with_extra));
    }
    std::vector<ValueId> anywhere;
    for (uint64_t k = rng->Uniform(4); k > 0; --k) {
      anywhere.push_back(
          static_cast<ValueId>(rng->Uniform(uint64_t{past_last_word} + 64)));
    }
    check(std::move(anywhere));
  }
}

TEST(AttributeHistoryHoldsAllTest, MatchesIsSubsetOfOnBothSidesOfSizeRule) {
  const TimeDomain domain(100);
  Rng rng(2024);
  size_t dense = 0;
  size_t sparse = 0;
  constexpr uint64_t kUniverses[] = {64, 500, 5000, 100000};
  for (int trial = 0; trial < 200; ++trial) {
    const uint64_t universe = kUniverses[rng.Uniform(4)];
    AttributeHistoryBuilder b(0, {}, domain);
    const uint64_t versions = 1 + rng.Uniform(4);
    for (uint64_t v = 0; v < versions; ++v) {
      std::vector<ValueId> ids;
      for (uint64_t k = 1 + rng.Uniform(300); k > 0; --k) {
        ids.push_back(static_cast<ValueId>(rng.Uniform(universe)));
      }
      ASSERT_TRUE(b.AddVersion(static_cast<Timestamp>(10 * v),
                               ValueSet::FromUnsorted(std::move(ids)))
                      .ok());
    }
    const AttributeHistory h = std::move(b.Finish()).ValueOrDie();
    (h.has_dense_membership() ? dense : sparse) += 1;
    ExpectHoldsAllMatchesIsSubsetOf(h, &rng,
                                    "trial " + std::to_string(trial));
  }
  EXPECT_GT(dense, 20u);
  EXPECT_GT(sparse, 20u);
}

TEST(AttributeHistoryHoldsAllTest, SizeRuleBoundary) {
  // n values: a maximum of 64n - 1 needs n words (8n bytes, twice the list's
  // 4n) and keeps the bitmap; a maximum of 64n needs one word more.
  const TimeDomain domain(10);
  Rng rng(7);
  for (const ValueId n : {1u, 2u, 10u, 100u}) {
    for (const ValueId max_id : {64 * n - 1, 64 * n}) {
      std::vector<ValueId> ids;
      for (ValueId v = 0; v + 1 < n; ++v) ids.push_back(v);
      ids.push_back(max_id);
      const AttributeHistory h = MakeHistory(
          domain, {{0, ValueSet::FromSorted(std::move(ids))}});
      EXPECT_EQ(h.has_dense_membership(), max_id < 64 * n) << max_id;
      ExpectHoldsAllMatchesIsSubsetOf(h, &rng,
                                      "max_id " + std::to_string(max_id));
    }
  }
}

TEST(AttributeHistoryHoldsAllTest, AppendMaintainsTheBitmap) {
  const TimeDomain domain(100);
  Rng rng(11);
  std::vector<ValueId> base;
  for (ValueId v = 0; v < 100; ++v) base.push_back(v);
  AttributeHistory h =
      MakeHistory(domain, {{0, ValueSet::FromSorted(base)}});
  ASSERT_TRUE(h.has_dense_membership());

  // A new maximum that the size rule still allows: the bitmap widens.
  ASSERT_TRUE(h.AppendVersion(10, ValueSet{5000}).ok());
  EXPECT_TRUE(h.has_dense_membership());
  EXPECT_TRUE(h.HoldsAll(ValueSet{0, 99, 5000}));
  EXPECT_FALSE(h.HoldsAll(ValueSet{4999}));
  EXPECT_FALSE(h.HoldsAll(ValueSet{5001}));
  ExpectHoldsAllMatchesIsSubsetOf(h, &rng, "widened");

  // A maximum past the size rule: the bitmap is dropped.
  ASSERT_TRUE(h.AppendVersion(20, ValueSet{200000}).ok());
  EXPECT_FALSE(h.has_dense_membership());
  EXPECT_TRUE(h.HoldsAll(ValueSet{5, 5000, 200000}));
  ExpectHoldsAllMatchesIsSubsetOf(h, &rng, "dropped");

  // A same-day overwrite takes the far value back out: dense again.
  ASSERT_TRUE(h.AppendVersion(20, ValueSet{7}).ok());
  EXPECT_TRUE(h.has_dense_membership());
  EXPECT_FALSE(h.HoldsAll(ValueSet{200000}));
  ExpectHoldsAllMatchesIsSubsetOf(h, &rng, "overwritten");

  // A retire (empty version) keeps A[T] and its bitmap.
  const ValueSet before = h.AllValues();
  ASSERT_TRUE(h.AppendVersion(30, ValueSet()).ok());
  EXPECT_TRUE(h.VersionAt(30).empty());
  EXPECT_EQ(h.AllValues(), before);
  EXPECT_TRUE(h.has_dense_membership());
  EXPECT_TRUE(h.HoldsAll(before));
  ExpectHoldsAllMatchesIsSubsetOf(h, &rng, "retired");
}

TEST(AttributeHistoryHoldsAllTest, CoalescedSameDayAppendShrinksTheBitmap) {
  const TimeDomain domain(100);
  Rng rng(13);
  std::vector<ValueId> base;
  for (ValueId v = 0; v < 100; ++v) base.push_back(v);
  AttributeHistory h =
      MakeHistory(domain, {{0, ValueSet::FromSorted(base)}});
  std::vector<ValueId> grown = base;
  grown.push_back(6000);
  ASSERT_TRUE(h.AppendVersion(5, ValueSet::FromSorted(grown)).ok());
  EXPECT_TRUE(h.HoldsAll(ValueSet{6000}));
  // The same day, back to the first version: the two coalesce, and 6000
  // leaves A[T] and its bitmap.
  ASSERT_TRUE(h.AppendVersion(5, ValueSet::FromSorted(base)).ok());
  EXPECT_EQ(h.num_versions(), 1u);
  EXPECT_TRUE(h.has_dense_membership());
  EXPECT_FALSE(h.HoldsAll(ValueSet{6000}));
  EXPECT_TRUE(h.HoldsAll(ValueSet::FromSorted(base)));
  ExpectHoldsAllMatchesIsSubsetOf(h, &rng, "coalesced");
  // An append equal to the last version is a no-op.
  ASSERT_TRUE(h.AppendVersion(8, ValueSet::FromSorted(base)).ok());
  ExpectHoldsAllMatchesIsSubsetOf(h, &rng, "unchanged");
}

TEST(AttributeHistoryHoldsAllTest, MemoryUsageCountsTheBitmap) {
  const TimeDomain domain(10);
  std::vector<ValueId> ids;
  for (ValueId v = 0; v < 1000; ++v) ids.push_back(v);
  const AttributeHistory h =
      MakeHistory(domain, {{0, ValueSet::FromSorted(std::move(ids))}});
  ASSERT_TRUE(h.has_dense_membership());
  const size_t lists = h.change_timestamps().capacity() * sizeof(Timestamp) +
                       h.versions()[0].MemoryUsageBytes() +
                       h.AllValues().MemoryUsageBytes();
  EXPECT_GE(h.MemoryUsageBytes(), lists + 16 * sizeof(uint64_t));
}

TEST(DatasetTest, StatsComputation) {
  Dataset dataset(TimeDomain(365 * 4), std::make_shared<ValueDictionary>());
  ValueDictionary* dict = dataset.mutable_dictionary();
  const ValueId a = dict->Intern("a");
  const ValueId b = dict->Intern("b");
  AttributeHistoryBuilder b0(0, {}, dataset.domain());
  ASSERT_TRUE(b0.AddVersion(0, ValueSet{a}).ok());
  ASSERT_TRUE(b0.AddVersion(10, ValueSet{a, b}).ok());
  dataset.Add(std::move(*b0.Finish()));
  AttributeHistoryBuilder b1(1, {}, dataset.domain());
  ASSERT_TRUE(b1.AddVersion(365 * 2, ValueSet{b}).ok());
  dataset.Add(std::move(*b1.Finish()));

  const DatasetStats stats = dataset.ComputeStats();
  EXPECT_EQ(stats.num_attributes, 2u);
  EXPECT_EQ(stats.num_distinct_values, 2u);
  EXPECT_DOUBLE_EQ(stats.avg_changes, 0.5);  // (1 + 0) / 2.
  EXPECT_EQ(stats.total_versions, 3u);
  // Avg cardinality: (1 + 2 + 1) / 3.
  EXPECT_NEAR(stats.avg_version_cardinality, 4.0 / 3, 1e-12);
  // Lifetimes: 1460 and 730 days -> avg 1095 days = 3 years.
  EXPECT_NEAR(stats.avg_lifetime_years, 1095.0 / 365.25, 1e-9);
  EXPECT_GT(stats.memory_bytes, 0u);
}

}  // namespace
}  // namespace tind
