/// Structural sharing between live-ingest epochs: ApplyDeltaToDataset keeps
/// every history a delta does not touch as the same object in both epochs,
/// clones the touched ones, and derives the dictionary from a shared base
/// plus a private overlay that must read exactly like one flat dictionary.
/// A rejected delta must leave no trace in the base epoch.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "temporal/weights.h"
#include "test_util.h"
#include "tind/index.h"
#include "tind/update.h"
#include "wiki/generator.h"

namespace tind {
namespace {

Dataset MakeCorpus(uint64_t seed) {
  wiki::GeneratorOptions gen;
  gen.seed = seed;
  gen.num_days = 120;
  gen.num_families = 3;
  gen.num_noise_attributes = 14;
  gen.num_drifter_attributes = 6;
  gen.num_catchall_attributes = 2;
  gen.shared_vocabulary = 100;
  gen.entities_per_family_pool = 60;
  auto generated = wiki::WikiGenerator(gen).GenerateDataset();
  EXPECT_TRUE(generated.ok());
  return std::move(generated->dataset);
}

/// A timestamp at which `attribute` accepts an append.
Timestamp AppendTime(const Dataset& ds, AttributeId attribute) {
  return std::min(
      ds.domain().last(),
      std::max<Timestamp>(
          ds.attribute(attribute).change_timestamps().back() + 1,
          ds.domain().last() - 20));
}

RevisionOp Append(AttributeId attribute, Timestamp t,
                  std::vector<std::string> values) {
  RevisionOp op;
  op.kind = RevisionOp::Kind::kAppendVersion;
  op.attribute = attribute;
  op.timestamp = t;
  op.values = std::move(values);
  return op;
}

RevisionOp AddAttribute(std::vector<std::string> values) {
  RevisionOp op;
  op.kind = RevisionOp::Kind::kAddAttribute;
  op.meta = AttributeMeta{"added", "t", "c"};
  op.versions.emplace_back(0, std::move(values));
  return op;
}

void ExpectSameContent(const AttributeHistory& a, const AttributeHistory& b) {
  EXPECT_EQ(a.id(), b.id());
  EXPECT_EQ(a.change_timestamps(), b.change_timestamps());
  EXPECT_EQ(a.versions(), b.versions());
  EXPECT_EQ(a.AllValues(), b.AllValues());
}

/// Every id, string, byte and digest of `layered` equals `flat`'s.
void ExpectSameDictionary(const ValueDictionary& layered,
                          const ValueDictionary& flat) {
  ASSERT_EQ(layered.size(), flat.size());
  for (ValueId id = 0; id < flat.size(); ++id) {
    EXPECT_EQ(layered.GetString(id), flat.GetString(id));
    EXPECT_EQ(layered.Lookup(flat.GetString(id)), id);
  }
  EXPECT_EQ(layered.Lookup("never-interned"), kInvalidValueId);
  std::string layered_bytes, flat_bytes;
  layered.SerializeTo(&layered_bytes);
  flat.SerializeTo(&flat_bytes);
  EXPECT_EQ(layered_bytes, flat_bytes);
  EXPECT_EQ(layered.ContentDigest(), flat.ContentDigest());
}

TEST(EpochSharingTest, UntouchedHistoriesAreSharedTouchedOnesCloned) {
  const Dataset base = MakeCorpus(41);
  // An attribute with room for two appends, and the next one to retire.
  AttributeId appended = 0;
  while (AppendTime(base, appended) >= base.domain().last()) ++appended;
  const AttributeId retired = appended + 1;
  ASSERT_LT(retired, base.size());
  const AttributeHistory appended_before = base.attribute(appended);
  const AttributeHistory retired_before = base.attribute(retired);
  const Timestamp t = AppendTime(base, appended);
  RevisionDelta delta;
  delta.ops.push_back(Append(appended, t, {"fresh-a"}));
  delta.ops.push_back(Append(appended, t + 1, {"fresh-b"}));
  RevisionOp retire;
  retire.kind = RevisionOp::Kind::kRetireAttribute;
  retire.attribute = retired;
  retire.timestamp = AppendTime(base, retired);
  delta.ops.push_back(retire);
  delta.ops.push_back(AddAttribute({"fresh-c"}));

  auto applied = ApplyDeltaToDataset(base, delta);
  ASSERT_TRUE(applied.ok()) << applied.status().ToString();
  const Dataset& next = *applied->dataset;
  ASSERT_EQ(next.size(), base.size() + 1);
  for (AttributeId id = 0; id < base.size(); ++id) {
    if (id == appended || id == retired) {
      EXPECT_NE(&base.attribute(id), &next.attribute(id)) << id;
    } else {
      EXPECT_EQ(&base.attribute(id), &next.attribute(id)) << id;
    }
  }
  // The base keeps its old content; the next epoch holds the new one.
  ExpectSameContent(base.attribute(appended), appended_before);
  ExpectSameContent(base.attribute(retired), retired_before);
  EXPECT_EQ(next.attribute(appended).num_versions(),
            appended_before.num_versions() + 2);
  EXPECT_TRUE(
      next.attribute(retired).VersionAt(base.domain().last()).empty());
  EXPECT_EQ(next.attribute(static_cast<AttributeId>(base.size())).meta().page,
            "added");

  // The index path hands out the same shared dataset.
  const ConstantWeight weight(base.domain().num_timestamps());
  TindIndexOptions options;
  options.bloom_bits = 512;
  options.num_slices = 4;
  options.weight = &weight;
  auto built = TindIndex::Build(base, options);
  ASSERT_TRUE(built.ok());
  auto updated = IndexUpdater::ApplyDelta(**built, delta);
  ASSERT_TRUE(updated.ok()) << updated.status().ToString();
  EXPECT_EQ(&updated->dataset->attribute(retired + 1),
            &base.attribute(retired + 1));
  EXPECT_NE(&updated->dataset->attribute(appended),
            &base.attribute(appended));
  EXPECT_EQ(&updated->index->dataset(), updated->dataset.get());
}

TEST(EpochSharingTest, LayeredDictionaryReadsLikeAFlatOneAcrossFolds) {
  // A 3-string base and 2 new strings per delta: over 24 deltas the overlay
  // outgrows its base, and so folds into a new one, several times.
  Dataset base(TimeDomain(100), std::make_shared<ValueDictionary>());
  ValueDictionary flat;
  for (const char* s : {"base-0", "base-1", "base-2"}) {
    base.mutable_dictionary()->Intern(s);
    flat.Intern(s);
  }
  base.Add(testutil::MakeHistory(base.domain(), {{0, ValueSet{0, 1}}}, 0));
  base.Add(testutil::MakeHistory(base.domain(), {{0, ValueSet{1, 2}}}, 1));

  std::vector<std::shared_ptr<const Dataset>> epochs;
  std::vector<std::string> flat_bytes;  // The flat dictionary at each epoch.
  const Dataset* current = &base;
  for (int k = 0; k < 24; ++k) {
    const std::vector<std::string> values = {
        "v" + std::to_string(k) + "a", "base-1",
        "v" + std::to_string(k) + "b"};
    RevisionDelta delta;
    delta.ops.push_back(
        Append(static_cast<AttributeId>(k % 2), 10 + k, values));
    auto applied = ApplyDeltaToDataset(*current, delta);
    ASSERT_TRUE(applied.ok()) << applied.status().ToString();
    for (const std::string& s : values) flat.Intern(s);
    ExpectSameDictionary(applied->dataset->dictionary(), flat);
    epochs.push_back(applied->dataset);
    flat_bytes.emplace_back();
    flat.SerializeTo(&flat_bytes.back());
    current = epochs.back().get();
  }
  // No later epoch wrote into an earlier one's dictionary.
  EXPECT_EQ(base.dictionary().size(), 3u);
  for (size_t k = 0; k < epochs.size(); ++k) {
    std::string bytes;
    epochs[k]->dictionary().SerializeTo(&bytes);
    EXPECT_EQ(bytes, flat_bytes[k]) << "epoch " << k;
  }
  // The last epoch's bytes load back into the same dictionary.
  auto loaded = ValueDictionary::Deserialize(flat_bytes.back());
  ASSERT_TRUE(loaded.ok());
  ExpectSameDictionary(*loaded, flat);
}

TEST(EpochSharingTest, CopiesInternIndependently) {
  ValueDictionary original;
  original.Intern("a");
  original.Intern("b");
  ValueDictionary copy = original;
  // The original's base is shared now: both sides intern into overlays.
  EXPECT_EQ(original.Intern("only-original"), 2u);
  EXPECT_EQ(copy.Intern("only-copy"), 2u);
  EXPECT_EQ(copy.Intern("a"), 0u);
  EXPECT_EQ(original.Lookup("only-copy"), kInvalidValueId);
  EXPECT_EQ(copy.Lookup("only-original"), kInvalidValueId);
  EXPECT_EQ(original.GetString(2), "only-original");
  EXPECT_EQ(copy.GetString(2), "only-copy");
  EXPECT_EQ(original.size(), 3u);
  EXPECT_EQ(copy.size(), 3u);
}

TEST(EpochSharingTest, FailedDeltaLeavesNoTrace) {
  const Dataset base = MakeCorpus(43);
  std::vector<AttributeHistory> histories_before;
  std::vector<const AttributeHistory*> objects_before;
  for (const AttributeHistory& h : base.attributes()) {
    histories_before.push_back(h);
    objects_before.push_back(&h);
  }
  const size_t dict_size = base.dictionary().size();
  const uint64_t dict_digest = base.dictionary().ContentDigest();

  // The earlier ops append a version, add an attribute and intern new
  // strings; the last op names an unknown attribute and rejects the delta.
  RevisionDelta failing;
  failing.ops.push_back(Append(2, AppendTime(base, 2), {"lost-1", "lost-2"}));
  failing.ops.push_back(AddAttribute({"lost-3"}));
  failing.ops.push_back(Append(static_cast<AttributeId>(base.size() + 7),
                               AppendTime(base, 2), {"lost-4"}));
  EXPECT_TRUE(ApplyDeltaToDataset(base, failing).status().IsInvalidArgument());

  ASSERT_EQ(base.size(), histories_before.size());
  for (AttributeId id = 0; id < base.size(); ++id) {
    EXPECT_EQ(&base.attribute(id), objects_before[id]);
    ExpectSameContent(base.attribute(id), histories_before[id]);
  }
  EXPECT_EQ(base.dictionary().size(), dict_size);
  EXPECT_EQ(base.dictionary().ContentDigest(), dict_digest);
  EXPECT_EQ(base.dictionary().Lookup("lost-1"), kInvalidValueId);

  // The next good delta assigns the ids of a chain that never saw the
  // failed one.
  RevisionDelta good;
  good.ops.push_back(Append(2, AppendTime(base, 2), {"lost-2", "kept-1"}));
  good.ops.push_back(AddAttribute({"kept-2", "lost-1"}));
  auto after_failure = ApplyDeltaToDataset(base, good);
  ASSERT_TRUE(after_failure.ok()) << after_failure.status().ToString();
  const Dataset clean_base = MakeCorpus(43);
  auto clean = ApplyDeltaToDataset(clean_base, good);
  ASSERT_TRUE(clean.ok()) << clean.status().ToString();
  ExpectSameDictionary(after_failure->dataset->dictionary(),
                       clean->dataset->dictionary());
  EXPECT_EQ(after_failure->dataset->dictionary().Lookup("lost-2"),
            static_cast<ValueId>(dict_size));
  ASSERT_EQ(after_failure->dataset->size(), clean->dataset->size());
  for (AttributeId id = 0; id < clean->dataset->size(); ++id) {
    ExpectSameContent(after_failure->dataset->attribute(id),
                      clean->dataset->attribute(id));
  }
}

}  // namespace
}  // namespace tind
