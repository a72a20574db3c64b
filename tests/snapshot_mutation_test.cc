/// \file snapshot_mutation_test.cc
/// Seeded mutation test of the snapshot reader. Seeds are small saved
/// indexes, with and without the reverse index; each is mutated by bit
/// flips (anywhere, or inside one section), truncations, count-field
/// tampering and section-table tampering. Most mutants then get their
/// section, table and header CRCs (and the header's file size) repaired, so
/// they reach the per-section validators instead of stopping at a CRC.
/// For every mutant:
///  * VerifySnapshot and LoadSnapshot (checksums on and off) return, never
///    throw, and every rejection is IOError, InvalidArgument or
///    FailedPrecondition;
///  * when VerifySnapshot accepts, neither load rejects the file with
///    IOError or InvalidArgument, and when it rejects, the checked load
///    rejects too;
///  * an index that loads answers a forward and a reverse search.
/// Fixed seeds keep it deterministic.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <fstream>
#include <iterator>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "common/crc32.h"
#include "temporal/dataset.h"
#include "snapshot/snapshot.h"
#include "snapshot/snapshot_format.h"
#include "temporal/weights.h"
#include "tind/index.h"
#include "wiki/generator.h"

namespace tind {
namespace {

using snapshot::FileHeader;
using snapshot::SectionEntry;

constexpr size_t kMutantsPerSeed = 700;

std::string ReadFileBytes(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(is),
                     std::istreambuf_iterator<char>());
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// The section table of a well-formed snapshot.
std::vector<SectionEntry> TableOf(const std::string& bytes) {
  FileHeader header;
  std::memcpy(&header, bytes.data(), sizeof(header));
  std::vector<SectionEntry> table(header.section_count);
  std::memcpy(table.data(), bytes.data() + sizeof(header),
              table.size() * sizeof(SectionEntry));
  return table;
}

SectionEntry FindEntry(const std::vector<SectionEntry>& table, uint32_t id) {
  for (const SectionEntry& entry : table) {
    if (entry.id == id) return entry;
  }
  ADD_FAILURE() << "no section " << id;
  return {};
}

/// Recomputes every in-bounds section CRC, then the table CRC, the header's
/// file size and the header CRC, as far as the (possibly mutated) header
/// and table allow.
void RepairChecksums(std::string* bytes) {
  if (bytes->size() < sizeof(FileHeader)) return;
  FileHeader header;
  std::memcpy(&header, bytes->data(), sizeof(header));
  header.file_size = bytes->size();
  const uint64_t table_bytes =
      static_cast<uint64_t>(header.section_count) * sizeof(SectionEntry);
  if (table_bytes <= bytes->size() - sizeof(FileHeader)) {
    char* table = bytes->data() + sizeof(FileHeader);
    for (uint32_t i = 0; i < header.section_count; ++i) {
      SectionEntry entry;
      std::memcpy(&entry, table + i * sizeof(entry), sizeof(entry));
      if (entry.offset > bytes->size() ||
          entry.size > bytes->size() - entry.offset) {
        continue;
      }
      entry.crc32 = Crc32Of(std::string_view(bytes->data() + entry.offset,
                                             entry.size));
      std::memcpy(table + i * sizeof(entry), &entry, sizeof(entry));
    }
    header.section_table_crc =
        Crc32Of(std::string_view(table, table_bytes));
  }
  header.header_crc = snapshot::HeaderCrc(header);
  std::memcpy(bytes->data(), &header, sizeof(header));
}

void PutU64(std::string* bytes, uint64_t at, uint64_t value) {
  if (at + sizeof(value) <= bytes->size()) {
    std::memcpy(bytes->data() + at, &value, sizeof(value));
  }
}

uint64_t GetU64(const std::string& bytes, uint64_t at) {
  uint64_t value = 0;
  if (at + sizeof(value) <= bytes.size()) {
    std::memcpy(&value, bytes.data() + at, sizeof(value));
  }
  return value;
}

/// True when the required-value section holds an empty set.
bool HasEmptyRequiredValueSet(const std::string& bytes,
                              const std::vector<SectionEntry>& table) {
  const SectionEntry entry =
      FindEntry(table, snapshot::kSectionRequiredValues);
  uint64_t at = entry.offset + sizeof(uint64_t);
  for (uint64_t c = 0, count = GetU64(bytes, entry.offset); c < count; ++c) {
    const uint64_t n = GetU64(bytes, at);
    if (n == 0) return true;
    at += sizeof(uint64_t) + n * sizeof(ValueId);
  }
  return false;
}

/// One mutation of `seed` drawn from `rng`; sets `*repair` when the CRCs
/// should be fixed up afterwards.
std::string Mutate(const std::string& seed,
                   const std::vector<SectionEntry>& table,
                   std::mt19937_64& rng, bool* repair) {
  std::string m = seed;
  const auto pick = [&rng](uint64_t n) { return n == 0 ? 0 : rng() % n; };
  const SectionEntry& s = table[pick(table.size())];
  const auto hostile = [&](uint64_t original) {
    static constexpr uint64_t kValues[] = {
        0, 1, 2, 0xFF, 1ull << 32, 1ull << 40, 1ull << 62, 1ull << 63,
        ~0ull};
    const uint64_t r = pick(std::size(kValues) + 2);
    if (r == std::size(kValues)) return original + 1;
    if (r == std::size(kValues) + 1) return original - 1;
    return kValues[r];
  };
  const auto flip = [&](uint64_t base, uint64_t span) {
    if (span == 0) return;
    for (uint64_t i = 0, n = 1 + pick(3); i < n; ++i) {
      m[base + pick(span)] ^= static_cast<char>(1u << pick(8));
    }
  };
  *repair = pick(8) != 0;
  switch (pick(6)) {
    case 0:  // Flip one to three bits anywhere.
      flip(0, m.size());
      break;
    case 1:  // Flip one to three bits inside one section's payload.
      flip(s.offset, s.size);
      break;
    case 2:  // Truncate.
      m.resize(pick(m.size()));
      break;
    case 3: {  // Tamper a leading count or matrix-header field.
      const uint64_t at =
          s.offset + 8 * pick(std::min<uint64_t>(s.size / 8, 8));
      PutU64(&m, at, hostile(GetU64(m, at)));
      break;
    }
    case 4: {  // Tamper a u64 at any 4-aligned spot (per-set sizes, bounds).
      if (s.size < 8) break;
      const uint64_t at = s.offset + 4 * pick((s.size - 8) / 4 + 1);
      PutU64(&m, at, hostile(GetU64(m, at)));
      break;
    }
    default: {  // Tamper a section-table entry's id, offset or size.
      const uint64_t entry =
          sizeof(FileHeader) + pick(table.size()) * sizeof(SectionEntry);
      const uint64_t field = pick(3);
      if (field == 0) {
        const uint32_t id = static_cast<uint32_t>(pick(40));
        std::memcpy(m.data() + entry, &id, sizeof(id));
      } else {
        const uint64_t at = entry + 8 * field;
        PutU64(&m, at, hostile(GetU64(m, at)));
      }
      break;
    }
  }
  if (*repair) RepairChecksums(&m);
  return m;
}

bool TypedRejection(const Status& s) {
  return s.IsIOError() || s.IsInvalidArgument() || s.IsFailedPrecondition();
}

bool CorruptionRejection(const Status& s) {
  return s.IsIOError() || s.IsInvalidArgument();
}

class SnapshotMutationTest : public ::testing::TestWithParam<bool> {
 protected:
  void SetUp() override {
    wiki::GeneratorOptions gen;
    gen.seed = 23;
    gen.num_days = 90;
    gen.num_families = 2;
    gen.num_noise_attributes = 6;
    gen.num_drifter_attributes = 3;
    gen.num_catchall_attributes = 1;
    gen.shared_vocabulary = 60;
    gen.entities_per_family_pool = 40;
    auto generated = wiki::WikiGenerator(gen).GenerateDataset();
    ASSERT_TRUE(generated.ok());
    corpus_ = std::move(*generated);
    weight_ = std::make_unique<ConstantWeight>(
        corpus_.dataset.domain().num_timestamps());

    TindIndexOptions opts;
    opts.bloom_bits = 64;
    opts.num_hashes = 2;
    opts.num_slices = 3;
    opts.delta = 4;
    opts.epsilon = 10;  // Large enough that one required-value set is empty.
    opts.build_reverse_index = GetParam();
    opts.reverse_slices = 2;
    opts.weight = weight_.get();
    auto built = TindIndex::Build(corpus_.dataset, opts);
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    path_ = ::testing::TempDir() + "/tind_snapshot_mutation_" +
            (GetParam() ? "rev" : "fwd") + ".tsnap";
    ASSERT_TRUE((*built)->SaveSnapshot(path_).ok());
    seed_ = ReadFileBytes(path_);
    table_ = TableOf(seed_);
    // An empty set once made the reader memcpy from a null pointer (seen
    // under UBSan); the reverse seed keeps one.
    if (GetParam()) {
      ASSERT_TRUE(HasEmptyRequiredValueSet(seed_, table_));
    }
  }

  void TearDown() override { std::remove(path_.c_str()); }

  Result<std::unique_ptr<TindIndex>> Load(bool verify_checksums) const {
    SnapshotLoadOptions options;
    options.weight = weight_.get();
    options.verify_checksums = verify_checksums;
    return TindIndex::LoadSnapshot(corpus_.dataset, path_, options);
  }

  /// Runs every oracle on the file at path_; returns what went wrong, or "".
  std::string Check(bool* verified) const {
    try {
      const Status verify = snapshot::VerifySnapshot(path_);
      *verified = verify.ok();
      if (!verify.ok() && !TypedRejection(verify)) {
        return "untyped verify rejection " + verify.ToString();
      }
      for (const bool checksums : {true, false}) {
        auto loaded = Load(checksums);
        const std::string mode = checksums ? "checked load" : "trusted load";
        if (!loaded.ok()) {
          if (!TypedRejection(loaded.status())) {
            return "untyped " + mode + " rejection " +
                   loaded.status().ToString();
          }
          if (verify.ok() && CorruptionRejection(loaded.status())) {
            return "verify accepted, " + mode + " rejected: " +
                   loaded.status().ToString();
          }
          continue;
        }
        if (!verify.ok() && checksums) {
          return "verify rejected (" + verify.ToString() +
                 "), checked load accepted";
        }
        const TindParams params{3.0, 4, weight_.get()};
        const AttributeHistory& query = corpus_.dataset.attribute(0);
        (*loaded)->Search(query, params);
        (*loaded)->ReverseSearch(query, params);
      }
    } catch (const std::exception& e) {
      return std::string("threw ") + e.what();
    }
    return "";
  }

  wiki::GeneratedDataset corpus_;
  std::unique_ptr<ConstantWeight> weight_;
  std::string path_;
  std::string seed_;
  std::vector<SectionEntry> table_;
};

TEST_P(SnapshotMutationTest, EveryMutantIsTypedAndVerifyAgreesWithLoad) {
  bool verified = false;
  ASSERT_EQ(Check(&verified), "");
  ASSERT_TRUE(verified) << "unmutated seed rejected";

  std::mt19937_64 rng(GetParam() ? 0x5A5Du : 0x5A5Eu);
  size_t accepted = 0;
  size_t rejected_after_repair = 0;
  size_t failures = 0;
  for (size_t i = 0; i < kMutantsPerSeed && failures < 5; ++i) {
    bool repaired = false;
    const std::string mutant = Mutate(seed_, table_, rng, &repaired);
    WriteFileBytes(path_, mutant);
    const std::string problem = Check(&verified);
    if (!problem.empty()) {
      ++failures;
      ADD_FAILURE() << "mutant " << i << ": " << problem;
    }
    if (verified) ++accepted;
    if (!verified && repaired) ++rejected_after_repair;
  }
  // Both sides of the oracle must be exercised.
  EXPECT_GT(accepted, 0u);
  EXPECT_GT(rejected_after_repair, 0u);
}

INSTANTIATE_TEST_SUITE_P(WithAndWithoutReverseIndex, SnapshotMutationTest,
                         ::testing::Bool());

/// A CRC-consistent file whose first required-value set claims 2^40 values
/// (or 2^62, whose byte count wraps to 0) must be rejected before anything
/// is allocated for it.
TEST(SnapshotMutationRegressionTest, HugeRequiredValueSetSizeIsRejected) {
  wiki::GeneratorOptions gen;
  gen.seed = 29;
  gen.num_days = 60;
  gen.num_families = 2;
  gen.num_noise_attributes = 4;
  gen.num_drifter_attributes = 2;
  gen.shared_vocabulary = 40;
  auto corpus = wiki::WikiGenerator(gen).GenerateDataset();
  ASSERT_TRUE(corpus.ok());
  const ConstantWeight weight(corpus->dataset.domain().num_timestamps());
  TindIndexOptions opts;
  opts.bloom_bits = 64;
  opts.num_slices = 2;
  opts.weight = &weight;
  auto built = TindIndex::Build(corpus->dataset, opts);
  ASSERT_TRUE(built.ok());
  const std::string path =
      ::testing::TempDir() + "/tind_snapshot_huge_set.tsnap";
  ASSERT_TRUE((*built)->SaveSnapshot(path).ok());
  const std::string saved = ReadFileBytes(path);
  const SectionEntry required =
      FindEntry(TableOf(saved), snapshot::kSectionRequiredValues);

  for (const uint64_t size : {1ull << 40, 1ull << 62}) {
    SCOPED_TRACE(size);
    // Payload: u64 set count, then per set a u64 size and its values.
    std::string bytes = saved;
    PutU64(&bytes, required.offset + 8, size);
    RepairChecksums(&bytes);
    WriteFileBytes(path, bytes);

    const Status verify = snapshot::VerifySnapshot(path);
    EXPECT_TRUE(verify.IsInvalidArgument()) << verify.ToString();
    for (const bool checksums : {true, false}) {
      SnapshotLoadOptions options;
      options.weight = &weight;
      options.verify_checksums = checksums;
      const auto loaded =
          TindIndex::LoadSnapshot(corpus->dataset, path, options);
      EXPECT_TRUE(loaded.status().IsInvalidArgument())
          << loaded.status().ToString();
    }
  }
  std::remove(path.c_str());
}

/// Planes over zero columns hold no bytes, so only the manifest bounds how
/// many plane views a reader allocates: a CRC- and options-hash-consistent
/// index of an empty corpus that claims 2^40 Bloom bits must be rejected.
TEST(SnapshotMutationRegressionTest, HugeBloomWidthOverZeroColumnsIsRejected) {
  const Dataset empty(TimeDomain(30), std::make_shared<ValueDictionary>());
  const ConstantWeight weight(30);
  TindIndexOptions opts;
  opts.bloom_bits = 64;
  opts.weight = &weight;
  auto built = TindIndex::Build(empty, opts);
  ASSERT_TRUE(built.ok());
  const std::string path = ::testing::TempDir() + "/tind_snapshot_wide.tsnap";
  ASSERT_TRUE((*built)->SaveSnapshot(path).ok());

  std::string bytes = ReadFileBytes(path);
  opts.bloom_bits = 1ull << 40;
  for (const SectionEntry& entry : TableOf(bytes)) {
    if (entry.id == snapshot::kSectionManifest) {
      snapshot::ManifestFixed m;
      std::memcpy(&m, bytes.data() + entry.offset, sizeof(m));
      m.bloom_bits = opts.bloom_bits;
      m.options_hash = snapshot::ComputeOptionsHash(opts, weight.ToString());
      std::memcpy(bytes.data() + entry.offset, &m, sizeof(m));
    } else if (entry.id == snapshot::kSectionMatrixFull ||
               entry.id == snapshot::kSectionMatrixReverse ||
               entry.id >= snapshot::kSectionMatrixSliceBase) {
      PutU64(&bytes, entry.offset, opts.bloom_bits);  // MatrixHeader.num_bits
    }
  }
  RepairChecksums(&bytes);
  WriteFileBytes(path, bytes);

  Status verify;
  EXPECT_NO_THROW(verify = snapshot::VerifySnapshot(path));
  EXPECT_TRUE(verify.IsInvalidArgument()) << verify.ToString();
  SnapshotLoadOptions options;
  options.weight = &weight;
  Status load;
  EXPECT_NO_THROW(
      load = TindIndex::LoadSnapshot(empty, path, options).status());
  EXPECT_TRUE(load.IsInvalidArgument()) << load.ToString();
  std::remove(path.c_str());
}

}  // namespace
}  // namespace tind
