#ifndef TIND_SNAPSHOT_SNAPSHOT_FORMAT_H_
#define TIND_SNAPSHOT_SNAPSHOT_FORMAT_H_

/// \file snapshot_format.h
/// On-disk layout of a tIND index snapshot (`*.tsnap`), format version 1.
///
///   [FileHeader 64B] [SectionEntry × section_count] [pad] [sections ...]
///
/// Every section starts at a 64-byte-aligned file offset. Matrix sections
/// begin with a 64-byte MatrixHeader followed by the raw bit planes — each
/// plane is `row_words = PadWordCount(ceil(num_columns / 64))` words, the
/// exact in-memory row layout of BloomMatrix (64-byte aligned, 8-word
/// padded, padding zero). Because mmap bases are page-aligned, a plane at a
/// 64-byte-aligned offset satisfies the SIMD kernels' alignment contract and
/// can be probed in place with zero copies.
///
/// All integers are stored native-endian; the header's endian mark rejects
/// cross-endian artifacts instead of byte-swapping them (the format is a
/// serving cache, not an interchange format). Each section carries a CRC-32
/// in its table entry; the header and section table carry their own CRCs, so
/// truncation and bit rot surface as typed errors before any plane is
/// trusted.

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <type_traits>

#include "common/crc32.h"
#include "common/hash.h"
#include "common/status.h"

namespace tind::snapshot {

/// "TINDSNP1" little-endian.
inline constexpr uint64_t kMagic = 0x31504E53444E4954ULL;
inline constexpr uint32_t kFormatVersion = 1;
/// Stored as-is; reads back differently on a different-endian host.
inline constexpr uint32_t kEndianMark = 0x01020304;
inline constexpr uint32_t kWordBits = 64;
/// File alignment of every section (matches kSimdAlignBytes).
inline constexpr uint32_t kSectionAlign = 64;

/// FileHeader.flags bits.
inline constexpr uint32_t kFlagHasReverse = 1u << 0;

/// Section identifiers (SectionEntry.id).
enum SectionId : uint32_t {
  kSectionManifest = 1,
  kSectionDictionary = 2,
  kSectionAttributeMeta = 3,
  kSectionSliceIntervals = 4,
  kSectionRequiredValues = 5,
  kSectionMinWeights = 6,
  kSectionMatrixFull = 16,      ///< M_T bit planes.
  kSectionMatrixReverse = 17,   ///< M_R bit planes.
  kSectionMatrixSliceBase = 32, ///< Slice j's planes at id = base + j.
};

/// Human-readable section name for errors and `tind_snapshot inspect`, from
/// the section table (section_table.h).
std::string SectionName(uint32_t id);

#pragma pack(push, 1)

struct FileHeader {
  uint64_t magic = kMagic;
  uint32_t format_version = kFormatVersion;
  uint32_t endian_mark = kEndianMark;
  uint32_t word_bits = kWordBits;
  uint32_t align_bytes = kSectionAlign;
  uint32_t section_count = 0;
  uint32_t flags = 0;
  uint64_t file_size = 0;
  uint32_t section_table_crc = 0;
  /// CRC-32 over the header bytes before this field.
  uint32_t header_crc = 0;
  uint8_t reserved[16] = {};
};
static_assert(sizeof(FileHeader) == 64, "FileHeader must be 64 bytes");

struct SectionEntry {
  uint32_t id = 0;
  uint32_t reserved0 = 0;
  uint64_t offset = 0;  ///< Absolute file offset, 64-byte aligned.
  uint64_t size = 0;    ///< Payload bytes (excluding inter-section padding).
  uint32_t crc32 = 0;   ///< CRC-32 of the payload bytes.
  uint32_t reserved1 = 0;
};
static_assert(sizeof(SectionEntry) == 32, "SectionEntry must be 32 bytes");

/// Fixed-width prefix of the manifest section; two length-prefixed strings
/// follow it (the build weight's ToString() and the producing build's
/// BuildInfoString()).
struct ManifestFixed {
  uint64_t options_hash = 0;   ///< ComputeOptionsHash over the fields below.
  uint64_t corpus_digest = 0;  ///< ComputeCorpusDigest of the source dataset.
  uint64_t bloom_bits = 0;
  /// The *requested* k (TindIndexOptions::num_slices, an options-hash
  /// input); the slice_intervals section holds the count actually built.
  uint64_t num_slices = 0;
  uint64_t reverse_slices = 0;
  uint64_t seed = 0;
  uint64_t epsilon_bits = 0;   ///< Exact bit pattern of the build ε.
  int64_t delta = 0;
  uint64_t num_attributes = 0;
  int64_t num_timestamps = 0;
  int64_t epoch_day = 0;
  uint64_t dictionary_size = 0;
  uint32_t num_hashes = 0;
  uint32_t strategy = 0;
  uint8_t build_reverse_index = 0;
  uint8_t reserved[23] = {};
};
static_assert(sizeof(ManifestFixed) == 128, "ManifestFixed must be 128 bytes");

/// 64-byte sub-header at the start of every matrix section; the bit planes
/// follow immediately (and are therefore 64-byte aligned in the file).
struct MatrixHeader {
  uint64_t num_bits = 0;
  uint64_t num_columns = 0;
  uint64_t row_words = 0;    ///< Padded words per plane.
  uint64_t plane_bytes = 0;  ///< num_bits * row_words * 8.
  uint32_t num_hashes = 0;
  uint8_t reserved[28] = {};
};
static_assert(sizeof(MatrixHeader) == 64, "MatrixHeader must be 64 bytes");

#pragma pack(pop)

/// Next multiple of kSectionAlign.
inline uint64_t AlignUp(uint64_t offset) {
  return (offset + kSectionAlign - 1) & ~static_cast<uint64_t>(kSectionAlign - 1);
}

/// CRC-32 of the header bytes covered by header_crc.
inline uint32_t HeaderCrc(const FileHeader& header) {
  return Crc32Of(std::string_view(reinterpret_cast<const char*>(&header),
                                  offsetof(FileHeader, header_crc)));
}

/// \brief Bounds-checked reader over a byte range (section payload parsing).
///
/// Every read returns InvalidArgument past the end instead of walking off
/// the mapping — corruption in a length field must surface as a typed error,
/// never a fault.
class ByteReader {
 public:
  ByteReader(const void* data, size_t size)
      : data_(static_cast<const uint8_t*>(data)), size_(size) {}

  size_t remaining() const { return size_ - pos_; }

  template <typename T>
  Status ReadPod(T* out, std::string_view what) {
    static_assert(std::is_trivially_copyable_v<T>);
    if (remaining() < sizeof(T)) {
      return Status::InvalidArgument("truncated reading " + std::string(what));
    }
    std::memcpy(out, data_ + pos_, sizeof(T));
    pos_ += sizeof(T);
    return Status::OK();
  }

  Status ReadString(std::string* out, std::string_view what) {
    uint32_t len = 0;
    TIND_RETURN_IF_ERROR(ReadPod(&len, what));
    if (remaining() < len) {
      return Status::InvalidArgument("truncated reading " + std::string(what));
    }
    out->assign(reinterpret_cast<const char*>(data_ + pos_), len);
    pos_ += len;
    return Status::OK();
  }

  Status ReadBytes(std::string_view* out, size_t n, std::string_view what) {
    if (remaining() < n) {
      return Status::InvalidArgument("truncated reading " + std::string(what));
    }
    *out = std::string_view(reinterpret_cast<const char*>(data_ + pos_), n);
    pos_ += n;
    return Status::OK();
  }

 private:
  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
};

/// Append helpers for building section payloads in memory.
inline void AppendPod(std::string* out, const void* p, size_t n) {
  out->append(static_cast<const char*>(p), n);
}
template <typename T>
void AppendPodT(std::string* out, const T& v) {
  static_assert(std::is_trivially_copyable_v<T>);
  AppendPod(out, &v, sizeof(T));
}
inline void AppendString(std::string* out, std::string_view s) {
  AppendPodT(out, static_cast<uint32_t>(s.size()));
  out->append(s);
}

}  // namespace tind::snapshot

#endif  // TIND_SNAPSHOT_SNAPSHOT_FORMAT_H_
