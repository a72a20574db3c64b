/// \file snapshot_reader.cc
/// TindIndex::LoadSnapshot plus the dataset-free inspection entry points
/// (ReadSnapshotInfo / VerifySnapshot). The structural ladder is shared:
/// map → header (magic, CRC, version, endianness, geometry) → section table
/// (bounds, CRC) → manifest → the section table's per-kind readers
/// (section_table.cc), which LoadSnapshot and VerifySnapshot run alike.
/// The matrix readers wrap the mapped bit planes in borrowed BloomMatrix
/// views — the kernels then probe the file's pages directly, zero-copy.

#include <bit>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/stopwatch.h"
#include "obs/metrics.h"
#include "snapshot/section_table.h"
#include "snapshot/snapshot.h"
#include "tind/index.h"

namespace tind::snapshot {

Result<ParsedSnapshot> ParseStructure(const std::string& path) {
  ParsedSnapshot parsed;
  TIND_ASSIGN_OR_RETURN(parsed.file, MappedFile::Open(path));
  const MappedFile& file = *parsed.file;
  if (file.size() < sizeof(FileHeader)) {
    return Status::IOError("snapshot " + path + " too short for a header (" +
                           std::to_string(file.size()) + " bytes)");
  }
  std::memcpy(&parsed.header, file.data(), sizeof(FileHeader));
  const FileHeader& h = parsed.header;
  if (h.magic != kMagic) {
    return Status::IOError("not a tIND snapshot: " + path);
  }
  if (HeaderCrc(h) != h.header_crc) {
    return Status::IOError("snapshot header CRC mismatch in " + path);
  }
  if (h.format_version != kFormatVersion) {
    return Status::FailedPrecondition(
        "snapshot format version " + std::to_string(h.format_version) +
        " unsupported (this build reads version " +
        std::to_string(kFormatVersion) + "): " + path);
  }
  if (h.endian_mark != kEndianMark) {
    return Status::FailedPrecondition(
        "snapshot " + path + " was written on a different-endian host");
  }
  if (h.word_bits != kWordBits || h.align_bytes != kSectionAlign) {
    return Status::FailedPrecondition(
        "snapshot " + path + " uses word_bits=" + std::to_string(h.word_bits) +
        " align=" + std::to_string(h.align_bytes) + "; this build requires " +
        std::to_string(kWordBits) + "/" + std::to_string(kSectionAlign));
  }
  if (h.file_size != file.size()) {
    return Status::IOError("snapshot " + path + " truncated: header says " +
                           std::to_string(h.file_size) + " bytes, file has " +
                           std::to_string(file.size()));
  }
  const uint64_t table_bytes =
      static_cast<uint64_t>(h.section_count) * sizeof(SectionEntry);
  if (sizeof(FileHeader) + table_bytes > file.size()) {
    return Status::IOError("snapshot " + path +
                           " truncated inside the section table");
  }
  parsed.table.resize(h.section_count);
  std::memcpy(parsed.table.data(), file.data() + sizeof(FileHeader),
              table_bytes);
  const uint32_t table_crc = Crc32Of(std::string_view(
      reinterpret_cast<const char*>(file.data() + sizeof(FileHeader)),
      table_bytes));
  if (table_crc != h.section_table_crc) {
    return Status::IOError("snapshot section table CRC mismatch in " + path);
  }
  for (const SectionEntry& entry : parsed.table) {
    if (entry.offset % kSectionAlign != 0) {
      return Status::IOError("section " + SectionName(entry.id) +
                             " misaligned at offset " +
                             std::to_string(entry.offset) + " in " + path);
    }
    if (entry.offset > file.size() || entry.size > file.size() - entry.offset) {
      return Status::IOError("section " + SectionName(entry.id) +
                             " extends past the end of " + path);
    }
  }
  return parsed;
}

const SectionEntry* ParsedSnapshot::Find(uint32_t id) const {
  for (const SectionEntry& entry : table) {
    if (entry.id == id) return &entry;
  }
  return nullptr;
}

Status ParsedSnapshot::CheckCrc(const SectionEntry& entry) const {
  if (Crc32Of(Payload(entry)) != entry.crc32) {
    return Status::IOError("section " + SectionName(entry.id) +
                           " CRC mismatch in " + file->path() +
                           " (payload corrupt)");
  }
  return Status::OK();
}

Result<TindIndexOptions> OptionsFromManifest(const ManifestFixed& m) {
  // Build's own preconditions, which the matrix readers rely on, and a
  // width bound: planes over zero columns hold no bytes, so nothing else
  // bounds the plane views a reader allocates, and no build can have
  // allocated 2^32 of them.
  if (!IsPowerOfTwo(m.bloom_bits) || m.bloom_bits > (uint64_t{1} << 32) ||
      m.num_hashes == 0) {
    return Status::InvalidArgument(
        "snapshot manifest names " + std::to_string(m.bloom_bits) +
        " Bloom bits and " + std::to_string(m.num_hashes) + " hashes");
  }
  TindIndexOptions options;
  options.bloom_bits = m.bloom_bits;
  options.num_hashes = m.num_hashes;
  options.num_slices = m.num_slices;
  options.delta = m.delta;
  options.epsilon = std::bit_cast<double>(m.epsilon_bits);
  if (m.strategy > static_cast<uint32_t>(SliceStrategy::kWeightedRandom)) {
    return Status::InvalidArgument(
        "snapshot manifest names unknown slice strategy " +
        std::to_string(m.strategy));
  }
  options.strategy = static_cast<SliceStrategy>(m.strategy);
  options.seed = m.seed;
  options.build_reverse_index = m.build_reverse_index != 0;
  options.reverse_slices = m.reverse_slices;
  options.weight = nullptr;
  options.memory = nullptr;
  return options;
}

namespace {

struct Manifest {
  ManifestFixed fixed;
  std::string weight_description;
  std::string producer;
};

/// Parses and self-checks the manifest section. The stored options hash is
/// recomputed from the decoded fields; with the payload CRC already valid, a
/// mismatch means the manifest lies about itself → IOError.
Result<Manifest> ParseManifest(const ParsedSnapshot& parsed) {
  const SectionEntry* entry = parsed.Find(SectionTable::Kinds().front().id);
  if (entry == nullptr) {
    return Status::IOError("snapshot " + parsed.file->path() +
                           " has no manifest section");
  }
  TIND_RETURN_IF_ERROR(parsed.CheckCrc(*entry));
  const std::string_view payload = parsed.Payload(*entry);
  ByteReader reader(payload.data(), payload.size());
  Manifest manifest;
  TIND_RETURN_IF_ERROR(reader.ReadPod(&manifest.fixed, "manifest"));
  TIND_RETURN_IF_ERROR(
      reader.ReadString(&manifest.weight_description, "weight description"));
  TIND_RETURN_IF_ERROR(reader.ReadString(&manifest.producer, "producer"));
  TIND_ASSIGN_OR_RETURN(const TindIndexOptions options,
                        OptionsFromManifest(manifest.fixed));
  const uint64_t recomputed =
      ComputeOptionsHash(options, manifest.weight_description);
  if (recomputed != manifest.fixed.options_hash) {
    return Status::IOError("snapshot manifest options hash mismatch in " +
                           parsed.file->path() + " (manifest corrupt)");
  }
  const bool flag_reverse = (parsed.header.flags & kFlagHasReverse) != 0;
  if (flag_reverse != (manifest.fixed.build_reverse_index != 0)) {
    return Status::IOError(
        "snapshot header reverse flag disagrees with manifest in " +
        parsed.file->path());
  }
  return manifest;
}

}  // namespace

Result<SnapshotInfo> ReadSnapshotInfo(const std::string& path) {
  TIND_ASSIGN_OR_RETURN(const ParsedSnapshot parsed, ParseStructure(path));
  TIND_ASSIGN_OR_RETURN(const Manifest manifest, ParseManifest(parsed));
  SnapshotInfo info;
  info.format_version = parsed.header.format_version;
  info.file_size = parsed.header.file_size;
  info.has_reverse = (parsed.header.flags & kFlagHasReverse) != 0;
  info.options_hash = manifest.fixed.options_hash;
  info.corpus_digest = manifest.fixed.corpus_digest;
  TIND_ASSIGN_OR_RETURN(info.options, OptionsFromManifest(manifest.fixed));
  info.weight_description = manifest.weight_description;
  info.producer = manifest.producer;
  info.num_attributes = manifest.fixed.num_attributes;
  info.num_timestamps = manifest.fixed.num_timestamps;
  info.epoch_day = manifest.fixed.epoch_day;
  info.dictionary_size = manifest.fixed.dictionary_size;
  info.sections.reserve(parsed.table.size());
  for (const SectionEntry& e : parsed.table) {
    info.sections.push_back(
        {e.id, SectionName(e.id), e.offset, e.size, e.crc32});
  }
  return info;
}

Status VerifySnapshot(const std::string& path) {
  TIND_ASSIGN_OR_RETURN(const ParsedSnapshot parsed, ParseStructure(path));
  for (const SectionEntry& entry : parsed.table) {
    TIND_RETURN_IF_ERROR(parsed.CheckCrc(entry));
  }
  TIND_ASSIGN_OR_RETURN(const Manifest manifest, ParseManifest(parsed));
  // The loader's own readers, into an index that is then dropped.
  return SectionTable::Read(parsed, manifest.fixed).status();
}

}  // namespace tind::snapshot

namespace tind {

Result<std::unique_ptr<TindIndex>> TindIndex::LoadSnapshot(
    const Dataset& dataset, const std::string& path,
    const SnapshotLoadOptions& load_options) {
  Stopwatch watch;
  TIND_OBS_SCOPED_TIMER("snapshot_load");
  if (load_options.weight == nullptr) {
    return Status::InvalidArgument(
        "SnapshotLoadOptions.weight must be the build weight function");
  }

  TIND_ASSIGN_OR_RETURN(const snapshot::ParsedSnapshot parsed,
                        snapshot::ParseStructure(path));
  if (load_options.verify_checksums) {
    for (const snapshot::SectionEntry& entry : parsed.table) {
      TIND_RETURN_IF_ERROR(parsed.CheckCrc(entry));
    }
  }
  TIND_ASSIGN_OR_RETURN(const snapshot::Manifest manifest,
                        snapshot::ParseManifest(parsed));
  const snapshot::ManifestFixed& m = manifest.fixed;

  // Compatibility gates, cheapest first. The dimension checks always run —
  // they catch an obviously wrong dataset even with digest verification off.
  if (manifest.weight_description != load_options.weight->ToString()) {
    return Status::FailedPrecondition(
        "snapshot was built with weight \"" + manifest.weight_description +
        "\" but load supplied \"" + load_options.weight->ToString() + "\"");
  }
  if (m.num_attributes != dataset.size() ||
      m.num_timestamps != dataset.domain().num_timestamps() ||
      m.epoch_day != dataset.domain().epoch_day() ||
      m.dictionary_size != dataset.dictionary().size()) {
    return Status::FailedPrecondition(
        "snapshot corpus shape (attrs=" + std::to_string(m.num_attributes) +
        ", timestamps=" + std::to_string(m.num_timestamps) +
        ", dict=" + std::to_string(m.dictionary_size) +
        ") does not match the supplied dataset");
  }
  if (load_options.verify_corpus_digest &&
      snapshot::ComputeCorpusDigest(dataset) != m.corpus_digest) {
    return Status::FailedPrecondition(
        "snapshot corpus digest does not match the supplied dataset (same "
        "shape, different content); rebuild or load the matching corpus");
  }

  TIND_ASSIGN_OR_RETURN(std::unique_ptr<TindIndex> index,
                        snapshot::SectionTable::Read(parsed, m));
  index->dataset_ = &dataset;
  index->options_.weight = load_options.weight;
  index->options_.memory = load_options.memory;

  // The mapped planes are accounted against the budget exactly like built
  // planes (MemoryUsageBytes reports the same figure for borrowed rows):
  // resident-set pressure is real either way once the kernels touch them.
  index->reservation_ = MemoryReservation(load_options.memory);
  {
    const Status reserved =
        index->reservation_.Reserve(index->MemoryUsageBytes());
    if (!reserved.ok()) {
      return Status::OutOfMemory(reserved.message() +
                                 " (while mapping snapshot " + path + ")");
    }
  }
  index->snapshot_storage_ = parsed.file;

  TIND_OBS_COUNTER_ADD("snapshot/loads", 1);
  TIND_OBS_COUNTER_ADD("snapshot/mapped_bytes", parsed.file->size());
  TIND_OBS_GAUGE_SET("snapshot/load_ms",
                     static_cast<int64_t>(watch.ElapsedMillis()));
  return index;
}

}  // namespace tind
