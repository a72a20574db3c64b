/// \file snapshot_writer.cc
/// TindIndex::SaveSnapshot / CompactSnapshot — serializes a built index into
/// the versioned section format of snapshot_format.h, one section per member
/// of each kind in the section table (section_table.cc). Small sections are
/// assembled in memory; matrix planes are streamed row by row directly from
/// the in-memory BitVectors, whose padded word layout is the on-disk layout.
/// CompactSnapshot additionally reuses the payload bytes (and stored CRCs)
/// of sections an incremental update left clean, copying them out of the
/// previous mmap'd artifact instead of re-serializing — serialization is
/// deterministic, so the result is byte-identical to a full save.
/// Publication is atomic (common/atomic_file.h), and every section's CRC-32
/// lands in the table before any payload byte, so a reader never has to
/// trust an unverified length or plane.

#include <algorithm>
#include <optional>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "common/atomic_file.h"
#include "common/crc32.h"
#include "common/fault_injection.h"
#include "obs/metrics.h"
#include "snapshot/section_table.h"
#include "tind/index.h"

namespace tind::snapshot {

namespace {

/// Where one section's payload comes from: serialized bytes, bytes copied
/// from a previous artifact, or a matrix whose planes are streamed.
struct PendingSection {
  std::string bytes;
  std::optional<std::string_view> reused;
  const BloomMatrix* matrix = nullptr;
  MatrixHeader matrix_header;

  /// Calls `emit` on each chunk of the payload, in file order.
  template <typename Emit>
  void ForEachChunk(Emit&& emit) const {
    if (matrix == nullptr) return emit(reused ? *reused : bytes);
    emit(std::string_view(reinterpret_cast<const char*>(&matrix_header),
                          sizeof(MatrixHeader)));
    for (size_t r = 0; r < matrix->num_bits(); ++r) {
      const WordSpan words = matrix->row(r).words();
      emit(std::string_view(reinterpret_cast<const char*>(words.data()),
                            words.size() * sizeof(uint64_t)));
    }
  }
};

MatrixHeader MakeMatrixHeader(const BloomMatrix& matrix) {
  MatrixHeader h;
  h.num_bits = matrix.num_bits();
  h.num_columns = matrix.num_columns();
  h.row_words = PadWordCount((matrix.num_columns() + 63) / 64);
  h.plane_bytes = h.num_bits * h.row_words * sizeof(uint64_t);
  h.num_hashes = matrix.num_hashes();
  return h;
}

}  // namespace

Status SectionTable::Write(const TindIndex& index, const std::string& path,
                           const ParsedSnapshot* previous,
                           const UpdateStats* stats) {
  TIND_OBS_SCOPED_TIMER("snapshot_save");
  if (TIND_FAULT_POINT("snapshot/write")) {
    return Status::IOError("injected fault: snapshot/write (" + path + ")");
  }
  if (index.dataset_ == nullptr) {
    return Status::FailedPrecondition("index has no dataset; nothing to save");
  }

  std::vector<PendingSection> sections;
  std::vector<SectionEntry> table;
  size_t reused_sections = 0;
  for (const SectionKind& kind : Kinds()) {
    for (size_t j = 0; j < kind.count(index); ++j) {
      PendingSection& s = sections.emplace_back();
      SectionEntry& entry = table.emplace_back();
      entry.id = kind.id + static_cast<uint32_t>(j);
      const SectionEntry* old =
          previous != nullptr && kind.clean != nullptr && kind.clean(*stats, j)
              ? previous->Find(entry.id)
              : nullptr;
      if (old != nullptr) {
        s.reused = previous->Payload(*old);
        ++reused_sections;
      } else if (kind.matrix != nullptr) {
        s.matrix = &kind.matrix(index, j);
        s.matrix_header = MakeMatrixHeader(*s.matrix);
      } else {
        s.bytes = kind.bytes(index);
      }
      Crc32 crc;
      s.ForEachChunk([&](std::string_view chunk) {
        crc.Update(chunk);
        entry.size += chunk.size();
      });
      entry.crc32 = crc.value();
      // Verify before reuse: a rotted clean section must fail compaction
      // here, not surface as a CRC mismatch in the *new* artifact.
      if (old != nullptr && entry.crc32 != old->crc32) {
        return previous->CheckCrc(*old);
      }
    }
  }
  // Layout: every section starts 64-byte aligned so matrix planes (which
  // begin sizeof(MatrixHeader) == 64 bytes into their section) stay aligned
  // for the zero-copy kernels.
  uint64_t offset =
      AlignUp(sizeof(FileHeader) + table.size() * sizeof(SectionEntry));
  for (SectionEntry& entry : table) {
    entry.offset = offset;
    offset = AlignUp(offset + entry.size);
  }
  const uint64_t file_size = offset;

  FileHeader header;
  header.section_count = static_cast<uint32_t>(sections.size());
  header.flags = index.has_reverse_ ? kFlagHasReverse : 0;
  header.file_size = file_size;
  header.section_table_crc = Crc32Of(std::string_view(
      reinterpret_cast<const char*>(table.data()),
      table.size() * sizeof(SectionEntry)));
  header.header_crc = HeaderCrc(header);

  const Status written = WriteFileAtomic(
      path,
      [&](std::ostream& os) {
        uint64_t pos = 0;
        const auto put = [&](const void* p, size_t n) {
          os.write(static_cast<const char*>(p), static_cast<std::streamsize>(n));
          pos += n;
        };
        const auto pad_to = [&](uint64_t target) {
          static const char zeros[kSectionAlign] = {};
          while (pos < target) {
            const size_t n =
                std::min<uint64_t>(sizeof(zeros), target - pos);
            put(zeros, n);
          }
        };
        put(&header, sizeof(header));
        put(table.data(), table.size() * sizeof(SectionEntry));
        for (size_t i = 0; i < sections.size(); ++i) {
          pad_to(table[i].offset);
          sections[i].ForEachChunk(
              [&](std::string_view chunk) { put(chunk.data(), chunk.size()); });
        }
        pad_to(file_size);
        if (!os.good()) return Status::IOError("stream write failed");
        return Status::OK();
      },
      /*binary=*/true);
  if (!written.ok()) return written;

  TIND_OBS_COUNTER_ADD("snapshot/writes", 1);
  TIND_OBS_COUNTER_ADD("snapshot/write_bytes", file_size);
  TIND_OBS_COUNTER_ADD("snapshot/sections_written", sections.size());
  TIND_OBS_COUNTER_ADD("snapshot/sections_reused", reused_sections);
  return Status::OK();
}

}  // namespace tind::snapshot

namespace tind {

Status TindIndex::SaveSnapshot(const std::string& path) const {
  return snapshot::SectionTable::Write(*this, path, nullptr, nullptr);
}

Status TindIndex::CompactSnapshot(const std::string& previous_path,
                                  const std::string& path,
                                  const UpdateStats& stats) const {
  TIND_OBS_SCOPED_TIMER("snapshot_compact");
  TIND_OBS_COUNTER_ADD("snapshot/compactions", 1);
  // The reader's own ladder vets the previous artifact's header and section
  // table before any byte range out of it is trusted.
  TIND_ASSIGN_OR_RETURN(const snapshot::ParsedSnapshot previous,
                        snapshot::ParseStructure(previous_path));
  return snapshot::SectionTable::Write(*this, path, &previous, &stats);
}

}  // namespace tind
