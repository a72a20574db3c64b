#ifndef TIND_SNAPSHOT_SECTION_TABLE_H_
#define TIND_SNAPSHOT_SECTION_TABLE_H_

/// \file section_table.h
/// The one declaration of every `*.tsnap` section kind (section_table.cc)
/// and the parsed form of a mapped snapshot the table is read from. Save,
/// compact, load, verify and SectionName all walk the same table, so a new
/// section kind is one entry. Internal to the snapshot library.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "snapshot/mapped_file.h"
#include "snapshot/snapshot_format.h"
#include "tind/index.h"

namespace tind::snapshot {

/// Mapped file with its decoded header and section table; the raw payload
/// bytes stay in the mapping.
struct ParsedSnapshot {
  std::shared_ptr<MappedFile> file;
  FileHeader header;
  std::vector<SectionEntry> table;

  /// The first table entry with `id`, or null.
  const SectionEntry* Find(uint32_t id) const;
  std::string_view Payload(const SectionEntry& entry) const {
    return {reinterpret_cast<const char*>(file->data() + entry.offset),
            entry.size};
  }
  /// IOError when the payload does not match the entry's CRC-32.
  Status CheckCrc(const SectionEntry& entry) const;
};

/// Header + section-table ladder. Every exit is a typed error: NotFound for
/// a missing file, IOError for anything structurally wrong with the bytes,
/// FailedPrecondition for a well-formed file this build cannot consume
/// (format version, endianness, word size).
Result<ParsedSnapshot> ParseStructure(const std::string& path);

/// Reconstructs the TindIndexOptions a manifest describes. `weight` and
/// `memory` are left null; epsilon is restored from its exact bit pattern.
Result<TindIndexOptions> OptionsFromManifest(const ManifestFixed& m);

/// \brief One section kind.
///
/// A family (the slice matrices) is one kind whose member j has id `id + j`;
/// every other kind has one member. A kind either serializes its payload
/// (`bytes`) or names a matrix whose planes the writer streams (`matrix`).
struct SectionKind {
  uint32_t id = 0;
  const char* name = "";  ///< A family member's name is `name` + j.
  bool family = false;
  /// Members `index` has; 0 when the kind is not written for it (the
  /// reverse caches and M_R exist only with the reverse index).
  size_t (*count)(const TindIndex& index) = nullptr;
  std::string (*bytes)(const TindIndex& index) = nullptr;
  const BloomMatrix& (*matrix)(const TindIndex& index, size_t j) = nullptr;
  /// Validates member j's payload against the manifest and the kinds read
  /// before it, and stores what it decoded in `index`. LoadSnapshot reads
  /// into the index it returns, VerifySnapshot into one it drops. Null for
  /// kinds the loader takes from the Dataset instead (dictionary, attribute
  /// metadata), which only the CRC pass checks.
  Status (*read)(std::string_view payload, const ManifestFixed& manifest,
                 size_t j, TindIndex* index) = nullptr;
  /// True when an update with `stats` left member j unchanged, so
  /// CompactSnapshot copies it from the previous artifact. Null: always
  /// rewritten.
  bool (*clean)(const UpdateStats& stats, size_t j) = nullptr;
};

/// The table and the two walks over it. A friend of TindIndex: the kinds
/// read and write the index's matrices and caches directly.
struct SectionTable {
  /// Every kind, in file order, which is also the order they are read in.
  /// The manifest comes first: every other kind is checked against it.
  static std::span<const SectionKind> Kinds();

  /// Writes `index` to `path` atomically. With `previous`, each member that
  /// `stats` marks clean is byte-copied from it (after its CRC is checked)
  /// instead of re-serialized.
  static Status Write(const TindIndex& index, const std::string& path,
                      const ParsedSnapshot* previous,
                      const UpdateStats* stats);

  /// Reads every kind with a `read` into a new index, in table order; a
  /// member the index should have but the file lacks is an IOError. The
  /// index has no dataset, weight or memory budget yet.
  static Result<std::unique_ptr<TindIndex>> Read(const ParsedSnapshot& parsed,
                                                 const ManifestFixed& manifest);
};

}  // namespace tind::snapshot

#endif  // TIND_SNAPSHOT_SECTION_TABLE_H_
