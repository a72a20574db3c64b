#ifndef TIND_SNAPSHOT_SNAPSHOT_H_
#define TIND_SNAPSHOT_SNAPSHOT_H_

/// \file snapshot.h
/// Public surface of the index snapshot subsystem. The main entry points are
/// members of TindIndex (SaveSnapshot / LoadSnapshot, declared in
/// tind/index.h and defined by this library); this header adds the
/// dataset-free tooling used by `tind_snapshot inspect|verify`: manifest
/// inspection and full integrity verification without loading an index.
///
/// Format details live in snapshot_format.h; DESIGN.md §11 documents the
/// layout, the manifest, and the alignment contract.

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "tind/index.h"

namespace tind::snapshot {

/// One section table row, decoded for display.
struct SectionInfo {
  uint32_t id = 0;
  std::string name;
  uint64_t offset = 0;
  uint64_t size = 0;
  uint32_t crc32 = 0;
};

/// Decoded header + manifest of a snapshot (no dataset required).
struct SnapshotInfo {
  uint32_t format_version = 0;
  uint64_t file_size = 0;
  bool has_reverse = false;

  uint64_t options_hash = 0;
  uint64_t corpus_digest = 0;
  /// Build options echoed from the manifest; `weight` and `memory` are null
  /// (the weight is identified by `weight_description`).
  TindIndexOptions options;
  std::string weight_description;
  /// BuildInfoString() of the producing build.
  std::string producer;

  uint64_t num_attributes = 0;
  int64_t num_timestamps = 0;
  int64_t epoch_day = 0;
  uint64_t dictionary_size = 0;

  std::vector<SectionInfo> sections;
};

/// Parses the header, section table, and manifest (manifest CRC is always
/// verified; other section payloads are not touched). Typed errors mirror
/// LoadSnapshot's: NotFound / IOError for missing-or-corrupt files,
/// FailedPrecondition for version/endianness mismatches.
Result<SnapshotInfo> ReadSnapshotInfo(const std::string& path);

/// Full integrity pass: structure checks, the CRC-32 of every section
/// (matrix planes included), and the same per-section readers LoadSnapshot
/// runs. OK means LoadSnapshot will not reject the file for corruption (it
/// may still reject it for corpus/weight mismatch).
Status VerifySnapshot(const std::string& path);

/// Deterministic 64-bit digest of a dataset's full content: domain,
/// dictionary (order-sensitive), attribute metadata, change timestamps, and
/// version value sets. Snapshot manifests persist it; LoadSnapshot rejects a
/// dataset whose digest differs (the snapshot's planes would silently
/// describe different attributes).
uint64_t ComputeCorpusDigest(const Dataset& dataset);

/// Hash of the build options that shape the index (including the weight
/// function's ToString()); stored in the manifest and recomputed at load as
/// a manifest self-consistency check.
uint64_t ComputeOptionsHash(const TindIndexOptions& options,
                            std::string_view weight_description);

}  // namespace tind::snapshot

#endif  // TIND_SNAPSHOT_SNAPSHOT_H_
