/// \file section_table.cc
/// Every `*.tsnap` section kind, declared once: its id, name, member count,
/// payload writer, validating reader and "clean after this update"
/// predicate. SaveSnapshot and CompactSnapshot (snapshot_writer.cc),
/// LoadSnapshot and VerifySnapshot (snapshot_reader.cc) and SectionName walk
/// this table; none of them names a section kind itself.

#include "snapshot/section_table.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <functional>

#include "common/build_info.h"
#include "snapshot/snapshot.h"
#include "tind/update.h"

namespace tind::snapshot {

namespace {

Status TrailingBytes(const ByteReader& reader) {
  if (reader.remaining() == 0) return Status::OK();
  return Status::InvalidArgument(std::to_string(reader.remaining()) +
                                 " trailing bytes");
}

/// Checks a matrix section's geometry against the manifest, then wraps its
/// planes in a zero-copy borrowed view. The planes sit
/// sizeof(MatrixHeader) == 64 bytes into the (64-byte-aligned) section, so
/// every plane satisfies the kernels' alignment contract in place.
Status ReadMatrix(std::string_view payload, const ManifestFixed& m,
                  BloomMatrix* out) {
  if (payload.size() < sizeof(MatrixHeader)) {
    return Status::IOError("too short for a matrix header");
  }
  MatrixHeader h;
  std::memcpy(&h, payload.data(), sizeof(MatrixHeader));
  if (h.num_bits != m.bloom_bits || h.num_columns != m.num_attributes ||
      h.num_hashes != m.num_hashes) {
    return Status::IOError(
        "matrix of " + std::to_string(h.num_bits) + " planes x " +
        std::to_string(h.num_columns) + " columns, " +
        std::to_string(h.num_hashes) + " hashes disagrees with the manifest");
  }
  // A plane holds at least one bit per column, and the plane count is bounded
  // by division before it is multiplied, so no product below can wrap.
  const uint64_t plane_space = payload.size() - sizeof(MatrixHeader);
  const uint64_t row_words =
      PadWordCount((std::min(h.num_columns, plane_space * 8) + 63) / 64);
  const uint64_t row_bytes = row_words * sizeof(uint64_t);
  if (h.num_columns > plane_space * 8 || h.row_words != row_words ||
      (row_bytes != 0 && h.num_bits > plane_space / row_bytes) ||
      h.plane_bytes != h.num_bits * row_bytes || h.plane_bytes != plane_space) {
    return Status::IOError("matrix geometry is inconsistent");
  }
  *out = BloomMatrix::FromBorrowedRows(
      h.num_bits, h.num_hashes, h.num_columns,
      reinterpret_cast<const uint64_t*>(payload.data() + sizeof(MatrixHeader)));
  // Padding words (and the tail bits of the last live word) must be zero —
  // the SIMD kernels fold them into every probe. Cheap relative to the CRC
  // pass and kept even when verify_checksums is off.
  for (size_t r = 0; r < out->num_bits(); ++r) {
    if (!out->row(r).PaddingIsZero()) {
      return Status::IOError("plane " + std::to_string(r) +
                             " has nonzero padding bits");
    }
  }
  return Status::OK();
}

size_t One(const TindIndex&) { return 1; }

}  // namespace

std::span<const SectionKind> SectionTable::Kinds() {
  // Lambdas in this friend's member function may read TindIndex's privates.
  // A `read` lambda's `auto` parameters are the payload and the manifest.
  using Index = TindIndex;
  constexpr auto reverse_only = [](const Index& index) -> size_t {
    return index.has_reverse_ ? 1 : 0;
  };
  static const SectionKind kKinds[] = {
      {.id = kSectionManifest,
       .name = "manifest",
       .count = One,
       .bytes = [](const Index& index) {
         const TindIndexOptions& o = index.options_;
         const Dataset& dataset = *index.dataset_;
         const std::string weight = o.weight->ToString();
         ManifestFixed m;
         m.options_hash = ComputeOptionsHash(o, weight);
         m.corpus_digest = ComputeCorpusDigest(dataset);
         m.bloom_bits = o.bloom_bits;
         m.num_slices = o.num_slices;
         m.reverse_slices = o.reverse_slices;
         m.seed = o.seed;
         m.epsilon_bits = std::bit_cast<uint64_t>(o.epsilon);
         m.delta = o.delta;
         m.num_attributes = dataset.size();
         m.num_timestamps = dataset.domain().num_timestamps();
         m.epoch_day = dataset.domain().epoch_day();
         m.dictionary_size = dataset.dictionary().size();
         m.num_hashes = o.num_hashes;
         m.strategy = static_cast<uint32_t>(o.strategy);
         m.build_reverse_index = index.has_reverse_ ? 1 : 0;
         std::string out;
         AppendPodT(&out, m);
         AppendString(&out, weight);
         AppendString(&out, BuildInfoString());
         return out;
       },
       // The reader parsed and self-checked the manifest before the walk
       // (every other kind is validated against it); reading restores the
       // build options the later member counts depend on.
       .read = [](auto, auto& m, size_t, Index* index) {
         TIND_ASSIGN_OR_RETURN(index->options_, OptionsFromManifest(m));
         index->has_reverse_ = m.build_reverse_index != 0;
         return Status::OK();
       }},
      // Positional ids: round-tripping preserves every ValueId.
      {.id = kSectionDictionary,
       .name = "dictionary",
       .count = One,
       .bytes = [](const Index& index) {
         std::string out;
         index.dataset_->dictionary().SerializeTo(&out);
         return out;
       },
       .clean = [](const UpdateStats& s, size_t) {
         return !s.dictionary_dirty;
       }},
      // Enough for inspect tooling; the full histories stay in the corpus
      // file (LoadSnapshot takes the Dataset).
      {.id = kSectionAttributeMeta,
       .name = "attribute_meta",
       .count = One,
       .bytes = [](const Index& index) {
         std::string out;
         AppendPodT(&out, static_cast<uint64_t>(index.dataset_->size()));
         for (const AttributeHistory& attr : index.dataset_->attributes()) {
           AppendString(&out, attr.meta().page);
           AppendString(&out, attr.meta().table);
           AppendString(&out, attr.meta().column);
           AppendPodT(&out, static_cast<uint64_t>(attr.num_versions()));
         }
         return out;
       },
       .clean = [](const UpdateStats& s, size_t) {
         return !s.attribute_meta_dirty && s.attributes_added == 0;
       }},
      {.id = kSectionSliceIntervals,
       .name = "slice_intervals",
       .count = One,
       .bytes = [](const Index& index) {
         std::string out;
         AppendPodT(&out, static_cast<uint64_t>(index.slice_intervals_.size()));
         for (const Interval& interval : index.slice_intervals_) {
           AppendPodT(&out, static_cast<int64_t>(interval.begin));
           AppendPodT(&out, static_cast<int64_t>(interval.end));
         }
         return out;
       },
       .read = [](auto payload, auto& m, size_t, Index* index) {
         ByteReader reader(payload.data(), payload.size());
         uint64_t count = 0;
         TIND_RETURN_IF_ERROR(reader.ReadPod(&count, "interval count"));
         if (count > reader.remaining() / (2 * sizeof(int64_t))) {
           return Status::InvalidArgument(std::to_string(count) +
                                          " intervals overrun the payload");
         }
         index->slice_intervals_.resize(count);
         for (Interval& interval : index->slice_intervals_) {
           TIND_RETURN_IF_ERROR(reader.ReadPod(&interval.begin, "begin"));
           TIND_RETURN_IF_ERROR(reader.ReadPod(&interval.end, "end"));
           if (interval.begin < 0 || interval.begin > interval.end ||
               interval.end >= m.num_timestamps) {
             return Status::InvalidArgument(
                 "interval " + interval.ToString() + " is not within the " +
                 std::to_string(m.num_timestamps) + "-timestamp domain");
           }
         }
         return TrailingBytes(reader);
       },
       .clean = [](const UpdateStats& s, size_t) {
         return !s.slice_intervals_changed;
       }},
      // R_{ε,w}(A) per attribute at the build (ε, w). With the min-weight
      // cache below it restores the exact ValueSets and double bit patterns
      // Build() computed, so a loaded index's reverse stages are
      // bit-identical without touching the histories.
      {.id = kSectionRequiredValues,
       .name = "required_values",
       .count = reverse_only,
       .bytes = [](const Index& index) {
         std::string out;
         AppendPodT(&out, static_cast<uint64_t>(index.required_values_.size()));
         for (const ValueSet& values : index.required_values_) {
           AppendPodT(&out, static_cast<uint64_t>(values.size()));
           for (const ValueId id : values.values()) AppendPodT(&out, id);
         }
         return out;
       },
       .read = [](auto payload, auto& m, size_t, Index* index) {
         ByteReader reader(payload.data(), payload.size());
         uint64_t count = 0;
         TIND_RETURN_IF_ERROR(reader.ReadPod(&count, "set count"));
         if (count != m.num_attributes ||
             count > reader.remaining() / sizeof(uint64_t)) {
           return Status::InvalidArgument("covers " + std::to_string(count) +
                                          " attributes, manifest says " +
                                          std::to_string(m.num_attributes));
         }
         index->required_values_.reserve(count);
         for (uint64_t c = 0; c < count; ++c) {
           uint64_t n = 0;
           TIND_RETURN_IF_ERROR(reader.ReadPod(&n, "set size"));
           // Bounded before anything is allocated for the set.
           if (n > reader.remaining() / sizeof(ValueId)) {
             return Status::InvalidArgument("set " + std::to_string(c) +
                                            " of " + std::to_string(n) +
                                            " values overruns the payload");
           }
           std::string_view raw;
           TIND_RETURN_IF_ERROR(
               reader.ReadBytes(&raw, n * sizeof(ValueId), "set"));
           std::vector<ValueId> values(n);
           if (n > 0) std::memcpy(values.data(), raw.data(), raw.size());
           if (std::adjacent_find(values.begin(), values.end(),
                                  std::greater_equal<ValueId>()) !=
                   values.end() ||
               (n > 0 && values.back() >= m.dictionary_size)) {
             return Status::InvalidArgument(
                 "set " + std::to_string(c) +
                 " is not sorted and unique within the dictionary");
           }
           index->required_values_.push_back(
               ValueSet::FromSorted(std::move(values)));
         }
         return TrailingBytes(reader);
       }},
      // Minimum version-subinterval weight per reverse slice and attribute,
      // doubles as exact bit patterns.
      {.id = kSectionMinWeights,
       .name = "min_weights",
       .count = reverse_only,
       .bytes = [](const Index& index) {
         std::string out;
         AppendPodT(&out,
                    static_cast<uint64_t>(index.reverse_min_weights_.size()));
         AppendPodT(&out, static_cast<uint64_t>(index.dataset_->size()));
         for (const std::vector<double>& row : index.reverse_min_weights_) {
           AppendPod(&out, row.data(), row.size() * sizeof(double));
         }
         return out;
       },
       .read = [](auto payload, auto& m, size_t, Index* index) {
         ByteReader reader(payload.data(), payload.size());
         uint64_t rows = 0;
         uint64_t cols = 0;
         TIND_RETURN_IF_ERROR(reader.ReadPod(&rows, "slice count"));
         TIND_RETURN_IF_ERROR(reader.ReadPod(&cols, "column count"));
         if (rows != std::min<uint64_t>(m.reverse_slices,
                                        index->slice_intervals_.size()) ||
             cols != m.num_attributes ||
             (rows != 0 && cols > reader.remaining() / rows / sizeof(double))) {
           return Status::InvalidArgument("shape " + std::to_string(rows) +
                                          "x" + std::to_string(cols) +
                                          " is inconsistent");
         }
         index->reverse_min_weights_.assign(rows, std::vector<double>(cols));
         for (std::vector<double>& row : index->reverse_min_weights_) {
           std::string_view raw;
           TIND_RETURN_IF_ERROR(
               reader.ReadBytes(&raw, cols * sizeof(double), "row"));
           if (cols > 0) std::memcpy(row.data(), raw.data(), raw.size());
         }
         return TrailingBytes(reader);
       }},
      {.id = kSectionMatrixFull,
       .name = "matrix_m_t",
       .count = One,
       .matrix = [](const Index& index, size_t) -> const BloomMatrix& {
         return index.full_matrix_;
       },
       .read = [](auto payload, auto& m, size_t, Index* index) {
         return ReadMatrix(payload, m, &index->full_matrix_);
       }},
      // One member per slice interval, read after the intervals.
      {.id = kSectionMatrixSliceBase,
       .name = "matrix_slice_",
       .family = true,
       .count = [](const Index& index) {
         return index.slice_intervals_.size();
       },
       .matrix = [](const Index& index, size_t j) -> const BloomMatrix& {
         return index.slice_matrices_[j];
       },
       .read = [](auto payload, auto& m, size_t, Index* index) {
         return ReadMatrix(payload, m, &index->slice_matrices_.emplace_back());
       },
       .clean = [](const UpdateStats& s, size_t j) {
         return j < s.slice_dirty.size() && !s.slice_dirty[j];
       }},
      {.id = kSectionMatrixReverse,
       .name = "matrix_m_r",
       .count = reverse_only,
       .matrix = [](const Index& index, size_t) -> const BloomMatrix& {
         return index.reverse_matrix_;
       },
       .read = [](auto payload, auto& m, size_t, Index* index) {
         return ReadMatrix(payload, m, &index->reverse_matrix_);
       }},
  };
  return kKinds;
}

Result<std::unique_ptr<TindIndex>> SectionTable::Read(
    const ParsedSnapshot& parsed, const ManifestFixed& manifest) {
  auto index = std::unique_ptr<TindIndex>(new TindIndex());
  for (const SectionKind& kind : Kinds()) {
    if (kind.read == nullptr) continue;
    for (size_t j = 0; j < kind.count(*index); ++j) {
      const uint32_t id = kind.id + static_cast<uint32_t>(j);
      const SectionEntry* entry = parsed.Find(id);
      if (entry == nullptr) {
        return Status::IOError("snapshot " + parsed.file->path() +
                               " has no " + SectionName(id) + " section");
      }
      const Status read =
          kind.read(parsed.Payload(*entry), manifest, j, index.get());
      if (!read.ok()) {
        return Status(read.code(), "section " + SectionName(id) + " in " +
                                       parsed.file->path() + ": " +
                                       read.message());
      }
    }
  }
  return index;
}

std::string SectionName(uint32_t id) {
  for (const SectionKind& kind : SectionTable::Kinds()) {
    if (kind.family ? id >= kind.id : id == kind.id) {
      return kind.family ? kind.name + std::to_string(id - kind.id)
                         : std::string(kind.name);
    }
  }
  return "unknown_" + std::to_string(id);
}

}  // namespace tind::snapshot
