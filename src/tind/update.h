#ifndef TIND_TIND_UPDATE_H_
#define TIND_TIND_UPDATE_H_

/// \file update.h
/// Online index maintenance: apply a typed RevisionDelta (append versions to
/// an attribute history, add an attribute, retire an attribute) to a built
/// TindIndex without a rebuild.
///
/// The updater never mutates the base dataset or index. It produces a *new*
/// dataset that shares everything the delta leaves alone: the pointers to
/// untouched histories are copied, a history is cloned the first time an op
/// touches it, and the dictionary shares the base's strings and interns the
/// delta's new ones into a private overlay (temporal/value_dictionary.h).
/// Nothing an older epoch can see is ever written, so its concurrent
/// readers race with nothing, and the dataset side of an apply costs the
/// delta (touched histories + new strings), not the corpus. The *new* index
/// has matrices cloned from the base and patched column-wise:
///
///  * M_T: the column of every dirty attribute is cleared and re-set from
///    its new AllValues(); clean columns are byte-copied.
///  * Time slices: slice intervals are re-selected with the exact build
///    options (under the default kRandom strategy placement depends only on
///    the domain, the weight, and the seed — never on attribute content — so
///    intervals are stable under deltas). A slice whose interval is
///    unchanged is cloned and only the columns of dirty attributes whose
///    first affected timestamp falls inside the δ-expanded interval are
///    re-set; a slice whose interval moved (possible under kWeightedRandom,
///    which samples attribute content) is rebuilt from scratch.
///  * M_R + the required-value / minimum-weight caches: recomputed for dirty
///    attributes only, with the exact arithmetic of BuildReverseCaches().
///
/// The result is bit-for-bit identical — matrices, caches, and therefore
/// query results *and* QueryStats — to a fresh TindIndex::Build over the
/// mutated dataset; tests/update_differential_test.cc enforces this across
/// every SIMD backend. Failure atomicity: ApplyDelta either returns the
/// complete new (dataset, index) pair or an error with the base pair
/// untouched — there is no torn intermediate state for a fault to expose
/// (chaos stage 9 injects "update/alloc" / "update/patch" faults to verify).

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/status.h"
#include "temporal/dataset.h"
#include "tind/index.h"

namespace tind {

/// One revision of the corpus: a typed mutation of a single attribute.
struct RevisionOp {
  enum class Kind : uint8_t {
    /// Append a version: `attribute` holds `values` from `timestamp` onward.
    /// Builder semantics apply (same-timestamp overwrite wins, a version
    /// equal to its predecessor coalesces away).
    kAppendVersion = 0,
    /// Add a new attribute with id == dataset.size() at apply time; `meta`
    /// names it and `versions` seeds its history (at least one non-empty
    /// version required, timestamps ascending).
    kAddAttribute = 1,
    /// Retire `attribute` at `timestamp`: its value set becomes empty from
    /// there on. Attribute ids are never reused and columns never shrink —
    /// a retired attribute simply stops matching.
    kRetireAttribute = 2,
  };

  Kind kind = Kind::kAppendVersion;
  /// Target of kAppendVersion / kRetireAttribute.
  AttributeId attribute = kInvalidAttributeId;
  Timestamp timestamp = 0;
  /// kAppendVersion: the new version's values (interned on apply).
  std::vector<std::string> values;
  /// kAddAttribute: provenance + seed versions.
  AttributeMeta meta;
  std::vector<std::pair<Timestamp, std::vector<std::string>>> versions;
};

/// An ordered batch of revisions applied atomically as one epoch step.
struct RevisionDelta {
  std::vector<RevisionOp> ops;

  bool empty() const { return ops.empty(); }
};

/// The dataset side of a delta application: the mutated copy plus the dirty
/// bookkeeping the index patcher (and the snapshot compactor) needs.
struct DeltaApplication {
  std::shared_ptr<Dataset> dataset;
  /// Dirty attribute -> earliest timestamp whose resolved value set may have
  /// changed (appends affect [t, domain end] only; ids >= the base size are
  /// freshly added). Drives slice-overlap patching.
  std::unordered_map<AttributeId, Timestamp> dirty;
  size_t versions_appended = 0;
  size_t attributes_added = 0;
  size_t attributes_retired = 0;
  /// True when the delta interned values unseen by the base dictionary.
  bool dictionary_grew = false;
};

/// Applies `delta` to a new epoch of `base`: it shares the histories the
/// delta does not touch and the base's dictionary strings, clones each
/// touched history once, and interns new values into its own dictionary
/// overlay (the base is never touched). Both the incremental path and the
/// fresh-rebuild oracle of the differential test run through this one
/// function, so value interning order — and therefore every ValueId and
/// Bloom bit — is identical on both sides by construction. Ops are applied in order;
/// validation errors (unknown attribute, out-of-domain or non-increasing
/// timestamp, empty kAddAttribute) reject the whole delta.
Result<DeltaApplication> ApplyDeltaToDataset(const Dataset& base,
                                             const RevisionDelta& delta);

/// What the incremental apply did — consumed by CompactSnapshot (which
/// sections to rewrite), bench_update, and the chaos/differential harnesses.
struct UpdateStats {
  size_t attributes_touched = 0;   ///< Dirty existing attributes.
  size_t attributes_added = 0;
  size_t attributes_retired = 0;
  size_t versions_appended = 0;
  size_t slices_patched = 0;       ///< Interval unchanged, columns re-set.
  size_t slices_skipped = 0;       ///< Interval unchanged, no dirty overlap.
  size_t slices_rebuilt = 0;       ///< Interval moved: full column rebuild.
  size_t columns_reset = 0;        ///< Total ClearColumn+SetColumn ops.
  /// Per-slice dirty flags (true = the slice matrix differs from the base
  /// index's and its snapshot section must be rewritten).
  std::vector<bool> slice_dirty;
  /// True when re-selection moved any interval (kWeightedRandom only).
  bool slice_intervals_changed = false;
  bool dictionary_dirty = false;
  bool attribute_meta_dirty = false;
};

/// A consistent (dataset, index) pair produced by one delta application.
/// The serving layer swaps these atomically (epoch/RCU style): in-flight
/// queries keep the shared_ptrs of the epoch they started under.
struct UpdateResult {
  std::shared_ptr<const Dataset> dataset;
  std::shared_ptr<const TindIndex> index;
  UpdateStats stats;
};

/// \brief Incremental maintenance of a TindIndex.
class IndexUpdater {
 public:
  /// Applies `delta` to `base` (whose dataset is `base.dataset()`), cloning
  /// and patching rather than rebuilding. The base index may itself be a
  /// Build() product, a LoadSnapshot() product (borrowed planes are
  /// materialized into owned storage by the clone), or the index of a prior
  /// ApplyDelta — chains compose. Byte growth is reserved against the base
  /// options' MemoryBudget; on any failure (including injected
  /// "update/alloc" / "update/patch" faults) the base pair is untouched.
  static Result<UpdateResult> ApplyDelta(const TindIndex& base,
                                         const RevisionDelta& delta);

  /// Convenience overload for chained applications.
  static Result<UpdateResult> ApplyDelta(const UpdateResult& base,
                                         const RevisionDelta& delta) {
    return ApplyDelta(*base.index, delta);
  }
};

}  // namespace tind

#endif  // TIND_TIND_UPDATE_H_
