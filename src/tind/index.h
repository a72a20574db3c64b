#ifndef TIND_TIND_INDEX_H_
#define TIND_TIND_INDEX_H_

/// \file index.h
/// The tIND search index of Section 4: the required-values matrix M_T, the
/// time-slice matrices M_{I_1..I_k}, and (optionally) the reverse matrix M_R
/// over per-attribute required values, chained into the candidate pruning of
/// Algorithm 1 followed by exact validation (Algorithm 2).
///
/// Parameter knowledge at build time (Section 4.4):
///  * δ — the *maximum* δ queries will use must be known (slices are built
///    on δ-expanded intervals). Queries with smaller δ remain correct but
///    prune less sharply; queries with larger δ skip the slice stage.
///  * ε, w — only used for interval sizing (efficiency) and for M_R. Forward
///    queries may use any (ε, w); reverse queries must use ε <= the build ε
///    or the M_R stage is skipped.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bloom/bloom_matrix.h"
#include "common/cancellation.h"
#include "common/memory_budget.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "temporal/dataset.h"
#include "tind/interval_selection.h"
#include "tind/params.h"
#include "tind/plan.h"

namespace tind {

struct UpdateStats;  // tind/update.h — dirty bookkeeping of one ApplyDelta.
namespace snapshot {
struct SectionTable;  // snapshot/section_table.h — the *.tsnap section kinds.
}  // namespace snapshot

/// Build-time configuration of a TindIndex.
struct TindIndexOptions {
  /// Bloom filter size m in bits; must be a power of two. Paper default for
  /// forward search: 4096 (Figure 12).
  size_t bloom_bits = 4096;
  /// Number of Bloom hash probes per value.
  uint32_t num_hashes = 3;
  /// Number of time-slice indices k. Paper default for forward search: 16.
  size_t num_slices = 16;
  /// Maximum δ that queries will use.
  int64_t delta = 7;
  /// ε assumed at build time (interval sizing; required values of M_R).
  double epsilon = 3.0;
  /// Placement of the k slices (Figures 13/14).
  SliceStrategy strategy = SliceStrategy::kRandom;
  uint64_t seed = 42;
  /// Whether to build M_R and enforce δ-disjoint slices so the same index
  /// answers reverse queries (Section 4.5).
  bool build_reverse_index = true;
  /// How many of the k slices reverse queries probe; the paper finds 2
  /// optimal (Figure 14) even when 16 slices exist for forward search.
  size_t reverse_slices = 2;
  /// Weight function assumed at build time; not owned, must outlive Build().
  const WeightFunction* weight = nullptr;
  /// Optional byte accounting; Build fails with OutOfMemory when exceeded.
  MemoryBudget* memory = nullptr;
};

/// Load-time configuration for TindIndex::LoadSnapshot (src/snapshot).
struct SnapshotLoadOptions {
  /// Weight function the index was built with; not owned, must outlive the
  /// index. LoadSnapshot rejects the snapshot (FailedPrecondition) when its
  /// ToString() differs from the weight description in the manifest.
  const WeightFunction* weight = nullptr;
  /// Optional byte accounting; the mapped matrix bytes are reserved against
  /// it exactly as Build() reserves heap bytes.
  MemoryBudget* memory = nullptr;
  /// Verify the CRC-32 of every section (including the large matrix planes)
  /// before trusting the file. Cheap relative to a rebuild; disable only for
  /// repeated loads of an already-verified artifact.
  bool verify_checksums = true;
  /// Verify the manifest's corpus digest against `dataset`. Disable only
  /// when the caller has already established corpus identity.
  bool verify_corpus_digest = true;
};

/// Per-query diagnostics (candidate funnel + timing). The funnel counts are
/// taken after each stage in the order `plan` ran them: under the default
/// kRecheckFirst order after_exact_check counts the recheck's survivors and
/// after_slices the survivors of both prunes (what reaches validation);
/// under kPaperOrder it is the other way round.
struct QueryStats {
  QueryPlan plan = QueryPlan::kRecheckFirst;  ///< The stage order that ran.
  size_t initial_candidates = 0;  ///< After M_T (or M_R) pruning.
  size_t after_slices = 0;        ///< After time-slice violation pruning.
  size_t after_exact_check = 0;   ///< After exact required-values recheck.
  size_t num_results = 0;         ///< Valid tINDs returned.
  size_t validations = 0;         ///< Exact Algorithm-2 validations run.
  bool used_slices = false;       ///< True when the slice stage probed.
  bool used_prefilter = false;    ///< False when M_T/M_R was unusable.
  /// True when this query was abandoned mid-funnel (its CancellationToken
  /// fired, or SearchCursor::Abandon): the result list is empty and every
  /// remaining stage was skipped.
  bool cancelled = false;
  /// True when the slice stage was usable (query δ within the build δ) but
  /// its cost rule (SlicesPayOff) skipped it. The skip is sound — the final
  /// result is unchanged; only the work distribution across stages moves.
  bool plan_skipped_slices = false;
  double elapsed_ms = 0;
  /// Per-stage wall-time attribution (prefilter probe, slice pruning, exact
  /// recheck, validation). Like elapsed_ms these are timing fields and are
  /// excluded from the differential tests' bit-identity contracts.
  double probe_ms = 0;
  double slices_ms = 0;
  double recheck_ms = 0;
  double validate_ms = 0;
};

/// Recheck survivors at or below this count skip the slice stage: even a
/// perfect prune cannot save more validations than the probes cost.
inline constexpr size_t kSkipSlicesMax = 8;

/// The slice stage's cost rule, applied under QueryPlan::kRecheckFirst to
/// every query whose δ is within the build δ (above it the slices are not
/// sound and never run): the slices pay off only when more than
/// kSkipSlicesMax candidates survive the exact recheck and some non-empty
/// version of `query` falls inside one of `slice_intervals` (otherwise the
/// forward stage would issue no probe at all). Counts each decision in
/// planner/{full,skip_slices}. Skipping is sound, so a wrong decision costs
/// latency, never correctness.
bool SlicesPayOff(const std::vector<Interval>& slice_intervals,
                  const AttributeHistory& query, size_t candidates);

/// \brief Immutable tIND search index over one Dataset.
///
/// Thread-safe for concurrent queries after Build.
class TindIndex {
 public:
  /// Builds the index over `dataset`. The dataset must outlive the index.
  static Result<std::unique_ptr<TindIndex>> Build(const Dataset& dataset,
                                                  const TindIndexOptions& options);

  const TindIndexOptions& options() const { return options_; }
  const std::vector<Interval>& slice_intervals() const {
    return slice_intervals_;
  }
  const Dataset& dataset() const { return *dataset_; }

  /// tIND search (Definition 3.7): all A ∈ D with Q ⊆_{w,ε,δ} A. The query
  /// history must share the dataset's dictionary and domain; if it is one of
  /// the indexed attributes, it is excluded from its own result (reflexive
  /// tINDs are trivial). Results are ascending by attribute id.
  ///
  /// If `pool` is non-null, final validations run in parallel on it.
  std::vector<AttributeId> Search(const AttributeHistory& query,
                                  const TindParams& params,
                                  QueryStats* stats = nullptr,
                                  ThreadPool* pool = nullptr) const;

  /// Search with an explicit stage order (tind/plan.h). With the default
  /// kRecheckFirst this is bit-identical to the overload above; under
  /// kPaperOrder the result is the same (both prunes are sound) but the
  /// funnel counters follow Algorithm 1. Both overloads run the query as a
  /// group of one through the batch pipeline; the progressive cursor
  /// (tind/progressive.h) steps the same groups one stage at a time.
  std::vector<AttributeId> Search(const AttributeHistory& query,
                                  const TindParams& params,
                                  QueryPlan plan,
                                  QueryStats* stats = nullptr,
                                  ThreadPool* pool = nullptr) const;

  /// Reverse tIND search (Definition 3.8): all A ∈ D with A ⊆_{w,ε,δ} Q.
  std::vector<AttributeId> ReverseSearch(const AttributeHistory& query,
                                         const TindParams& params,
                                         QueryStats* stats = nullptr,
                                         ThreadPool* pool = nullptr) const;

  /// ReverseSearch with an explicit stage order — same contract as the
  /// planned Search overload.
  std::vector<AttributeId> ReverseSearch(const AttributeHistory& query,
                                         const TindParams& params,
                                         QueryPlan plan,
                                         QueryStats* stats = nullptr,
                                         ThreadPool* pool = nullptr) const;

  /// Batched tIND search: answers `queries` with exactly the results (and
  /// candidate-funnel QueryStats) that `queries.size()` independent Search()
  /// calls would produce, but plans the required-value filters and slice
  /// probes of up to kBloomBatchGroupSize queries together so M_T and each
  /// slice matrix are streamed once per probe group instead of once per
  /// probe (bloom_batch.h describes the kernel). The batch differential
  /// test enforces the equivalence on randomized corpora.
  ///
  /// Query pointers must not be null and must outlive the call; duplicate
  /// queries are fine. If `stats` is non-null it is resized to
  /// queries.size(); each stage's wall time is split equally among the
  /// group members that ran it (per-query timing is not separable inside a
  /// shared scan), and elapsed_ms is the sum of a query's stage shares.
  /// If `pool` is non-null the batch is sharded across its workers
  /// (PlanBatchShards); results are identical either way.
  std::vector<std::vector<AttributeId>> BatchSearch(
      const std::vector<const AttributeHistory*>& queries,
      const TindParams& params, std::vector<QueryStats>* stats = nullptr,
      ThreadPool* pool = nullptr) const;

  /// Batched reverse search — same contract as BatchSearch relative to
  /// looped ReverseSearch(). Batching pays the most here: subset probes
  /// touch nearly every row of M_R, and the per-candidate minimum-violation
  /// weights and required-value sets of the recheck stage are shared across
  /// the whole group instead of recomputed per query.
  std::vector<std::vector<AttributeId>> BatchReverseSearch(
      const std::vector<const AttributeHistory*>& queries,
      const TindParams& params, std::vector<QueryStats>* stats = nullptr,
      ThreadPool* pool = nullptr) const;

  /// Total bytes held in Bloom matrices ((k+1 [+1]) * m * |D| / 8).
  size_t MemoryUsageBytes() const;

  /// Persists the fully built index as a versioned binary snapshot at
  /// `path` (atomic temp+fsync+rename, per-section CRC-32): bit planes,
  /// slice intervals, required-value/min-weight caches, dictionary, time
  /// domain, and attribute metadata, under a self-describing manifest. The
  /// sections are the members of the kinds in snapshot/section_table.cc.
  ///
  /// Defined in the tind_snapshot library (src/snapshot/); link it to use.
  Status SaveSnapshot(const std::string& path) const;

  /// Incremental re-publication after IndexUpdater::ApplyDelta: writes the
  /// same artifact SaveSnapshot(path) would — byte for byte — but copies
  /// each section whose kind's "clean" predicate holds for `stats` (its
  /// payload bytes and stored CRC) from `previous_path` instead of
  /// re-serializing it. The previous artifact passes the loader's header
  /// and section-table checks first, and each reused section its CRC.
  /// Atomic like SaveSnapshot: on any failure (including an injected
  /// "snapshot/write" fault) the previous artifact is left intact.
  ///
  /// Defined in the tind_snapshot library (src/snapshot/); link it to use.
  Status CompactSnapshot(const std::string& previous_path,
                         const std::string& path,
                         const UpdateStats& stats) const;

  /// Reloads a SaveSnapshot() artifact via mmap with zero-copy Bloom-matrix
  /// views: the mapped planes feed the SIMD/batch kernels directly, so a
  /// load costs file mapping plus integrity checks instead of a rebuild.
  /// `dataset` must be the corpus the snapshot was built over (the exact
  /// validation stages read full version histories, which the snapshot does
  /// not duplicate); a manifest digest mismatch is a FailedPrecondition.
  /// The loaded index answers Search/ReverseSearch/BatchSearch bit-
  /// identically (results and QueryStats) to the index Build() returned.
  ///
  /// Defined in the tind_snapshot library (src/snapshot/); link it to use.
  static Result<std::unique_ptr<TindIndex>> LoadSnapshot(
      const Dataset& dataset, const std::string& path,
      const SnapshotLoadOptions& options);

  /// True iff the Bloom planes are borrowed from a mapped snapshot.
  bool loaded_from_snapshot() const { return snapshot_storage_ != nullptr; }

 private:
  friend class IndexUpdater;   ///< Incremental maintenance (tind/update.h).
  friend class SearchCursor;   ///< Staged execution (tind/progressive.h).

  TindIndex() = default;

  /// One group (at most kBloomBatchGroupSize queries, one direction) moving
  /// through the funnel in its plan's stage order. Every search
  /// runs as a group — Search/ReverseSearch as a group of one, SearchCursor
  /// as groups of up to 64 stepped a stage at a time, BatchSearch as groups
  /// of up to 64 — so each stage has exactly one implementation.
  ///
  /// Candidates start as every attribute but the query itself, so they are
  /// a sound superset before the probe too. A member whose token fires is
  /// abandoned at the next stage boundary, slice-planning step or
  /// validation candidate: its results come back empty, its funnel counts
  /// freeze with `cancelled` set, no later stage touches it, and its
  /// candidate set stays the sound superset it had reached.
  struct Group {
    std::vector<const AttributeHistory*> queries;
    TindParams params;
    bool forward = true;
    QueryPlan plan = QueryPlan::kRecheckFirst;
    /// Parallel to `queries` when non-empty; null entries are not
    /// cancellable.
    std::vector<const CancellationToken*> cancels;
    /// Runs stage-4 validations in parallel when non-null.
    ThreadPool* pool = nullptr;
    SearchStage next = SearchStage::kProbe;
    std::vector<BitVector> candidates;
    std::vector<ValueSet> required;  ///< R_{ε,w}(Q) of forward members.
    std::vector<char> abandoned;
    std::vector<QueryStats> stats;
    std::vector<std::vector<AttributeId>> results;

    size_t size() const { return queries.size(); }
    /// Abandons member `b` if its token has fired; true iff it is abandoned.
    bool PollCancel(size_t b);
    /// Abandons member `b` (idempotent).
    void Abandon(size_t b);
  };

  Group MakeGroup(const AttributeHistory* const* queries, size_t n,
                  const TindParams& params, bool forward, QueryPlan plan,
                  const CancellationToken* const* cancels) const;

  /// Runs the group's next stage and advances `g->next` in the group's
  /// stage order: to kDone after validation, or as soon as every member is
  /// abandoned.
  void StepGroup(Group* g) const;

  /// Runs a group of one to completion (Search / ReverseSearch).
  std::vector<AttributeId> RunSingle(const AttributeHistory& query,
                                     const TindParams& params,
                                     QueryPlan plan, QueryStats* stats,
                                     ThreadPool* pool, bool forward) const;

  /// M_R (and with it the reverse recheck) is sound only when the query ε
  /// does not exceed the ε its required values were built with (Section
  /// 4.5).
  bool ReversePrefilterUsable(const TindParams& params) const;

  /// The four stage bodies behind StepGroup. Each skips abandoned members
  /// and fills the funnel fields of QueryStats for the others. Under
  /// kRecheckFirst the slice stage runs for a member only when SlicesPayOff
  /// says so.
  void ProbeStage(Group* g) const;
  void SliceStage(Group* g) const;
  void RecheckStage(Group* g) const;
  void ValidateStage(Group* g) const;

  /// Forward slice pruning (Algorithm 1, lines 4-15): decodes each member's
  /// slice versions, probes all (member, version) filters of a slice as one
  /// batch, then replays the partial-violation bookkeeping per member.
  void PruneForwardSlices(Group* g) const;

  /// Reverse slice pruning with minimum-violation accounting (Section 4.5,
  /// Figure 6). The minimum version-subinterval weight depends only on the
  /// candidate and the slice, so one lookup serves every member.
  void PruneReverseSlices(Group* g) const;

  /// Exact Algorithm-2 validation of one member's candidates; `forward`
  /// selects the containment direction. Returns empty once `cancel` fires.
  std::vector<AttributeId> ValidateCandidates(
      const AttributeHistory& query, const TindParams& params,
      const BitVector& candidates, bool forward, ThreadPool* pool,
      const CancellationToken* cancel, size_t* validations) const;

  /// Shared batch driver: shards the batch (across `pool` when given), then
  /// runs each group of up to kBloomBatchGroupSize queries.
  std::vector<std::vector<AttributeId>> BatchExecute(
      const std::vector<const AttributeHistory*>& queries,
      const TindParams& params, std::vector<QueryStats>* stats,
      ThreadPool* pool, bool forward) const;

  /// Every snapshot section kind reads and writes these members directly
  /// (src/snapshot/section_table.h).
  friend struct snapshot::SectionTable;

  /// Populates required_values_ / reverse_min_weights_ from the dataset and
  /// build parameters. Shared by Build() and (indirectly, for validation in
  /// tests) the snapshot loader, which normally restores the caches from the
  /// file instead of recomputing them.
  void BuildReverseCaches();

  const Dataset* dataset_ = nullptr;
  TindIndexOptions options_;
  /// Bytes accounted against options_.memory; returned on destruction.
  MemoryReservation reservation_;
  BloomMatrix full_matrix_;  ///< M_T over A[T].
  std::vector<Interval> slice_intervals_;
  std::vector<BloomMatrix> slice_matrices_;  ///< M_{I_j} over A[I_j^δ].
  BloomMatrix reverse_matrix_;               ///< M_R over R_{ε,w}(A).
  bool has_reverse_ = false;

  /// R_{ε,w}(A) per attribute at the build (ε, w) — the column sets of M_R.
  /// Reverse stage-3 rechecks always evaluate at the build parameters, so
  /// this cache replaces a ComputeRequiredValues call per candidate per
  /// query. Empty when has_reverse_ is false. Persisted in snapshots.
  std::vector<ValueSet> required_values_;
  /// Minimum version-subinterval weight (Figure 6) per reverse slice j and
  /// attribute, under the build weight; -1 when the attribute has no version
  /// in the δ-expanded slice. Valid for queries whose params.weight is the
  /// build weight object; other weights fall back to on-the-fly computation.
  /// Persisted in snapshots as exact double bit patterns.
  std::vector<std::vector<double>> reverse_min_weights_;

  /// Keeps the mmap'd snapshot alive for the index's lifetime (type-erased
  /// so index.h does not depend on the snapshot library's headers).
  std::shared_ptr<void> snapshot_storage_;
};

}  // namespace tind

#endif  // TIND_TIND_INDEX_H_
