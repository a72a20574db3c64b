#ifndef TIND_TIND_DISCOVERY_H_
#define TIND_TIND_DISCOVERY_H_

/// \file discovery.h
/// The all-pairs tIND discovery problem (Section 3.5): find every pair
/// A ⊆_{w,ε,δ} B within a dataset by querying each attribute against the
/// index. As the paper notes (Section 4.2.2), it is superior to parallelize
/// the *queries* rather than the per-query validations, which is what this
/// driver does: pending queries are cut into groups, each answered by one
/// single-group TindIndex::BatchSearch (the Bloom matrices are streamed once
/// per group instead of once per query). Pool workers claim groups one at a
/// time, and finished groups are replayed in ascending query order.
///
/// Fault tolerance: the options-based overload supports cooperative
/// cancellation, byte budgeting of the accumulated result set (the k-MANY
/// failure mode of Figure 7, reported as OutOfMemory instead of dying), and
/// periodic checkpoints to a sidecar file so a killed run resumes from the
/// last checkpoint and still produces the identical sorted pair set.

#include <cstdint>
#include <string>
#include <vector>

#include "common/cancellation.h"
#include "common/memory_budget.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "temporal/dataset.h"
#include "tind/index.h"
#include "tind/params.h"

namespace tind {

/// One discovered inclusion: lhs ⊆_{w,ε,δ} rhs.
struct TindPair {
  AttributeId lhs;
  AttributeId rhs;

  bool operator==(const TindPair& o) const {
    return lhs == o.lhs && rhs == o.rhs;
  }
  bool operator<(const TindPair& o) const {
    return lhs != o.lhs ? lhs < o.lhs : rhs < o.rhs;
  }
};

struct AllPairsResult {
  std::vector<TindPair> pairs;  ///< Sorted by (lhs, rhs).
  double elapsed_seconds = 0;   ///< Query time, excluding index build.
  size_t num_queries = 0;
  size_t total_validations = 0;  ///< Exact validations across all queries.
  size_t resumed_queries = 0;    ///< Queries restored from the checkpoint.
  size_t checkpoints_written = 0;
  /// Checkpoint writes that failed (non-fatal: the run continues and only
  /// loses resume granularity). Also counted in
  /// "discovery/checkpoint_failures".
  size_t checkpoint_failures = 0;
};

/// Fault-tolerance and execution knobs for DiscoverAllTinds.
struct DiscoveryOptions {
  ThreadPool* pool = nullptr;  ///< nullptr = sequential.
  /// Cooperative cancellation: the run stops at the next query boundary,
  /// writes a final checkpoint (if checkpointing), and returns Cancelled.
  const CancellationToken* cancel = nullptr;
  /// Accounts the accumulated per-query result bytes; exceeding the cap
  /// stops the run with OutOfMemory (after a final checkpoint). The
  /// reservation is released before returning — the budget bounds the
  /// run's transient footprint, mirroring the paper's k-MANY OOM analysis.
  MemoryBudget* memory = nullptr;
  /// Sidecar checkpoint file; empty disables checkpointing. An existing
  /// valid checkpoint is resumed from; a corrupt one is ignored (fresh
  /// start). Deleted after a successful complete run.
  std::string checkpoint_path;
  /// Completed queries between checkpoint writes.
  size_t checkpoint_interval = 64;
  /// Transient checkpoint-write failures are retried this many times with
  /// exponential backoff + decorrelated jitter (common/backoff.h) before the
  /// write counts as failed; 0 disables retries. Retries are tallied in the
  /// "discovery/checkpoint_retries" obs counter.
  uint32_t checkpoint_retries = 3;
  /// Queries per group (0 behaves as 1): each group of pending queries is
  /// one TindIndex::BatchSearch call and one ParallelFor index, claimed by
  /// the next free worker. Cancellation, fault injection, budgeting, and
  /// checkpointing all keep their per-query granularity (evaluated while
  /// finished groups are replayed in query order, so a stop at query q
  /// leaves exactly the pre-q queries completed) — only the index probing
  /// is amortized. kBloomBatchGroupSize is the natural maximum.
  size_t batch_size = 64;
};

/// Discovers all tINDs in the index's dataset by running one search per
/// attribute, parallelized over queries on `pool` (nullptr = sequential).
AllPairsResult DiscoverAllTinds(const TindIndex& index, const TindParams& params,
                                ThreadPool* pool = nullptr);

/// Fault-tolerant variant. Error statuses:
///  * Cancelled — `options.cancel` fired; progress is in the checkpoint.
///  * OutOfMemory — `options.memory` cap hit; progress is in the checkpoint.
///  * Internal — a query task threw (first exception's message).
Result<AllPairsResult> DiscoverAllTinds(const TindIndex& index,
                                        const TindParams& params,
                                        const DiscoveryOptions& options);

}  // namespace tind

#endif  // TIND_TIND_DISCOVERY_H_
