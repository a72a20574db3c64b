#include "tind/discovery.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "common/backoff.h"
#include "common/fault_injection.h"
#include "common/stopwatch.h"
#include "obs/metrics.h"
#include "tind/checkpoint.h"

namespace tind {

namespace {

/// Snapshots the completed queries for a checkpoint write. Caller holds the
/// discovery state lock.
DiscoveryCheckpoint MakeCheckpoint(
    size_t n, const std::vector<char>& done,
    const std::vector<std::vector<AttributeId>>& per_query) {
  DiscoveryCheckpoint checkpoint;
  checkpoint.num_queries = n;
  for (size_t q = 0; q < n; ++q) {
    if (done[q]) {
      checkpoint.completed.emplace_back(static_cast<AttributeId>(q),
                                        per_query[q]);
    }
  }
  return checkpoint;
}

/// Returns accumulated result bytes to the budget on every exit path.
struct BudgetGuard {
  MemoryBudget* budget;
  const std::atomic<size_t>* bytes;
  ~BudgetGuard() {
    if (budget != nullptr) budget->Free(bytes->load());
  }
};

}  // namespace

AllPairsResult DiscoverAllTinds(const TindIndex& index, const TindParams& params,
                                ThreadPool* pool) {
  DiscoveryOptions options;
  options.pool = pool;
  auto result = DiscoverAllTinds(index, params, options);
  if (!result.ok()) {
    // With no cancellation, budget, or checkpointing configured the
    // options overload can only fail on a throwing task; preserve the
    // legacy exception contract for that case.
    throw std::runtime_error(result.status().ToString());
  }
  return std::move(*result);
}

Result<AllPairsResult> DiscoverAllTinds(const TindIndex& index,
                                        const TindParams& params,
                                        const DiscoveryOptions& options) {
  const Dataset& dataset = index.dataset();
  const size_t n = dataset.size();
  Stopwatch timer;
  TIND_OBS_SCOPED_TIMER("discover_all_pairs");

  std::vector<std::vector<AttributeId>> per_query(n);
  std::vector<char> done(n, 0);
  size_t resumed = 0;
  if (!options.checkpoint_path.empty()) {
    auto loaded = LoadDiscoveryCheckpoint(options.checkpoint_path);
    if (loaded.ok() && loaded->num_queries == n) {
      for (auto& [q, rhs_list] : loaded->completed) {
        if (q < n && !done[q]) {
          per_query[q] = std::move(rhs_list);
          done[q] = 1;
          ++resumed;
        }
      }
      TIND_OBS_COUNTER_ADD("discovery/resumed_queries", resumed);
    } else if (!loaded.ok() && !loaded.status().IsNotFound()) {
      // Corrupt checkpoint: start fresh rather than fail the whole run.
      TIND_OBS_COUNTER_ADD("discovery/checkpoints_corrupt", 1);
    }
  }
  TIND_OBS_COUNTER_ADD("discover/queries", n - resumed);

  // Shared run state. `internal_cancel` trips on user cancellation, budget
  // exhaustion, or an injected preemption, and stops ParallelFor at the
  // next group boundary.
  CancellationToken internal_cancel;
  std::atomic<size_t> reserved_bytes{0};
  BudgetGuard budget_guard{options.memory, &reserved_bytes};
  // Guards per_query, done and everything below it: results are recorded
  // only by the replay, which runs under this lock.
  std::mutex state_mutex;
  bool user_cancelled = false;
  Status oom_status;
  size_t completed = resumed;
  size_t since_checkpoint = 0;
  size_t total_validations = 0;
  size_t checkpoints_written = 0;
  size_t checkpoint_failures = 0;

  const auto record_checkpoint_write = [&](const Status& written) {
    if (written.ok()) {
      ++checkpoints_written;
      TIND_OBS_COUNTER_ADD("discovery/checkpoints_written", 1);
    } else {
      // Non-fatal: the run only loses resume granularity.
      ++checkpoint_failures;
      TIND_OBS_COUNTER_ADD("discovery/checkpoint_failures", 1);
    }
  };

  // Checkpoint writes ride out transient sidecar I/O failures (full disk
  // briefly, injected "discovery/checkpoint_write" faults) with bounded
  // decorrelated-jitter retries before a write is recorded as failed. The
  // seed is fixed: retry schedules stay reproducible across chaos runs.
  const auto save_checkpoint_with_retry =
      [&](const DiscoveryCheckpoint& snapshot) {
        Status written =
            SaveDiscoveryCheckpoint(snapshot, options.checkpoint_path);
        if (!written.ok() && options.checkpoint_retries > 0) {
          BackoffOptions backoff_options;
          backoff_options.initial_us = 200;
          backoff_options.max_us = 10000;
          backoff_options.max_retries = options.checkpoint_retries;
          ExponentialBackoff backoff(backoff_options, /*seed=*/0x74494e44);
          uint64_t delay_us = 0;
          while (!written.ok() && backoff.NextDelayUs(&delay_us)) {
            std::this_thread::sleep_for(std::chrono::microseconds(delay_us));
            TIND_OBS_COUNTER_ADD("discovery/checkpoint_retries", 1);
            written =
                SaveDiscoveryCheckpoint(snapshot, options.checkpoint_path);
          }
        }
        record_checkpoint_write(written);
      };

  // Records one answered query: validation count, result-byte budgeting,
  // and checkpoint cadence. Caller holds state_mutex. Returns false when the
  // budget is exhausted (the run stops and the remaining answers are
  // discarded, exactly as if those queries had never run).
  const auto record_result = [&](size_t q, std::vector<AttributeId> rhs_list,
                                 const QueryStats& stats) {
    total_validations += stats.validations;
    if (options.memory != nullptr) {
      const size_t bytes = rhs_list.size() * sizeof(AttributeId);
      const Status reserve = options.memory->Allocate(bytes);
      if (!reserve.ok()) {
        oom_status = reserve;
        internal_cancel.Cancel();
        return false;
      }
      reserved_bytes.fetch_add(bytes, std::memory_order_relaxed);
    }
    per_query[q] = std::move(rhs_list);
    done[q] = 1;
    ++completed;
    if (!options.checkpoint_path.empty() &&
        ++since_checkpoint >= options.checkpoint_interval) {
      since_checkpoint = 0;
      save_checkpoint_with_retry(MakeCheckpoint(n, done, per_query));
    }
    return true;
  };

  const auto write_final_checkpoint = [&] {
    if (options.checkpoint_path.empty()) return;
    std::lock_guard<std::mutex> lock(state_mutex);
    save_checkpoint_with_retry(MakeCheckpoint(n, done, per_query));
  };

  // Cut the pending queries (those not restored from the checkpoint) into
  // groups of batch_size and answer each group with one single-group
  // BatchSearch, so the Bloom matrices are streamed once per group. Workers
  // claim groups one at a time: a slow group (catch-all queries with many
  // candidates) holds back only its own worker. Answers are *replayed in
  // ascending query order*: whichever thread finishes the group at the
  // replay cursor replays it and every consecutive finished group after it.
  // Stop checks — user cancellation and the chaos fault points — are
  // evaluated per query during the replay, before that query's result is
  // recorded, so when a stop or injected death fires at query q exactly the
  // queries before q are completed and checkpointed per cadence. Answers
  // computed past the stop are discarded as if those queries had never run
  // (wasted work, never wrong state).
  std::vector<size_t> pending_ids;
  for (size_t q = 0; q < n; ++q) {
    if (!done[q]) pending_ids.push_back(q);
  }
  const size_t group_size = std::max<size_t>(1, options.batch_size);
  const size_t num_groups = (pending_ids.size() + group_size - 1) / group_size;
  struct GroupAnswers {
    bool finished = false;
    std::vector<std::vector<AttributeId>> answers;
    std::vector<QueryStats> stats;
  };
  std::vector<GroupAnswers> groups(num_groups);  // Guarded by state_mutex.
  size_t replay_cursor = 0;                      // Guarded by state_mutex.

  // Replays group g's answers; returns false once the run stops.
  const auto replay_group = [&](size_t g) {
    GroupAnswers& group = groups[g];
    for (size_t i = 0; i < group.answers.size(); ++i) {
      if (options.cancel != nullptr && options.cancel->cancelled()) {
        user_cancelled = true;
        internal_cancel.Cancel();
        return false;
      }
      // Chaos-only: an injected preemption behaves like an external stop
      // request, and an injected die simulates power loss — the
      // checkpoint on disk must carry the recovery on its own.
      if (TIND_FAULT_POINT("discovery/preempt")) {
        user_cancelled = true;
        internal_cancel.Cancel();
        return false;
      }
      if (TIND_FAULT_POINT("discovery/die")) std::raise(SIGKILL);
      if (!record_result(pending_ids[g * group_size + i],
                         std::move(group.answers[i]), group.stats[i])) {
        return false;
      }
    }
    group = GroupAnswers{};  // Release the replayed answers.
    return true;
  };

  const auto run_group = [&](size_t g) {
    // Once the user's token fires nothing past the replay cursor can be
    // recorded, so later groups are not worth computing.
    if (options.cancel != nullptr && options.cancel->cancelled()) return;
    const size_t lo = g * group_size;
    const size_t hi = std::min(pending_ids.size(), lo + group_size);
    std::vector<const AttributeHistory*> queries;
    queries.reserve(hi - lo);
    for (size_t i = lo; i < hi; ++i) {
      queries.push_back(
          &dataset.attribute(static_cast<AttributeId>(pending_ids[i])));
    }
    TIND_OBS_COUNTER_ADD("discovery/batches", 1);
    // No pool inside the group: the driver already runs one group per
    // worker, and nesting validation parallelism only adds contention.
    std::vector<QueryStats> stats;
    std::vector<std::vector<AttributeId>> answers =
        index.BatchSearch(queries, params, &stats, /*pool=*/nullptr);
    std::lock_guard<std::mutex> lock(state_mutex);
    groups[g] = GroupAnswers{true, std::move(answers), std::move(stats)};
    while (!internal_cancel.cancelled() && replay_cursor < num_groups &&
           groups[replay_cursor].finished && replay_group(replay_cursor)) {
      ++replay_cursor;
    }
  };

  try {
    if (options.pool != nullptr) {
      options.pool->ParallelFor(0, num_groups, run_group, &internal_cancel);
    } else {
      for (size_t g = 0; g < num_groups && !internal_cancel.cancelled(); ++g) {
        run_group(g);
      }
    }
  } catch (const std::exception& e) {
    // A query task threw (ParallelFor rethrows the first exception after
    // draining). Preserve completed work, degrade to a Status.
    write_final_checkpoint();
    return Status::Internal(std::string("discovery query task failed: ") +
                            e.what());
  }

  if (!oom_status.ok()) {
    write_final_checkpoint();
    return Status::OutOfMemory(
        oom_status.message() + " (discovery stopped after " +
        std::to_string(completed) + "/" + std::to_string(n) +
        " queries; result bytes reserved: " +
        std::to_string(reserved_bytes.load()) + ")");
  }
  if (user_cancelled ||
      (options.cancel != nullptr && options.cancel->cancelled())) {
    write_final_checkpoint();
    return Status::Cancelled(
        "discovery cancelled after " + std::to_string(completed) + "/" +
        std::to_string(n) + " queries" +
        (options.checkpoint_path.empty()
             ? ""
             : "; checkpoint at " + options.checkpoint_path));
  }

  AllPairsResult result;
  result.num_queries = n;
  result.total_validations = total_validations;
  result.resumed_queries = resumed;
  result.checkpoints_written = checkpoints_written;
  result.checkpoint_failures = checkpoint_failures;
  size_t total_pairs = 0;
  for (const auto& rhs_list : per_query) total_pairs += rhs_list.size();
  result.pairs.reserve(total_pairs);
  for (size_t q = 0; q < n; ++q) {
    for (const AttributeId rhs : per_query[q]) {
      result.pairs.push_back(TindPair{static_cast<AttributeId>(q), rhs});
    }
  }
  // Per-query results are ascending in rhs and queries are visited in
  // ascending lhs order, so the concatenation is already (lhs, rhs)-sorted.
  result.elapsed_seconds = timer.ElapsedSeconds();
  TIND_OBS_COUNTER_ADD("discover/pairs", result.pairs.size());
  TIND_OBS_COUNTER_ADD("discover/validations", result.total_validations);
  // The run completed: the sidecar has served its purpose.
  if (!options.checkpoint_path.empty()) {
    RemoveDiscoveryCheckpoint(options.checkpoint_path);
  }
  return result;
}

}  // namespace tind
