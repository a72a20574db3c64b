#ifndef TIND_COMMON_THREAD_POOL_H_
#define TIND_COMMON_THREAD_POOL_H_

/// \file thread_pool.h
/// A fixed-size worker pool used to parallelize tIND validation and, for the
/// all-pairs problem, whole queries (the paper parallelizes over queries —
/// Section 4.2.2). Also provides a ParallelFor convenience that hands out
/// one index at a time, so one slow index (an expensive query group) never
/// holds back the indices after it.
///
/// Failure semantics:
///  * Submit: the returned future owns the task's outcome. An exception
///    thrown by the task is captured and rethrown from future::get(); a
///    future that is discarded without get() silently discards the
///    exception too — use SubmitDetached for fire-and-forget work.
///  * SubmitDetached: a task whose exception escapes is reported to stderr
///    and counted ("thread_pool/detached_exceptions") instead of vanishing.
///  * ParallelFor: the first exception thrown by any index is captured,
///    the workers stop at the next index boundary, all in-flight work
///    drains, and the exception is rethrown on the calling thread — no
///    worker dies, no index is half-processed without the caller knowing.
///  * Cancellation: pass a CancellationToken to ParallelFor to stop at the
///    next index boundary; cancelled ranges simply leave the remaining
///    indices unvisited (the caller checks the token to distinguish).

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <functional>
#include <future>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

#include "common/cancellation.h"

namespace tind {

/// \brief Fixed pool of worker threads with a shared FIFO task queue.
class ThreadPool {
 public:
  /// Creates `num_threads` workers; 0 means std::thread::hardware_concurrency.
  explicit ThreadPool(size_t num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t num_threads() const { return workers_.size(); }

  /// Enqueues a task; the returned future yields its result (or rethrows
  /// the task's exception). Discarding the future discards any exception.
  template <typename Fn>
  auto Submit(Fn&& fn) -> std::future<std::invoke_result_t<Fn>> {
    using R = std::invoke_result_t<Fn>;
    auto task = std::make_shared<std::packaged_task<R()>>(std::forward<Fn>(fn));
    std::future<R> future = task->get_future();
    Enqueue([task] { (*task)(); });
    return future;
  }

  /// Fire-and-forget variant for tasks whose result nobody awaits. Unlike a
  /// dropped Submit future, an escaping exception is loudly reported
  /// (stderr + "thread_pool/detached_exceptions" counter) instead of lost.
  template <typename Fn>
  void SubmitDetached(Fn&& fn) {
    Enqueue([f = std::forward<Fn>(fn)]() mutable {
      try {
        f();
      } catch (const std::exception& e) {
        ReportDetachedException(e.what());
      } catch (...) {
        ReportDetachedException("non-std exception");
      }
    });
  }

  /// Runs `fn(i)` for all i in [begin, end) on up to num_threads() workers,
  /// each claiming the next unclaimed index, in ascending order, whenever
  /// it finishes one. Blocks until every index has been processed, an index
  /// throws (first exception rethrown here after all workers drain), or
  /// `cancel` is triggered (remaining indices are skipped). The calling
  /// thread is one of the workers, so the pool may be used reentrantly from
  /// `fn` only if no index blocks on another index.
  void ParallelFor(size_t begin, size_t end,
                   const std::function<void(size_t)>& fn,
                   const CancellationToken* cancel = nullptr);

 private:
  /// Non-template push path: takes the lock, records queue-depth metrics,
  /// and wakes one worker.
  void Enqueue(std::function<void()> task);
  void WorkerLoop();
  static void ReportDetachedException(const char* what);

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> tasks_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_ = false;
};

/// Global default pool, sized to hardware concurrency. Lazily constructed.
ThreadPool* DefaultThreadPool();

/// Half-open index range [begin, end) — one shard of a batched workload.
struct IndexRange {
  size_t begin = 0;
  size_t end = 0;

  size_t size() const { return end - begin; }
  bool operator==(const IndexRange& o) const {
    return begin == o.begin && end == o.end;
  }
};

/// Plans contiguous shards of [0, total) for batch execution: each shard is
/// at most `max_shard` items (the amortization width of a batch group, e.g.
/// kBloomBatchGroupSize), and when whole-`max_shard` shards would leave some
/// of `num_workers` idle, the shard size shrinks to ceil(total/num_workers)
/// so every worker gets one. Shards tile [0, total) exactly, in order —
/// batch consumers rely on that for deterministic per-index bookkeeping.
/// Returns an empty vector when total == 0.
std::vector<IndexRange> PlanBatchShards(size_t total, size_t num_workers,
                                        size_t max_shard);

}  // namespace tind

#endif  // TIND_COMMON_THREAD_POOL_H_
