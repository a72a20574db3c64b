#include "common/thread_pool.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <exception>
#include <stdexcept>

#include "common/fault_injection.h"
#include "obs/metrics.h"

namespace tind {

ThreadPool::ThreadPool(size_t num_threads) {
  if (num_threads == 0) {
    num_threads = std::max(1u, std::thread::hardware_concurrency());
  }
  workers_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::Enqueue(std::function<void()> task) {
  size_t depth;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    tasks_.push(std::move(task));
    depth = tasks_.size();
  }
  TIND_OBS_COUNTER_ADD("thread_pool/tasks_submitted", 1);
  TIND_OBS_GAUGE_SET("thread_pool/queue_depth", depth);
  TIND_OBS_GAUGE_MAX("thread_pool/queue_depth_peak", depth);
  cv_.notify_one();
}

void ThreadPool::ReportDetachedException(const char* what) {
  std::fprintf(stderr, "tind::ThreadPool: detached task threw: %s\n", what);
  TIND_OBS_COUNTER_ADD("thread_pool/detached_exceptions", 1);
}

void ThreadPool::WorkerLoop() {
  while (true) {
    std::function<void()> task;
    size_t depth;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] { return stop_ || !tasks_.empty(); });
      if (stop_ && tasks_.empty()) return;
      task = std::move(tasks_.front());
      tasks_.pop();
      depth = tasks_.size();
    }
    TIND_OBS_GAUGE_SET("thread_pool/queue_depth", depth);
    TIND_OBS_COUNTER_ADD("thread_pool/tasks_executed", 1);
    // Task wrappers (packaged_task, the SubmitDetached shim) capture user
    // exceptions themselves; this catch keeps a throwing wrapper from
    // killing the worker (std::terminate) and reports it instead.
    try {
      task();
    } catch (const std::exception& e) {
      ReportDetachedException(e.what());
    } catch (...) {
      ReportDetachedException("non-std exception");
    }
  }
}

void ThreadPool::ParallelFor(size_t begin, size_t end,
                             const std::function<void(size_t)>& fn,
                             const CancellationToken* cancel) {
  if (begin >= end) return;
  TIND_OBS_COUNTER_ADD("thread_pool/parallel_for_calls", 1);
  TIND_OBS_COUNTER_ADD("thread_pool/parallel_for_items", end - begin);
  const size_t n = end - begin;

  // Shared failure state: the first exception wins, and its arrival (or a
  // cancellation) makes every worker bail at the next index boundary.
  std::atomic<bool> abort{false};
  std::exception_ptr first_exception;
  std::mutex exception_mutex;
  const auto should_stop = [&] {
    return abort.load(std::memory_order_relaxed) ||
           (cancel != nullptr && cancel->cancelled());
  };
  const auto run_index = [&](size_t i) {
    if (TIND_FAULT_POINT("thread_pool/task")) {
      throw std::runtime_error("injected fault: thread_pool/task");
    }
    if (TIND_FAULT_POINT("thread_pool/slow_task")) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    fn(i);
  };

  const size_t num_workers = std::min(n, num_threads());
  if (num_workers <= 1) {
    for (size_t i = begin; i < end && !should_stop(); ++i) run_index(i);
    return;
  }
  // Indices are claimed one at a time, so a slow index holds back only the
  // worker running it.
  std::atomic<size_t> next{begin};
  // Never throws: exceptions are parked in first_exception so that every
  // queued copy of this lambda outlives the frame it captures by reference.
  const auto worker = [&] {
    while (!should_stop()) {
      const size_t i = next.fetch_add(1);
      if (i >= end) return;
      try {
        run_index(i);
      } catch (...) {
        {
          std::lock_guard<std::mutex> lock(exception_mutex);
          if (!first_exception) first_exception = std::current_exception();
        }
        abort.store(true, std::memory_order_relaxed);
        return;
      }
    }
  };
  std::vector<std::future<void>> futures;
  futures.reserve(num_workers - 1);
  // The calling thread is one of the workers, so ParallelFor makes progress
  // even if every pool thread is busy with other submissions.
  for (size_t w = 1; w < num_workers; ++w) futures.push_back(Submit(worker));
  worker();
  // Drain unconditionally — the worker lambdas reference this frame.
  for (auto& f : futures) f.get();
  if (first_exception) {
    TIND_OBS_COUNTER_ADD("thread_pool/parallel_for_exceptions", 1);
    std::rethrow_exception(first_exception);
  }
}

ThreadPool* DefaultThreadPool() {
  static ThreadPool pool;
  return &pool;
}

std::vector<IndexRange> PlanBatchShards(size_t total, size_t num_workers,
                                        size_t max_shard) {
  std::vector<IndexRange> shards;
  if (total == 0) return shards;
  if (max_shard == 0) max_shard = 1;
  size_t shard = max_shard;
  if (num_workers > 1) {
    const size_t per_worker = (total + num_workers - 1) / num_workers;
    shard = std::clamp<size_t>(per_worker, 1, max_shard);
  }
  shards.reserve((total + shard - 1) / shard);
  for (size_t lo = 0; lo < total; lo += shard) {
    shards.push_back(IndexRange{lo, std::min(total, lo + shard)});
  }
  return shards;
}

}  // namespace tind
