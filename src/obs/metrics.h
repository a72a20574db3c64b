#ifndef TIND_OBS_METRICS_H_
#define TIND_OBS_METRICS_H_

/// \file metrics.h
/// The observability subsystem: a thread-safe MetricsRegistry of counters,
/// gauges, and fixed-bucket latency histograms, plus RAII ScopedTimer spans
/// with hierarchical labels ("search/slice_prune" nests under "search").
///
/// Cost model — instrumentation must never tax Release benchmarks:
///  * Compile-time gate: building with -DTIND_OBS_DISABLED=1 (CMake option
///    TIND_ENABLE_METRICS=OFF) turns every TIND_OBS_* macro into nothing.
///  * Runtime gate: the registry starts *disabled*; every macro first does a
///    single relaxed atomic-bool load and skips all work (including the
///    evaluation of its value expression) while disabled. Harnesses enable
///    it only when --metrics_json is passed.
///  * Hot loops never call into the registry per element: call sites
///    accumulate locally and publish once per call, and the macros cache the
///    metric pointer in a function-local static so the name lookup happens
///    once per call site, not per call.
///
/// Metric objects are arena-stable: once registered, a Counter*/Gauge*/
/// Histogram* stays valid for the registry's lifetime (Reset() zeroes values
/// but never invalidates pointers), which is what makes the cached-pointer
/// macro pattern sound.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <vector>

#include "obs/json.h"

namespace tind::obs {

/// \brief Monotonically increasing event count. All operations are lock-free.
class Counter {
 public:
  void Add(uint64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }
  const std::string& name() const { return name_; }

 private:
  friend class MetricsRegistry;
  explicit Counter(std::string name) : name_(std::move(name)) {}
  std::string name_;
  std::atomic<uint64_t> value_{0};
};

/// \brief Last-write-wins instantaneous value (queue depth, fill ratio).
class Gauge {
 public:
  void Set(double v) { value_.store(v, std::memory_order_relaxed); }
  void Add(double delta);
  /// Raises the gauge to `v` if larger (high-watermark tracking).
  void UpdateMax(double v);
  double value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }
  const std::string& name() const { return name_; }

 private:
  friend class MetricsRegistry;
  explicit Gauge(std::string name) : name_(std::move(name)) {}
  std::string name_;
  std::atomic<double> value_{0};
};

/// Default latency bucket upper bounds in milliseconds: 1 µs … 1 min, two
/// buckets per decade. Chosen once and fixed so JSON reports from different
/// runs/PRs are bucket-compatible and can be diffed directly.
const std::vector<double>& DefaultLatencyBoundsMs();

/// Exponential bucket bounds: start, start*factor, ... (`count` bounds).
std::vector<double> ExponentialBuckets(double start, double factor,
                                       size_t count);

/// \brief Fixed-bucket histogram with atomic bucket counts plus streaming
/// count/sum/min/max. Observe() is lock-free.
class Histogram {
 public:
  /// A histogram outside any registry, e.g. one server's own latency;
  /// empty `bounds` means DefaultLatencyBoundsMs().
  explicit Histogram(std::string name, std::vector<double> bounds = {});

  void Observe(double value);

  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  double min() const;  ///< 0 when empty.
  double max() const;  ///< 0 when empty.
  double Mean() const;
  /// Percentile estimate (p in [0,100]) by linear interpolation inside the
  /// owning bucket; exact values are not retained (fixed memory).
  double Percentile(double p) const;

  const std::vector<double>& bounds() const { return bounds_; }
  /// bounds().size() + 1 entries; the last is the overflow bucket.
  std::vector<uint64_t> BucketCounts() const;

  void Reset();
  const std::string& name() const { return name_; }

 private:
  std::string name_;
  std::vector<double> bounds_;
  std::unique_ptr<std::atomic<uint64_t>[]> buckets_;
  std::atomic<uint64_t> count_{0};
  std::atomic<double> sum_{0};
  std::atomic<double> min_{0};
  std::atomic<double> max_{0};
};

/// \brief Thread-safe named-metric registry with JSON/CSV export.
///
/// GetX() registers on first use and afterwards returns the same pointer;
/// lookups take a shared lock, registration an exclusive one. A process-wide
/// instance lives behind Global(); isolated instances can be constructed for
/// tests.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// The process-wide registry used by the TIND_OBS_* macros and ScopedTimer.
  static MetricsRegistry& Global();

  /// Runtime gate; starts false. Metric objects keep recording when used
  /// directly — this flag only gates the macros and ScopedTimer.
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool on) {
    enabled_.store(on, std::memory_order_relaxed);
  }

  Counter* GetCounter(std::string_view name);
  Gauge* GetGauge(std::string_view name);
  /// `bounds` applies only on first registration; empty means
  /// DefaultLatencyBoundsMs().
  Histogram* GetHistogram(std::string_view name,
                          const std::vector<double>& bounds = {});

  /// Zeroes every metric; registrations (and pointers) survive.
  void Reset();

  /// {"counters": {name: value}, "gauges": {...}, "histograms": {name:
  /// {count, sum, min, max, mean, p50, p95, bounds, bucket_counts}}}.
  JsonValue ToJson() const;
  std::string ToJsonString(int indent = 2) const;
  /// "kind,name,field,value" rows (one per scalar), for spreadsheet diffing.
  std::string ToCsv() const;
  /// Writes ToJsonString to `path`; false (with errno intact) on I/O error.
  bool WriteJsonFile(const std::string& path) const;

 private:
  mutable std::shared_mutex mutex_;
  // Heap-owned metric objects: registered pointers stay valid forever.
  std::vector<std::unique_ptr<Counter>> counters_;
  std::vector<std::unique_ptr<Gauge>> gauges_;
  std::vector<std::unique_ptr<Histogram>> histograms_;
  std::map<std::string, Counter*, std::less<>> counter_index_;
  std::map<std::string, Gauge*, std::less<>> gauge_index_;
  std::map<std::string, Histogram*, std::less<>> histogram_index_;
  std::atomic<bool> enabled_{false};
};

/// \brief RAII span: records elapsed milliseconds into the histogram
/// "span/<path>" where <path> is this label nested under any enclosing
/// spans on the same thread ("index_build" → "index_build/slices").
///
/// Inert (no clock read, no stack push) when the registry is disabled at
/// construction. Spans opened on pool worker threads do not inherit the
/// submitting thread's path — each thread has its own span stack.
class ScopedTimer {
 public:
  explicit ScopedTimer(std::string_view label,
                       MetricsRegistry* registry = nullptr);
  ~ScopedTimer();
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

  /// The current thread's innermost open span path ("" when none); exposed
  /// for tests.
  static std::string CurrentPath();

 private:
  Histogram* histogram_ = nullptr;  ///< Null when inert.
  std::chrono::steady_clock::time_point start_;
};

}  // namespace tind::obs

#ifndef TIND_OBS_DISABLED
#define TIND_OBS_DISABLED 0
#endif

#if !TIND_OBS_DISABLED

#define TIND_OBS_CONCAT_INNER_(a, b) a##b
#define TIND_OBS_CONCAT_(a, b) TIND_OBS_CONCAT_INNER_(a, b)

/// Opens an RAII span for the rest of the enclosing scope.
#define TIND_OBS_SCOPED_TIMER(label)      \
  ::tind::obs::ScopedTimer TIND_OBS_CONCAT_(tind_obs_span_, __LINE__) { label }

/// Adds `delta` to the named counter. `delta` is evaluated only when the
/// global registry is enabled; `name` must be a string literal (the metric
/// pointer is cached per call site).
#define TIND_OBS_COUNTER_ADD(name, delta)                                  \
  do {                                                                     \
    if (::tind::obs::MetricsRegistry::Global().enabled()) {                \
      static ::tind::obs::Counter* tind_obs_counter_ =                     \
          ::tind::obs::MetricsRegistry::Global().GetCounter(name);         \
      tind_obs_counter_->Add(static_cast<uint64_t>(delta));                \
    }                                                                      \
  } while (0)

/// Sets the named gauge; same gating and caching as TIND_OBS_COUNTER_ADD.
#define TIND_OBS_GAUGE_SET(name, value)                                    \
  do {                                                                     \
    if (::tind::obs::MetricsRegistry::Global().enabled()) {                \
      static ::tind::obs::Gauge* tind_obs_gauge_ =                         \
          ::tind::obs::MetricsRegistry::Global().GetGauge(name);           \
      tind_obs_gauge_->Set(static_cast<double>(value));                    \
    }                                                                      \
  } while (0)

/// Raises the named gauge to `value` if larger (high-watermark).
#define TIND_OBS_GAUGE_MAX(name, value)                                    \
  do {                                                                     \
    if (::tind::obs::MetricsRegistry::Global().enabled()) {                \
      static ::tind::obs::Gauge* tind_obs_gauge_ =                         \
          ::tind::obs::MetricsRegistry::Global().GetGauge(name);           \
      tind_obs_gauge_->UpdateMax(static_cast<double>(value));              \
    }                                                                      \
  } while (0)

/// Records one observation into the named histogram.
#define TIND_OBS_OBSERVE(name, value)                                      \
  do {                                                                     \
    if (::tind::obs::MetricsRegistry::Global().enabled()) {                \
      static ::tind::obs::Histogram* tind_obs_hist_ =                      \
          ::tind::obs::MetricsRegistry::Global().GetHistogram(name);       \
      tind_obs_hist_->Observe(static_cast<double>(value));                 \
    }                                                                      \
  } while (0)

/// Like TIND_OBS_OBSERVE but supplies explicit bucket bounds on first
/// registration — for size/count distributions (batch group sizes, probe
/// fan-outs) where the default latency bounds are meaningless. `bounds` is
/// evaluated once per call site, and only if that call site registers first.
#define TIND_OBS_OBSERVE_BOUNDS(name, value, bounds)                       \
  do {                                                                     \
    if (::tind::obs::MetricsRegistry::Global().enabled()) {                \
      static ::tind::obs::Histogram* tind_obs_hist_ =                      \
          ::tind::obs::MetricsRegistry::Global().GetHistogram(name,        \
                                                              (bounds));   \
      tind_obs_hist_->Observe(static_cast<double>(value));                 \
    }                                                                      \
  } while (0)

#else  // TIND_OBS_DISABLED

#define TIND_OBS_SCOPED_TIMER(label) static_cast<void>(0)
#define TIND_OBS_COUNTER_ADD(name, delta) static_cast<void>(0)
#define TIND_OBS_GAUGE_SET(name, value) static_cast<void>(0)
#define TIND_OBS_GAUGE_MAX(name, value) static_cast<void>(0)
#define TIND_OBS_OBSERVE(name, value) static_cast<void>(0)
#define TIND_OBS_OBSERVE_BOUNDS(name, value, bounds) static_cast<void>(0)

#endif  // TIND_OBS_DISABLED

#endif  // TIND_OBS_METRICS_H_
