#ifndef TIND_SERVE_LOAD_H_
#define TIND_SERVE_LOAD_H_

/// \file load.h
/// Open-loop load generation against a tind_serve endpoint: arrivals are
/// scheduled on a Poisson process at the target QPS *independently of
/// responses* (the canonical way to expose overload — a closed loop would
/// self-throttle and hide the knee). Latency is measured from the scheduled
/// arrival, so queueing delay behind a saturated server counts.
///
/// RunQpsSweep runs a ladder of QPS points and locates the knee: the
/// highest offered rate the server absorbs with negligible shedding. The
/// emitted JSON (BENCH_serving.json schema) is shared by the tind_load
/// tool and bench_serving harness and validated in CI by
/// tools/check_bench_json.py against bench/baselines/serving.json.

#include <cstdint>
#include <string>
#include <vector>

#include "obs/json.h"
#include "serve/client.h"

namespace tind::serve {

struct LoadOptions {
  ClientOptions client;
  double qps = 200;
  double duration_s = 2;
  size_t workers = 4;  ///< Connections; arrivals round-robin across them.
  /// Query mix: fractions of reverse and discovery-window requests (the
  /// rest are forward searches).
  double reverse_fraction = 0.25;
  double discovery_fraction = 0.0;
  uint32_t discovery_window = 8;
  /// Fraction of the (forward + reverse) queries issued over the streaming
  /// op (kSearchStream); their time-to-first-result feeds the ttfr_* report
  /// fields.
  double stream_fraction = 0.0;
  /// Attribute id space to sample queries from (must be <= dataset size).
  size_t num_attributes = 1;
  /// Hot/cold skew: this fraction of queries targets a Zipf-distributed hot
  /// set of `hot_set_fraction * num_attributes` ids (same construction as
  /// scenario::BuildTrafficPlan); the rest sample uniformly. 0 = uniform.
  double hot_fraction = 0.0;
  double hot_set_fraction = 0.05;
  uint64_t seed = 1;
};

struct LoadReport {
  uint64_t offered = 0;   ///< Scheduled arrivals.
  uint64_t ok = 0;        ///< Exact answers.
  uint64_t degraded = 0;  ///< Superset answers (counted in addition to ok).
  uint64_t shed = 0;      ///< Final outcome ResourceExhausted/OutOfMemory.
  uint64_t deadline_exceeded = 0;
  uint64_t transport_errors = 0;
  uint64_t other_errors = 0;
  uint64_t retries = 0;
  uint64_t reconnects = 0;
  double achieved_qps = 0;
  double p50_ms = 0;
  double p95_ms = 0;
  double p99_ms = 0;
  double max_ms = 0;
  /// Streaming-op tallies (zero when stream_fraction == 0). Streamed
  /// requests also count in ok/degraded/...; these break out their
  /// time-to-first-result (request send → first partial frame).
  uint64_t streams = 0;        ///< Streaming requests with a terminal outcome.
  uint64_t stream_partials = 0;  ///< Streams that delivered a partial frame.
  double ttfr_p50_ms = 0;
  double ttfr_p95_ms = 0;
  double ttfr_p99_ms = 0;
  double ttfr_max_ms = 0;

  /// offered == ok + shed + deadline_exceeded + transport + other: every
  /// request reached a terminal outcome (the zero-hung-requests invariant).
  bool AllAccounted() const;
  obs::JsonValue ToJson() const;
};

/// Runs one open-loop burst. Blocks until every scheduled request has a
/// terminal outcome.
LoadReport RunOpenLoopLoad(const LoadOptions& options);

struct SweepPoint {
  double qps = 0;
  LoadReport report;
};

struct SweepResult {
  std::vector<SweepPoint> points;
  /// Highest swept QPS with <1% shed and no unaccounted requests; 0 when
  /// every point shed.
  double knee_qps = 0;
};

/// Runs `qps_ladder` points sequentially with the same base options.
SweepResult RunQpsSweep(const LoadOptions& base,
                        const std::vector<double>& qps_ladder);

/// The BENCH_serving.json document: {"points": [...], "knee_qps",
/// "total_offered", "total_ok", "all_accounted", "hung_requests"}.
obs::JsonValue SweepToJson(const SweepResult& sweep);

}  // namespace tind::serve

#endif  // TIND_SERVE_LOAD_H_
