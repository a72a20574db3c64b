/// tind_load: open-loop load driver for tind_serve.
///
///   tind_load --port=7421 --qps=300 --duration_s=5
///   tind_load --port_file=/tmp/port --sweep=50,100,200,400
///             --json=BENCH_serving.json
///
/// Arrivals follow a Poisson process at the target QPS independently of
/// responses (open loop): a saturated server accrues queueing delay that a
/// closed-loop driver would hide by self-throttling. Latency is measured
/// from each request's *scheduled* arrival. The client layer retries
/// retryable failures (overload sheds, transport errors) with exponential
/// backoff + jitter and reconnects after connection loss.
///
/// --sweep runs a QPS ladder and reports the knee: the highest offered
/// rate absorbed with <1% shedding and every request accounted. --json
/// writes the BENCH_serving.json document (shared schema with
/// bench_serving, validated in CI against bench/baselines/serving.json).
///
/// --scenario=<name-or-json> replays a scenario traffic model (see
/// src/scenario/): its queries/hot-set skew/reverse mix map onto the load
/// options, so the same spec drives the offline harness and this live
/// driver. Explicit flags given alongside --scenario win. --stream_frac
/// sends that share of queries over the anytime streaming op and reports
/// time-to-first-result percentiles.
///
/// Exit status: 0 when every scheduled request reached a terminal outcome
/// (the zero-hung-requests invariant) and none ended in a typed error other
/// than a shed, a deadline or a transport failure; 1 otherwise. Such an
/// error means the driver sent bad requests (say, --attributes larger than
/// the served corpus).

#include <cstdio>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "common/build_info.h"
#include "common/flags.h"
#include "scenario/scenario.h"
#include "serve/load.h"

namespace {

using tind::Flags;
using tind::serve::LoadOptions;
using tind::serve::LoadReport;
using tind::serve::SweepResult;

/// Resolves the target port: --port, or --port_file (polled until it
/// appears, for "start server in background, then drive it" scripts).
int ResolvePort(const Flags& flags) {
  const int64_t port = flags.GetInt("port", 0);
  if (port > 0) return static_cast<int>(port);
  const std::string port_file = flags.GetString("port_file", "");
  if (port_file.empty()) return 0;
  const int wait_s = static_cast<int>(flags.GetInt("port_wait_s", 10));
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(wait_s);
  do {
    std::FILE* f = std::fopen(port_file.c_str(), "r");
    if (f != nullptr) {
      int parsed = 0;
      const int got = std::fscanf(f, "%d", &parsed);
      std::fclose(f);
      if (got == 1 && parsed > 0) return parsed;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  } while (std::chrono::steady_clock::now() < deadline);
  return 0;
}

void PrintPoint(double qps, const LoadReport& r) {
  std::printf("%8.0f %9llu %9llu %9llu %9llu %9llu %8.1f %8.1f %8.1f  %s\n",
              qps, static_cast<unsigned long long>(r.offered),
              static_cast<unsigned long long>(r.ok),
              static_cast<unsigned long long>(r.degraded),
              static_cast<unsigned long long>(r.shed),
              static_cast<unsigned long long>(r.deadline_exceeded), r.p50_ms,
              r.p99_ms, r.achieved_qps, r.AllAccounted() ? "" : "HUNG");
}

int Run(const Flags& flags) {
  LoadOptions load;
  load.client.host = flags.GetString("host", "127.0.0.1");
  load.client.deadline_ms =
      static_cast<uint32_t>(flags.GetInt("deadline_ms", 0));
  load.client.allow_degraded = flags.GetBool("allow_degraded", false);
  load.client.max_attempts =
      static_cast<uint32_t>(flags.GetInt("max_attempts", 5));
  load.client.epsilon = flags.GetDouble("eps", 3.0);
  load.client.delta = flags.GetInt("delta", 7);
  load.qps = flags.GetDouble("qps", 200);
  load.duration_s = flags.GetDouble("duration_s", 2);
  load.workers = static_cast<size_t>(flags.GetInt("workers", 4));
  load.reverse_fraction = flags.GetDouble("reverse_frac", 0.25);
  load.discovery_fraction = flags.GetDouble("discovery_frac", 0.0);
  load.discovery_window =
      static_cast<uint32_t>(flags.GetInt("discovery_window", 8));
  load.stream_fraction = flags.GetDouble("stream_frac", 0.0);
  load.num_attributes = static_cast<size_t>(flags.GetInt("attributes", 1));
  load.hot_fraction = flags.GetDouble("hot_frac", 0.0);
  load.hot_set_fraction = flags.GetDouble("hot_set_frac", 0.05);
  load.seed = static_cast<uint64_t>(flags.GetInt("seed", 1));

  // --scenario: the spec's traffic model (and seed) provides defaults; any
  // flag the user passed explicitly still wins.
  const std::string scenario_name = flags.GetString("scenario", "");
  if (!scenario_name.empty()) {
    tind::Result<tind::scenario::ScenarioSpec> spec =
        tind::scenario::ResolveScenario(scenario_name);
    if (!spec.ok()) {
      std::fprintf(stderr, "bad --scenario: %s\n",
                   spec.status().ToString().c_str());
      return 1;
    }
    const tind::scenario::TrafficSpec& traffic = spec->traffic;
    if (!flags.Has("reverse_frac")) load.reverse_fraction = traffic.reverse_fraction;
    if (!flags.Has("hot_frac")) load.hot_fraction = traffic.hot_fraction;
    if (!flags.Has("hot_set_frac")) {
      load.hot_set_fraction = traffic.hot_set_fraction;
    }
    if (!flags.Has("seed")) load.seed = spec->seed;
    if (!flags.Has("attributes")) {
      load.num_attributes = spec->corpus.attributes;
    }
    std::printf("scenario %s: reverse=%.2f hot=%.2f/%.2f attrs=%zu seed=%llu\n",
                spec->name.c_str(), load.reverse_fraction, load.hot_fraction,
                load.hot_set_fraction, load.num_attributes,
                static_cast<unsigned long long>(load.seed));
  }

  const bool sweep_given = flags.Has("sweep");
  const std::vector<double> ladder =
      flags.GetDoubleList("sweep", {50, 100, 200, 400});
  const std::string json_path = flags.GetString("json", "");
  // ResolvePort reads --port_file and --port_wait_s only without --port.
  flags.Declare({"port", "port_file", "port_wait_s"});
  flags.RejectUnread();

  const int port = ResolvePort(flags);
  if (port <= 0) {
    std::fprintf(stderr,
                 "need --port=<p> or --port_file=<path> (server not up?)\n");
    return 1;
  }
  load.client.port = static_cast<uint16_t>(port);

  std::printf("%8s %9s %9s %9s %9s %9s %8s %8s %8s\n", "qps", "offered",
              "ok", "degraded", "shed", "deadline", "p50ms", "p99ms",
              "achieved");

  SweepResult sweep;
  if (sweep_given) {
    sweep = tind::serve::RunQpsSweep(load, ladder);
    for (const auto& point : sweep.points) PrintPoint(point.qps, point.report);
    std::printf("knee: %.0f qps\n", sweep.knee_qps);
  } else {
    tind::serve::SweepPoint point;
    point.qps = load.qps;
    point.report = tind::serve::RunOpenLoopLoad(load);
    PrintPoint(point.qps, point.report);
    sweep.points.push_back(std::move(point));
    const LoadReport& r = sweep.points.back().report;
    if (r.AllAccounted() && r.offered > 0 &&
        static_cast<double>(r.shed) < 0.01 * static_cast<double>(r.offered)) {
      sweep.knee_qps = load.qps;
    }
  }

  bool all_accounted = true;
  uint64_t other_errors = 0;
  for (const auto& point : sweep.points) {
    all_accounted = all_accounted && point.report.AllAccounted();
    other_errors += point.report.other_errors;
  }
  if (!json_path.empty()) {
    const std::string text = tind::serve::SweepToJson(sweep).Dump(2);
    std::FILE* f = std::fopen(json_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
    std::fwrite(text.data(), 1, text.size(), f);
    std::fputc('\n', f);
    std::fclose(f);
    std::printf("wrote %s\n", json_path.c_str());
  }
  if (!all_accounted) {
    std::fprintf(stderr, "FAIL: requests without a terminal outcome\n");
    return 1;
  }
  if (other_errors > 0) {
    std::fprintf(stderr,
                 "FAIL: %llu requests ended in an error that is not a shed, "
                 "deadline or transport failure\n",
                 static_cast<unsigned long long>(other_errors));
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags = Flags::Parse(argc, argv);
  if (flags.GetBool("build_info", false)) {
    std::printf("%s\n", tind::BuildInfoReport().c_str());
    return 0;
  }
  return Run(flags);
}
