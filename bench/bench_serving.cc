/// bench_serving: latency-vs-QPS curves for the tind_serve query service,
/// plus a deliberate overload stage.
///
///   bench_serving --attributes=240 --days=1000 --sweep=25,50,100,200,400
///       --json=BENCH_serving.json
///
/// Phase 1 sweeps an open-loop QPS ladder against an in-process TindServer
/// and locates the *knee*: the highest offered rate the server absorbs with
/// <1% shedding and every request accounted. Points past the knee are where
/// queueing delay (measured from each request's scheduled arrival — the
/// open loop charges the server for its backlog) turns the latency curve
/// vertical.
///
/// Phase 2 offers >= 2x the knee from more concurrent clients than the
/// admission bound allows (max_attempts=1, so every shed is a terminal,
/// *typed* outcome) and asserts the overload contract:
///   * the server sheds with typed Overloaded errors instead of hanging —
///     every offered request reaches a terminal outcome;
///   * the admission MemoryBudget is respected (rejections counted exactly,
///     all reservations released afterwards);
///   * the p99 of requests the server *did* accept stays within the
///     deadline budget (a request's deadline cancels it mid-funnel).
///
/// The JSON document (BENCH_serving.json) is validated in CI against
/// bench/baselines/serving.json; schema is shared with the tind_load tool.

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/fault_injection.h"
#include "common/memory_budget.h"
#include "common/table_printer.h"
#include "obs/json.h"
#include "serve/load.h"
#include "serve/server.h"
#include "temporal/weights.h"
#include "tind/index.h"

namespace tind {
namespace {

int RunServing(const Flags& flags) {
  wiki::GeneratedDataset corpus = bench::BuildCorpus(flags, 240, 1000);
  const Dataset& dataset = corpus.dataset;
  bench::PrintBanner(
      "serving", "overload-resilient query service: knee + typed shedding",
      dataset);

  const ConstantWeight weight(dataset.domain().num_timestamps());
  TindIndexOptions index_options;
  index_options.bloom_bits = 512;
  index_options.num_slices = 4;
  index_options.build_reverse_index = true;
  index_options.reverse_slices = 2;
  index_options.weight = &weight;
  auto index_or = TindIndex::Build(dataset, index_options);
  if (!index_or.ok()) {
    std::fprintf(stderr, "index build: %s\n",
                 index_or.status().ToString().c_str());
    return 1;
  }
  const TindParams params{3.0, 7, &weight};

  MemoryBudget budget(static_cast<size_t>(flags.GetInt("memory_mb", 64))
                      << 20);
  serve::ServerOptions server_options;
  server_options.max_inflight =
      static_cast<size_t>(flags.GetInt("max_inflight", 16));
  server_options.degrade_watermark =
      static_cast<size_t>(flags.GetInt("degrade_watermark", 8));
  server_options.default_deadline_ms =
      static_cast<uint32_t>(flags.GetInt("deadline_ms", 200));
  server_options.max_connections = 128;
  server_options.memory = &budget;
  serve::TindServer server(**index_or, params, server_options);
  const Status started = server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "server start: %s\n", started.ToString().c_str());
    return 1;
  }

  serve::LoadOptions base;
  base.client.port = server.port();
  base.client.allow_degraded = true;
  base.client.max_attempts =
      static_cast<uint32_t>(flags.GetInt("max_attempts", 3));
  base.qps = 100;
  base.duration_s = flags.GetDouble("duration_s", 1.0);
  base.workers = static_cast<size_t>(flags.GetInt("workers", 8));
  base.reverse_fraction = 0.25;
  base.discovery_fraction = 0.05;
  base.num_attributes = dataset.size();
  base.seed = static_cast<uint64_t>(flags.GetInt("load_seed", 11));

  const std::vector<double> ladder =
      flags.GetDoubleList("sweep", {25, 50, 100, 200, 400});
  serve::SweepResult sweep = serve::RunQpsSweep(base, ladder);

  TablePrinter table(
      {"qps", "offered", "ok", "degraded", "shed", "p50 ms", "p99 ms"});
  for (const serve::SweepPoint& point : sweep.points) {
    const serve::LoadReport& r = point.report;
    table.AddRow({std::to_string(static_cast<int>(point.qps)),
                  std::to_string(r.offered), std::to_string(r.ok),
                  std::to_string(r.degraded), std::to_string(r.shed),
                  bench::Ms(r.p50_ms), bench::Ms(r.p99_ms)});
  }
  bench::EmitTable(flags, table, "latency vs offered QPS (open loop)");
  std::printf("knee: %.0f qps (highest rung with <1%% shed, all accounted)\n",
              sweep.knee_qps);

  // ---- Streaming phase: the same server, every query issued through the
  // progressive kSearchStream op. Measures time-to-first-result (the
  // stage-1 sound superset frame) against time-to-exact over the wire, at
  // a comfortable rate below the knee so queueing does not pollute TTFR.
  serve::LoadOptions streaming = base;
  streaming.qps = std::max(25.0, sweep.knee_qps / 2.0);
  streaming.discovery_fraction = 0.0;
  streaming.stream_fraction = 1.0;
  const serve::LoadReport stream_report = serve::RunOpenLoopLoad(streaming);
  std::printf(
      "streaming @ %.0f qps: streams=%llu partials=%llu ok=%llu "
      "ttfr p50/p99=%.2f/%.2f ms  exact p50/p99=%.2f/%.2f ms\n",
      streaming.qps, static_cast<unsigned long long>(stream_report.streams),
      static_cast<unsigned long long>(stream_report.stream_partials),
      static_cast<unsigned long long>(stream_report.ok),
      stream_report.ttfr_p50_ms, stream_report.ttfr_p99_ms,
      stream_report.p50_ms, stream_report.p99_ms);

  server.Shutdown();
  const auto counters = server.counters();

  // ---- Overload stage: >= 2x knee against a harshly provisioned server.
  // Raw capacity is machine-dependent, so the storm holds a quarter of the
  // dispatched groups with the serve/group_pause fault point (compiled in
  // by default): with qps * pause > max_inflight, every held group leaves
  // more arrivals than there are slots, and the surplus MUST be shed —
  // typed, on any machine. The groups that are not held answer at once, so
  // accepted requests still complete inside their deadline.
  serve::ServerOptions storm_options = server_options;
  storm_options.max_inflight = 8;
  storm_options.degrade_watermark = 6;
  const Status armed =
      FaultInjector::Global().Configure("serve/group_pause=0.25", base.seed);
  if (!armed.ok()) {
    std::fprintf(stderr, "storm pause: %s\n", armed.ToString().c_str());
    return 1;
  }
  serve::TindServer storm_server(**index_or, params, storm_options);
  const Status storm_started = storm_server.Start();
  if (!storm_started.ok()) {
    std::fprintf(stderr, "storm server start: %s\n",
                 storm_started.ToString().c_str());
    return 1;
  }
  const double overload_qps =
      std::max(2.0 * sweep.knee_qps, 2.0 * ladder.back());
  serve::LoadOptions overload = base;
  overload.client.port = storm_server.port();
  overload.qps = overload_qps;
  overload.workers =
      std::max<size_t>(3 * storm_options.max_inflight, base.workers);
  overload.client.max_attempts = 1;  // Sheds stay visible as typed outcomes.
  const serve::LoadReport storm = serve::RunOpenLoopLoad(overload);
  const double p99_accepted_ms = storm_server.LatencyPercentileMs(99);
  storm_server.Shutdown();
  FaultInjector::Global().Reset();

  std::printf(
      "overload @ %.0f qps (%zu clients vs %zu slots): offered=%llu ok=%llu "
      "shed=%llu deadline=%llu budget_rejections=%llu p99(accepted)=%.1f ms\n",
      overload_qps, overload.workers, storm_options.max_inflight,
      static_cast<unsigned long long>(storm.offered),
      static_cast<unsigned long long>(storm.ok),
      static_cast<unsigned long long>(storm.shed),
      static_cast<unsigned long long>(storm.deadline_exceeded),
      static_cast<unsigned long long>(budget.rejections()), p99_accepted_ms);

  // The overload contract, asserted here and again by the CI baseline.
  int failures = 0;
  const auto check = [&failures](bool ok, const char* what) {
    std::printf("  [%s] %s\n", ok ? "ok" : "FAIL", what);
    if (!ok) ++failures;
  };
  check(stream_report.AllAccounted(),
        "every streamed request reached a terminal outcome (zero hung)");
  check(stream_report.streams > 0 &&
            stream_report.stream_partials >= stream_report.ok,
        "every successful stream delivered a partial frame before the exact "
        "answer");
  check(stream_report.ttfr_p50_ms > 0,
        "time-to-first-result was measured for streamed queries");
  check(storm.AllAccounted(),
        "every overload request reached a terminal outcome (zero hung)");
  check(storm.shed > 0, "overload was shed with typed Overloaded errors");
  check(storm.ok > 0, "accepted requests were still answered under overload");
  check(budget.used() == 0,
        "admission budget fully released after the storm");
  const double deadline_bound_ms =
      static_cast<double>(server_options.default_deadline_ms) + 300.0;
  check(p99_accepted_ms <= deadline_bound_ms,
        "p99 of accepted requests within the deadline budget");

  obs::JsonValue json = serve::SweepToJson(sweep);
  auto storm_json = obs::JsonValue::Object();
  storm_json.Set("qps", overload_qps);
  storm_json.Set("workers", static_cast<uint64_t>(overload.workers));
  storm_json.Set("offered", storm.offered);
  storm_json.Set("ok", storm.ok);
  storm_json.Set("degraded", storm.degraded);
  storm_json.Set("shed", storm.shed);
  storm_json.Set("deadline_exceeded", storm.deadline_exceeded);
  storm_json.Set("all_accounted", storm.AllAccounted());
  storm_json.Set("budget_rejections", budget.rejections());
  storm_json.Set("budget_used_after", static_cast<uint64_t>(budget.used()));
  storm_json.Set("p99_accepted_ms", p99_accepted_ms);
  storm_json.Set("p99_within_deadline", p99_accepted_ms <= deadline_bound_ms);
  json.Set("overload", std::move(storm_json));
  auto streaming_json = obs::JsonValue::Object();
  streaming_json.Set("qps", streaming.qps);
  streaming_json.Set("offered", stream_report.offered);
  streaming_json.Set("ok", stream_report.ok);
  streaming_json.Set("streams", stream_report.streams);
  streaming_json.Set("stream_partials", stream_report.stream_partials);
  streaming_json.Set("all_accounted", stream_report.AllAccounted());
  streaming_json.Set("ttfr_p50_ms", stream_report.ttfr_p50_ms);
  streaming_json.Set("ttfr_p99_ms", stream_report.ttfr_p99_ms);
  streaming_json.Set("p50_ms", stream_report.p50_ms);
  streaming_json.Set("p99_ms", stream_report.p99_ms);
  json.Set("streaming", std::move(streaming_json));
  auto server_json = obs::JsonValue::Object();
  server_json.Set("accepted", counters.accepted);
  server_json.Set("completed", counters.completed);
  server_json.Set("degraded", counters.degraded);
  server_json.Set("shed", counters.shed);
  server_json.Set("deadline_exceeded", counters.deadline_exceeded);
  json.Set("server", std::move(server_json));

  const std::string json_path =
      flags.GetString("json", "BENCH_serving.json");
  if (!json_path.empty()) {
    std::FILE* f = std::fopen(json_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
    const std::string text = json.Dump(2);
    std::fwrite(text.data(), 1, text.size(), f);
    std::fputc('\n', f);
    std::fclose(f);
    std::printf("wrote %s\n", json_path.c_str());
  }
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace tind

int main(int argc, char** argv) {
  return tind::bench::RunHarness(
      argc, argv,
      {"attributes", "days", "seed", "csv", "deadline_ms", "degrade_watermark",
       "duration_s", "json", "load_seed", "max_attempts", "max_inflight",
       "memory_mb", "sweep", "workers"},
      tind::RunServing);
}
