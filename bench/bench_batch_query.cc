/// Batched multi-query engine benchmark: aggregate throughput of
/// TindIndex::BatchSearch / BatchReverseSearch against the equivalent loop
/// of Search / ReverseSearch calls, across batch sizes. Search and
/// ReverseSearch run each query as a group of one on the same pipeline, so
/// the "looped" column measures groups of one and the speedup is what wider
/// groups add: the batch kernel streams each Bloom matrix once per group of
/// up to 64 probes instead of once per query.
///
/// Emits BENCH_batch_query.json (override with --json=PATH) with per-batch
/// throughput and speedup, and exits nonzero when --require_speedup=F is
/// given and the *aggregate* batch=64 speedup — total forward + reverse
/// workload time, looped over batched — falls below F. The aggregate is the
/// gated number because the two directions have opposite cost shapes:
/// reverse probing touches nearly all m rows and batching amortizes most of
/// its runtime, while forward probing touches only the filter's set rows,
/// so forward time is dominated by per-query exact work (required values,
/// hashing, Algorithm-2 validation) that batching correctly does not
/// change. This is the paper's own cost model (Section 4.5).

#include <cstdio>
#include <fstream>
#include <vector>

#include "bench_util.h"
#include "common/stopwatch.h"
#include "obs/json.h"
#include "tind/index.h"

namespace tind {
namespace {

int Run(const Flags& flags) {
  // Default scale: wide and short. The paper's Wikipedia corpus has ~54k
  // attributes, so probe cost (which scales with columns) dominating
  // per-query overheads is the representative regime; 200 days keeps corpus
  // generation within seconds while leaving enough history for slices.
  auto generated = bench::BuildCorpus(flags, /*default_attributes=*/8000,
                                      /*default_days=*/200);
  const Dataset& dataset = generated.dataset;
  bench::PrintBanner(
      "Batched multi-query engine: BatchSearch vs looped Search",
      "one blocked matrix scan per 64-probe group beats per-query scans",
      dataset);
  const ConstantWeight weight(dataset.domain().num_timestamps());
  const TindParams params{flags.GetDouble("eps", 3.0), flags.GetInt("delta", 7),
                          &weight};
  const size_t num_queries = static_cast<size_t>(flags.GetInt("queries", 256));
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 7));
  const std::vector<int64_t> batch_sizes =
      flags.GetIntList("batch_sizes", {1, 8, 64});
  const int repeats = static_cast<int>(flags.GetInt("repeats", 3));
  const double require_speedup = flags.GetDouble("require_speedup", 0.0);
  const std::string json_path =
      flags.GetString("json", "BENCH_batch_query.json");

  TindIndexOptions opts;
  opts.bloom_bits = static_cast<size_t>(flags.GetInt("bloom_bits", 4096));
  opts.num_slices = static_cast<size_t>(flags.GetInt("slices", 16));
  opts.delta = params.delta;
  opts.epsilon = params.epsilon;
  opts.weight = &weight;
  opts.seed = seed;
  auto built = TindIndex::Build(dataset, opts);
  if (!built.ok()) {
    std::fprintf(stderr, "index build failed: %s\n",
                 built.status().ToString().c_str());
    return 1;
  }
  const TindIndex& index = **built;

  const auto query_ids = bench::SampleQueries(dataset, num_queries, seed + 5);
  std::vector<const AttributeHistory*> queries;
  queries.reserve(query_ids.size());
  for (const AttributeId q : query_ids) {
    queries.push_back(&dataset.attribute(q));
  }

  obs::JsonValue report = obs::JsonValue::Object();
  report.Set("attributes", obs::JsonValue(uint64_t{dataset.size()}));
  report.Set("queries", obs::JsonValue(uint64_t{num_queries}));
  report.Set("days",
             obs::JsonValue(dataset.domain().num_timestamps()));
  report.Set("bloom_bits", obs::JsonValue(uint64_t{opts.bloom_bits}));
  report.Set("num_slices", obs::JsonValue(uint64_t{opts.num_slices}));

  TablePrinter table({"direction", "mode", "total ms", "queries/s", "speedup"});
  double agg_looped_ms = 0;
  double agg_batch64_ms = 0;
  bool have_batch64 = false;
  for (const bool forward : {true, false}) {
    const char* direction = forward ? "forward" : "reverse";
    // Looped baseline: best of `repeats` full passes (after one warmup that
    // also touches every code path the batch timing will hit).
    const auto run_looped = [&] {
      size_t sink = 0;
      for (const AttributeHistory* q : queries) {
        sink += forward ? index.Search(*q, params).size()
                        : index.ReverseSearch(*q, params).size();
      }
      return sink;
    };
    (void)run_looped();
    double looped_ms = 0;
    for (int r = 0; r < repeats; ++r) {
      Stopwatch sw;
      (void)run_looped();
      const double ms = sw.ElapsedMillis();
      if (r == 0 || ms < looped_ms) looped_ms = ms;
    }
    const double looped_qps =
        1000.0 * static_cast<double>(num_queries) / looped_ms;
    table.AddRow({direction, "looped", bench::Ms(looped_ms),
                  TablePrinter::FormatDouble(looped_qps, 1), "1.00x"});

    obs::JsonValue dir_json = obs::JsonValue::Object();
    dir_json.Set("looped_ms", obs::JsonValue(looped_ms));
    dir_json.Set("looped_qps", obs::JsonValue(looped_qps));
    obs::JsonValue series = obs::JsonValue::Array();
    for (const int64_t batch : batch_sizes) {
      // One BatchSearch call per `batch` consecutive queries, so the
      // reported number isolates the group width (a single huge call would
      // always probe at the full 64-wide group).
      const auto run_batched = [&] {
        size_t sink = 0;
        for (size_t lo = 0; lo < queries.size();
             lo += static_cast<size_t>(batch)) {
          const size_t hi =
              std::min(queries.size(), lo + static_cast<size_t>(batch));
          const std::vector<const AttributeHistory*> window(
              queries.begin() + static_cast<ptrdiff_t>(lo),
              queries.begin() + static_cast<ptrdiff_t>(hi));
          const auto results = forward
                                   ? index.BatchSearch(window, params)
                                   : index.BatchReverseSearch(window, params);
          for (const auto& r : results) sink += r.size();
        }
        return sink;
      };
      (void)run_batched();
      double batch_ms = 0;
      for (int r = 0; r < repeats; ++r) {
        Stopwatch sw;
        (void)run_batched();
        const double ms = sw.ElapsedMillis();
        if (r == 0 || ms < batch_ms) batch_ms = ms;
      }
      const double qps = 1000.0 * static_cast<double>(num_queries) / batch_ms;
      const double speedup = looped_ms / batch_ms;
      char speedup_str[32];
      std::snprintf(speedup_str, sizeof(speedup_str), "%.2fx", speedup);
      table.AddRow({direction, "batch=" + std::to_string(batch),
                    bench::Ms(batch_ms), TablePrinter::FormatDouble(qps, 1),
                    speedup_str});
      obs::JsonValue point = obs::JsonValue::Object();
      point.Set("batch_size", obs::JsonValue(batch));
      point.Set("total_ms", obs::JsonValue(batch_ms));
      point.Set("qps", obs::JsonValue(qps));
      point.Set("speedup", obs::JsonValue(speedup));
      series.Append(std::move(point));
      if (batch == 64) {
        agg_batch64_ms += batch_ms;
        have_batch64 = true;
      }
    }
    agg_looped_ms += looped_ms;
    dir_json.Set("batch", std::move(series));
    report.Set(direction, std::move(dir_json));
  }

  // The headline number: one mixed forward + reverse workload, looped vs
  // batch=64. Reverse (the direction whose probes batching amortizes) and
  // forward (dominated by per-query exact work both modes share) enter with
  // their real costs, so this is the speedup a caller replacing a loop of
  // Search/ReverseSearch calls with the batch API actually observes.
  bool gate_failed = false;
  if (have_batch64) {
    const double agg_speedup = agg_looped_ms / agg_batch64_ms;
    char agg_str[32];
    std::snprintf(agg_str, sizeof(agg_str), "%.2fx", agg_speedup);
    table.AddRow({"aggregate", "batch=64", bench::Ms(agg_batch64_ms),
                  TablePrinter::FormatDouble(
                      1000.0 * 2 * static_cast<double>(num_queries) /
                          agg_batch64_ms,
                      1),
                  agg_str});
    obs::JsonValue agg = obs::JsonValue::Object();
    agg.Set("looped_ms", obs::JsonValue(agg_looped_ms));
    agg.Set("batch64_ms", obs::JsonValue(agg_batch64_ms));
    agg.Set("speedup", obs::JsonValue(agg_speedup));
    report.Set("aggregate", std::move(agg));
    if (require_speedup > 0 && agg_speedup < require_speedup) {
      std::fprintf(stderr,
                   "FAIL: aggregate batch=64 speedup %.2fx below required "
                   "%.2fx\n",
                   agg_speedup, require_speedup);
      gate_failed = true;
    }
  } else if (require_speedup > 0) {
    std::fprintf(stderr,
                 "FAIL: --require_speedup given but 64 is not in "
                 "--batch_sizes\n");
    gate_failed = true;
  }
  bench::EmitTable(flags, table, "\nBatch query throughput");

  std::ofstream out(json_path, std::ios::trunc);
  if (!out.good()) {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return 1;
  }
  out << report.Dump(2) << "\n";
  std::printf("wrote %s\n", json_path.c_str());
  return gate_failed ? 1 : 0;
}

}  // namespace
}  // namespace tind

int main(int argc, char** argv) {
  return tind::bench::RunHarness(
      argc, argv,
      {"attributes", "days", "seed", "queries", "batch_sizes", "bloom_bits",
       "csv", "delta", "eps", "json", "repeats", "require_speedup", "slices"},
      tind::Run);
}
