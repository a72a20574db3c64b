/// bench_progressive: anytime-query latency — time-to-first-result vs
/// time-to-exact through the staged SearchCursor, plus the default stage
/// order's effect on exact latency.
///
///   bench_progressive --attributes=8000 --queries=400
///       --json=BENCH_progressive.json
///
/// Three measured modes over the same query sample:
///   * exact      — the monolithic TindIndex::Search / ReverseSearch call
///                  in Algorithm 1's order, every usable slice probed (the
///                  baseline the staged pipeline must not regress);
///   * stage-1    — SearchCursor stopped after the M_T/M_R probe: the
///                  microseconds-latency sound superset a streaming client
///                  acts on first (TTFR);
///   * planner    — SearchCursor in the default order: the exact recheck
///                  first, then the slices only where their cost rule
///                  (SlicesPayOff) says they pay, run to the exact answer.
///
/// The bench asserts (and records in the JSON) the two contracts CI gates
/// on: *parity* — staged and default-order execution return bit-identical
/// result lists to the monolithic call on every query — and the *TTFR
/// floor* — stage-1 p99 latency is a large factor below exact p99 (>= 10x
/// at the default 8000-attribute scale; the committed baseline asserts a
/// conservative floor so slow CI hardware does not flake). Default-order
/// exact p99 must stay within a small factor of the paper-order p99, and
/// `planner_skips` counts the queries whose slices the cost rule skipped.
///
/// BENCH_progressive.json is validated in CI against
/// bench/baselines/progressive.json by tools/check_bench_json.py.

#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/stopwatch.h"
#include "common/table_printer.h"
#include "obs/json.h"
#include "obs/latency.h"
#include "temporal/weights.h"
#include "tind/index.h"
#include "tind/progressive.h"

namespace tind {
namespace {

int RunProgressive(const Flags& flags) {
  wiki::GeneratedDataset corpus = bench::BuildCorpus(flags, 8000, 1000);
  const Dataset& dataset = corpus.dataset;
  bench::PrintBanner("progressive",
                     "anytime queries: stage-1 TTFR vs exact, stage-order "
                     "parity",
                     dataset);

  const ConstantWeight weight(dataset.domain().num_timestamps());
  TindIndexOptions index_options;
  index_options.bloom_bits =
      static_cast<size_t>(flags.GetInt("bloom_bits", 2048));
  index_options.num_slices =
      static_cast<size_t>(flags.GetInt("slices", 16));
  index_options.build_reverse_index = true;
  index_options.reverse_slices = 2;
  index_options.weight = &weight;
  auto index_or = TindIndex::Build(dataset, index_options);
  if (!index_or.ok()) {
    std::fprintf(stderr, "index build: %s\n",
                 index_or.status().ToString().c_str());
    return 1;
  }
  const TindIndex& index = **index_or;
  const TindParams params{flags.GetDouble("eps", 3.0),
                          flags.GetInt("delta", 7), &weight};

  const size_t num_queries =
      static_cast<size_t>(flags.GetInt("queries", 400));
  const std::vector<AttributeId> queries = bench::SampleQueries(
      dataset, num_queries, static_cast<uint64_t>(flags.GetInt("seed", 7)));
  const double reverse_fraction = flags.GetDouble("reverse_frac", 0.25);

  // Warm-up: run every query once unmeasured to page in the matrices.
  for (size_t i = 0; i < queries.size(); ++i) {
    const bool reverse =
        static_cast<double>(i % 100) < reverse_fraction * 100.0;
    SearchCursor::Options warm;
    warm.reverse = reverse;
    SearchCursor cursor(index, dataset.attribute(queries[i]), params, warm);
    cursor.RunToCompletion();
  }

  std::vector<double> exact_ms;
  std::vector<double> ttfr_ms;
  std::vector<double> planner_ms;
  exact_ms.reserve(queries.size());
  ttfr_ms.reserve(queries.size());
  planner_ms.reserve(queries.size());
  bool parity = true;
  uint64_t planner_skips = 0;

  for (size_t i = 0; i < queries.size(); ++i) {
    const bool reverse =
        static_cast<double>(i % 100) < reverse_fraction * 100.0;
    const AttributeHistory& query = dataset.attribute(queries[i]);

    Stopwatch exact_timer;
    const std::vector<AttributeId> exact =
        reverse ? index.ReverseSearch(query, params, QueryPlan::kPaperOrder)
                : index.Search(query, params, QueryPlan::kPaperOrder);
    exact_ms.push_back(exact_timer.ElapsedMillis());

    // Stage 1 only: the time until a streaming client holds the sound
    // superset (TTFR), then finish the cursor and check parity.
    SearchCursor::Options staged;
    staged.reverse = reverse;
    SearchCursor cursor(index, query, params, staged);
    Stopwatch ttfr_timer;
    cursor.Step();
    ttfr_ms.push_back(ttfr_timer.ElapsedMillis());
    parity = parity && cursor.RunToCompletion() == exact;

    SearchCursor planned_cursor(index, query, params, staged);
    Stopwatch planner_timer;
    planned_cursor.RunToCompletion();
    planner_ms.push_back(planner_timer.ElapsedMillis());
    parity = parity && planned_cursor.results() == exact;
    if (planned_cursor.stats().plan_skipped_slices) ++planner_skips;
  }

  const obs::LatencySummary exact_sum =
      obs::LatencySummary::FromSamples(exact_ms);
  const obs::LatencySummary ttfr_sum =
      obs::LatencySummary::FromSamples(ttfr_ms);
  const obs::LatencySummary planner_sum =
      obs::LatencySummary::FromSamples(planner_ms);
  const double ttfr_speedup =
      ttfr_sum.p99 > 0 ? exact_sum.p99 / ttfr_sum.p99 : 0;
  const double planner_ratio =
      exact_sum.p99 > 0 ? planner_sum.p99 / exact_sum.p99 : 0;

  TablePrinter table({"mode", "p50 ms", "p95 ms", "p99 ms", "max ms"});
  const auto row = [&](const char* name, const obs::LatencySummary& s) {
    table.AddRow({name, bench::Ms(s.p50), bench::Ms(s.p95), bench::Ms(s.p99),
                  bench::Ms(s.max)});
  };
  row("exact (paper order)", exact_sum);
  row("stage-1 TTFR", ttfr_sum);
  row("exact (default order)", planner_sum);
  bench::EmitTable(flags, table, "anytime query latency");
  std::printf(
      "parity=%s  ttfr_speedup(p99)=%.1fx  planner_ratio(p99)=%.2fx  "
      "planner_skips=%llu/%zu\n",
      parity ? "true" : "FALSE", ttfr_speedup, planner_ratio,
      static_cast<unsigned long long>(planner_skips), queries.size());

  bool failed = false;
  const auto check = [&](bool ok, const char* what) {
    if (!ok) {
      std::fprintf(stderr, "FAIL: %s\n", what);
      failed = true;
    }
  };
  check(parity, "staged + default-order results bit-identical to monolithic");
  check(ttfr_speedup >= flags.GetDouble("require_ttfr_speedup", 2.0),
        "stage-1 TTFR p99 materially below exact p99");
  check(planner_ratio <= flags.GetDouble("max_planner_ratio", 1.5),
        "default-order exact latency within budget of the paper order");

  const std::string json_path = flags.GetString("json", "");
  if (!json_path.empty()) {
    obs::JsonValue root = obs::JsonValue::Object();
    root.Set("attributes", obs::JsonValue(static_cast<uint64_t>(dataset.size())));
    root.Set("queries", obs::JsonValue(static_cast<uint64_t>(queries.size())));
    root.Set("parity", obs::JsonValue(parity));
    root.Set("planner_skips", obs::JsonValue(planner_skips));
    const auto emit = [&](const char* prefix, const obs::LatencySummary& s) {
      root.Set(std::string(prefix) + "_p50_ms", obs::JsonValue(s.p50));
      root.Set(std::string(prefix) + "_p95_ms", obs::JsonValue(s.p95));
      root.Set(std::string(prefix) + "_p99_ms", obs::JsonValue(s.p99));
      root.Set(std::string(prefix) + "_max_ms", obs::JsonValue(s.max));
    };
    emit("exact", exact_sum);
    emit("ttfr", ttfr_sum);
    emit("planner", planner_sum);
    root.Set("ttfr_speedup", obs::JsonValue(ttfr_speedup));
    root.Set("planner_ratio", obs::JsonValue(planner_ratio));
    const std::string text = root.Dump(2);
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
  return failed ? 1 : 0;
}

}  // namespace
}  // namespace tind

int main(int argc, char** argv) {
  return tind::bench::RunHarness(
      argc, argv,
      {"attributes", "days", "seed", "queries", "bloom_bits", "csv", "delta",
       "eps", "json", "max_planner_ratio", "require_ttfr_speedup",
       "reverse_frac", "slices"},
      tind::RunProgressive);
}
