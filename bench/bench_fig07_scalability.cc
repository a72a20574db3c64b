/// Figure 7: query runtime distributions for different numbers of indexed
/// attributes — tIND search, reverse tIND search, and the k-MANY baseline.
/// Paper shape: median < 100 ms at every size; search mean 63 ms at 1.3 M
/// attributes; reverse ≈ 2.3× search; k-MANY more than one order of
/// magnitude slower with extreme outliers, and OOM from 1.2 M attributes
/// (it must track violations for all candidates). The OOM is reproduced
/// deterministically with a byte budget covering per-query violation
/// arrays across the paper's 32-way query concurrency.

#include <cstdio>
#include <memory>

#include "baseline/k_many.h"
#include "bench_util.h"
#include "common/stopwatch.h"
#include "tind/index.h"

namespace tind {
namespace {

int Run(const Flags& flags) {
  const std::vector<int64_t> sizes =
      flags.GetIntList("sizes", {1000, 2000, 4000, 8000});
  const size_t num_queries = static_cast<size_t>(flags.GetInt("queries", 300));
  const int64_t days = flags.GetInt("days", 3000);
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 7));
  const size_t concurrency =
      static_cast<size_t>(flags.GetInt("simulated_concurrency", 32));
  // Budget for query-time state, sized so k-MANY's Θ(|D|)-per-query
  // violation arrays stop fitting at the largest size (Figure 7's OOM).
  const size_t budget_bytes = static_cast<size_t>(flags.GetInt(
      "kmany_query_budget",
      static_cast<int64_t>(sizes.back()) * 8 * static_cast<int64_t>(concurrency) * 3 / 4));

  TablePrinter table({"attributes", "system", "mean ms", "median ms", "p95 ms",
                      "max ms", "<100ms", "<1s"});

  for (const int64_t size : sizes) {
    auto generated =
        wiki::WikiGenerator(bench::ScaledOptions(static_cast<size_t>(size), days, seed))
            .GenerateDataset();
    if (!generated.ok()) {
      std::fprintf(stderr, "generation failed\n");
      return 1;
    }
    const Dataset& dataset = generated->dataset;
    if (size == sizes.front()) {
      bench::PrintBanner(
          "Figure 7: runtime vs number of indexed attributes",
          "search median <100ms at all sizes (mean 63ms @1.3M); reverse "
          "~2.3x; k-MANY >=10x slower, OOM at 1.2M",
          dataset);
    }
    const ConstantWeight weight(dataset.domain().num_timestamps());
    const TindParams params{3.0, 7, &weight};
    const auto queries = bench::SampleQueries(dataset, num_queries, seed + 1);

    // --- tIND search -----------------------------------------------------
    TindIndexOptions opts;
    opts.bloom_bits = static_cast<size_t>(flags.GetInt("bloom_bits", 4096));
    opts.num_slices = static_cast<size_t>(flags.GetInt("slices", 16));
    opts.delta = 7;
    opts.epsilon = 3.0;
    opts.weight = &weight;
    opts.seed = seed;
    Stopwatch build_timer;
    auto index = TindIndex::Build(dataset, opts);
    if (!index.ok()) {
      std::fprintf(stderr, "index build failed: %s\n",
                   index.status().ToString().c_str());
      return 1;
    }
    const double build_s = build_timer.ElapsedSeconds();
    RuntimeStats search_stats;
    for (const AttributeId q : queries) {
      Stopwatch sw;
      (void)(*index)->Search(dataset.attribute(q), params);
      search_stats.Add(sw.ElapsedMillis());
    }
    const auto add_row = [&](const std::string& name, const RuntimeStats& s) {
      table.AddRow({TablePrinter::FormatInt(size), name,
                    bench::Ms(s.Mean()), bench::Ms(s.Median()),
                    bench::Ms(s.Percentile(95)), bench::Ms(s.Max()),
                    TablePrinter::FormatPercent(s.FractionBelow(100)),
                    TablePrinter::FormatPercent(s.FractionBelow(1000))});
    };
    add_row("tIND search", search_stats);

    // --- reverse tIND search ----------------------------------------------
    RuntimeStats reverse_stats;
    for (const AttributeId q : queries) {
      Stopwatch sw;
      (void)(*index)->ReverseSearch(dataset.attribute(q), params);
      reverse_stats.Add(sw.ElapsedMillis());
    }
    add_row("reverse search", reverse_stats);
    std::printf("  [%lld attrs] index build %.1fs, memory %.1f MB\n",
                static_cast<long long>(size), build_s,
                static_cast<double>((*index)->MemoryUsageBytes()) / (1 << 20));

    // --- k-MANY -----------------------------------------------------------
    MemoryBudget budget(budget_bytes);
    KManyOptions km_opts;
    km_opts.bloom_bits = opts.bloom_bits;
    km_opts.num_snapshots = opts.num_slices;  // Fair comparison (Section 5.1).
    km_opts.seed = seed;
    km_opts.approximate_delta_pruning = true;
    km_opts.memory = &budget;
    auto kmany = KMany::Build(dataset, km_opts);
    if (!kmany.ok()) {
      table.AddRow({TablePrinter::FormatInt(size), "k-MANY",
                    "OOM (build)", "-", "-", "-", "-", "-"});
      continue;
    }
    // Reserve the violation arrays the other (concurrency-1) in-flight
    // queries would hold on the paper's 32-thread setup.
    const size_t others =
        (concurrency - 1) * static_cast<size_t>(size) * sizeof(double);
    if (!budget.Allocate(others).ok()) {
      table.AddRow({TablePrinter::FormatInt(size), "k-MANY", "OOM", "-", "-",
                    "-", "-", "-"});
      continue;
    }
    RuntimeStats km_stats;
    bool oom = false;
    for (const AttributeId q : queries) {
      Stopwatch sw;
      const auto r = (*kmany)->Search(dataset.attribute(q), params);
      if (!r.ok()) {
        oom = true;
        break;
      }
      km_stats.Add(sw.ElapsedMillis());
    }
    budget.Free(others);
    if (oom) {
      table.AddRow({TablePrinter::FormatInt(size), "k-MANY", "OOM", "-", "-",
                    "-", "-", "-"});
    } else {
      add_row("k-MANY", km_stats);
    }
  }
  bench::EmitTable(flags, table, "\nFigure 7 series");
  return 0;
}

}  // namespace
}  // namespace tind

int main(int argc, char** argv) {
  return tind::bench::RunHarness(
      argc, argv,
      {"days", "seed", "queries", "bloom_bits", "csv", "kmany_query_budget",
       "simulated_concurrency", "sizes", "slices"},
      tind::Run);
}
