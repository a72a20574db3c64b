/// Figure 9: average tIND search runtime as ε and δ grow. Paper shape:
/// runtime grows roughly linearly in ε; δ has little effect except at the
/// extreme δ = 365 d; even the most lenient setting stays below 500 ms
/// average, with 99.3% of queries under 1 s. Queries run in Algorithm 1's
/// stage order (QueryPlan::kPaperOrder), the pipeline the figure measures.

#include <cstdio>

#include "bench_util.h"
#include "common/stopwatch.h"
#include "tind/index.h"

namespace tind {
namespace {

int Run(const Flags& flags) {
  auto generated = bench::BuildCorpus(flags, /*default_attributes=*/3000);
  const Dataset& dataset = generated.dataset;
  bench::PrintBanner("Figure 9: search runtime vs eps and delta",
                     "runtime linear in eps; flat in delta until 365d; "
                     "most lenient setting < 500ms avg",
                     dataset);
  const ConstantWeight weight(dataset.domain().num_timestamps());
  const std::vector<int64_t> epsilons =
      flags.GetIntList("epsilons", {0, 3, 9, 19, 39});
  const std::vector<int64_t> deltas =
      flags.GetIntList("deltas", {0, 7, 31, 91, 365});
  const size_t num_queries = static_cast<size_t>(flags.GetInt("queries", 300));
  const auto queries = bench::SampleQueries(
      dataset, num_queries, static_cast<uint64_t>(flags.GetInt("seed", 7)) + 1);

  TindIndexOptions opts;
  opts.bloom_bits = 4096;
  opts.num_slices = 16;
  opts.delta = deltas.back();
  opts.epsilon = static_cast<double>(epsilons.back());
  opts.weight = &weight;
  auto index = TindIndex::Build(dataset, opts);
  if (!index.ok()) {
    std::fprintf(stderr, "build failed: %s\n", index.status().ToString().c_str());
    return 1;
  }

  TablePrinter table({"eps (days)", "delta (days)", "mean ms", "median ms",
                      "p95 ms", "<100ms", "<1s"});
  for (const int64_t eps : epsilons) {
    for (const int64_t delta : deltas) {
      const TindParams params{static_cast<double>(eps), delta, &weight};
      RuntimeStats stats;
      for (const AttributeId q : queries) {
        Stopwatch sw;
        (void)(*index)->Search(dataset.attribute(q), params,
                               QueryPlan::kPaperOrder);
        stats.Add(sw.ElapsedMillis());
      }
      table.AddRow({TablePrinter::FormatInt(eps),
                    TablePrinter::FormatInt(delta), bench::Ms(stats.Mean()),
                    bench::Ms(stats.Median()), bench::Ms(stats.Percentile(95)),
                    TablePrinter::FormatPercent(stats.FractionBelow(100)),
                    TablePrinter::FormatPercent(stats.FractionBelow(1000))});
    }
  }
  bench::EmitTable(flags, table, "\nFigure 9 series");
  return 0;
}

}  // namespace
}  // namespace tind

int main(int argc, char** argv) {
  return tind::bench::RunHarness(
      argc, argv,
      {"attributes", "days", "seed", "queries", "csv", "deltas", "epsilons"},
      tind::Run);
}
