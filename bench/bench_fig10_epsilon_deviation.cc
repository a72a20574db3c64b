/// Figure 10: impact of building the index for a larger ε than queries
/// actually use (interval sizing becomes suboptimal: slices get longer than
/// needed). Paper shape: mean runtime largely unaffected; only the outlier
/// tail grows.

#include <cstdio>

#include "bench_util.h"
#include "common/stopwatch.h"
#include "tind/index.h"

namespace tind {
namespace {

int Run(const Flags& flags) {
  auto generated = bench::BuildCorpus(flags, /*default_attributes=*/3000);
  const Dataset& dataset = generated.dataset;
  bench::PrintBanner(
      "Figure 10: index built for larger eps than queried",
      "mean runtime largely unaffected; outlier tail grows", dataset);
  const ConstantWeight weight(dataset.domain().num_timestamps());
  const double query_eps = flags.GetDouble("query_eps", 3.0);
  const int64_t delta = flags.GetInt("delta", 7);
  const std::vector<int64_t> factors =
      flags.GetIntList("factors", {1, 2, 4, 8, 16});
  const size_t num_queries = static_cast<size_t>(flags.GetInt("queries", 300));
  const auto queries = bench::SampleQueries(
      dataset, num_queries, static_cast<uint64_t>(flags.GetInt("seed", 7)) + 1);
  const TindParams params{query_eps, delta, &weight};

  TablePrinter table({"index eps", "query eps", "mean ms", "median ms",
                      "p95 ms", "max ms"});
  for (const int64_t factor : factors) {
    TindIndexOptions opts;
    opts.bloom_bits = 4096;
    opts.num_slices = 16;
    opts.delta = delta;
    opts.epsilon = query_eps * static_cast<double>(factor);
    opts.weight = &weight;
    auto index = TindIndex::Build(dataset, opts);
    if (!index.ok()) {
      std::fprintf(stderr, "build failed\n");
      return 1;
    }
    RuntimeStats stats;
    for (const AttributeId q : queries) {
      Stopwatch sw;
      (void)(*index)->Search(dataset.attribute(q), params);
      stats.Add(sw.ElapsedMillis());
    }
    table.AddRow({TablePrinter::FormatDouble(opts.epsilon, 1),
                  TablePrinter::FormatDouble(query_eps, 1),
                  bench::Ms(stats.Mean()), bench::Ms(stats.Median()),
                  bench::Ms(stats.Percentile(95)), bench::Ms(stats.Max())});
  }
  bench::EmitTable(flags, table, "\nFigure 10 series");
  return 0;
}

}  // namespace
}  // namespace tind

int main(int argc, char** argv) {
  return tind::bench::RunHarness(
      argc, argv,
      {"attributes", "days", "seed", "queries", "csv", "delta", "factors",
       "query_eps"},
      tind::Run);
}
