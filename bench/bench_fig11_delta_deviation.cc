/// Figure 11: impact of building the index for a larger δ than queries
/// actually use (slices cover δ-expanded value sets, so over-provisioned δ
/// makes them denser and less discriminative). Paper shape: no significant
/// impact up to 16× the query δ, slight dip beyond; most queries still
/// under 100 ms.

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
      "Figure 11: index built for larger delta than queried",
      "no impact up to 16x; slight dip beyond; most queries <100ms", dataset);
  const ConstantWeight weight(dataset.domain().num_timestamps());
  const double eps = flags.GetDouble("eps", 3.0);
  const int64_t query_delta = flags.GetInt("query_delta", 7);
  const std::vector<int64_t> factors =
      flags.GetIntList("factors", {1, 2, 4, 16, 32, 52});
  const size_t num_queries = static_cast<size_t>(flags.GetInt("queries", 300));
  const auto queries = bench::SampleQueries(
      dataset, num_queries, static_cast<uint64_t>(flags.GetInt("seed", 7)) + 1);
  const TindParams params{eps, query_delta, &weight};

  TablePrinter table({"index delta", "query delta", "mean ms", "median ms",
                      "p95 ms", "<100ms"});
  for (const int64_t factor : factors) {
    TindIndexOptions opts;
    opts.bloom_bits = 4096;
    opts.num_slices = 16;
    opts.delta = query_delta * factor;
    opts.epsilon = eps;
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
    table.AddRow({TablePrinter::FormatInt(opts.delta),
                  TablePrinter::FormatInt(query_delta), bench::Ms(stats.Mean()),
                  bench::Ms(stats.Median()), bench::Ms(stats.Percentile(95)),
                  TablePrinter::FormatPercent(stats.FractionBelow(100))});
  }
  bench::EmitTable(flags, table, "\nFigure 11 series");
  return 0;
}

}  // namespace
}  // namespace tind

int main(int argc, char** argv) {
  return tind::bench::RunHarness(
      argc, argv,
      {"attributes", "days", "seed", "queries", "csv", "eps", "factors",
       "query_delta"},
      tind::Run);
}
