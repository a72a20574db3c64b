/// Figure 12: impact of the Bloom filter size m on search and reverse
/// search. Paper shape: forward search improves monotonically with m
/// (sharper pruning); reverse search *degrades* with m (every zero row of
/// the query filter costs an AND over the negated row, and larger filters
/// are sparser) but has fewer severe outliers; m = 1024/2048 balances both.

#include <cstdio>

#include "bench_util.h"
#include "common/stopwatch.h"
#include "tind/index.h"

namespace tind {
namespace {

int Run(const Flags& flags) {
  auto generated = bench::BuildCorpus(flags, /*default_attributes=*/8000);
  const Dataset& dataset = generated.dataset;
  bench::PrintBanner(
      "Figure 12: Bloom filter size m",
      "larger m helps forward search, hurts reverse search; 1024/2048 "
      "balances both",
      dataset);
  const ConstantWeight weight(dataset.domain().num_timestamps());
  const TindParams params{flags.GetDouble("eps", 3.0), flags.GetInt("delta", 7),
                          &weight};
  const std::vector<int64_t> sizes =
      flags.GetIntList("bloom_sizes", {512, 1024, 2048, 4096, 8192});
  const size_t num_queries = static_cast<size_t>(flags.GetInt("queries", 250));
  const auto queries = bench::SampleQueries(
      dataset, num_queries, static_cast<uint64_t>(flags.GetInt("seed", 7)) + 1);

  TablePrinter table({"m (bits)", "direction", "mean ms", "median ms",
                      "p95 ms", "max ms"});
  for (const int64_t m : sizes) {
    TindIndexOptions opts;
    opts.bloom_bits = static_cast<size_t>(m);
    opts.num_slices = 16;
    opts.delta = params.delta;
    opts.epsilon = params.epsilon;
    opts.weight = &weight;
    auto index = TindIndex::Build(dataset, opts);
    if (!index.ok()) {
      std::fprintf(stderr, "build failed\n");
      return 1;
    }
    RuntimeStats forward, reverse;
    for (const AttributeId q : queries) {
      Stopwatch sw;
      (void)(*index)->Search(dataset.attribute(q), params);
      forward.Add(sw.ElapsedMillis());
      sw.Restart();
      (void)(*index)->ReverseSearch(dataset.attribute(q), params);
      reverse.Add(sw.ElapsedMillis());
    }
    table.AddRow({TablePrinter::FormatInt(m), "search",
                  bench::Ms(forward.Mean()), bench::Ms(forward.Median()),
                  bench::Ms(forward.Percentile(95)), bench::Ms(forward.Max())});
    table.AddRow({TablePrinter::FormatInt(m), "reverse",
                  bench::Ms(reverse.Mean()), bench::Ms(reverse.Median()),
                  bench::Ms(reverse.Percentile(95)), bench::Ms(reverse.Max())});
  }
  bench::EmitTable(flags, table, "\nFigure 12 series");
  return 0;
}

}  // namespace
}  // namespace tind

int main(int argc, char** argv) {
  return tind::bench::RunHarness(
      argc, argv,
      {"attributes", "days", "seed", "queries", "bloom_sizes", "csv", "delta",
       "eps"},
      tind::Run);
}
