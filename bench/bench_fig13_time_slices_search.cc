/// Figure 13: number of time slices k and slice-placement strategy for
/// forward tIND search, averaged over 3 query sets × 3 index seeds. Paper
/// shape: more slices help; weighted-random wins at small k but stagnates
/// around k = 8 and falls behind plain random at k = 16 (weighted draws
/// cluster in the same dense regions, creating redundant slices). Queries
/// run in Algorithm 1's stage order (QueryPlan::kPaperOrder): the default
/// order's cost rule would skip the very slices this figure varies.

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
      "Figure 13: #time slices k and placement strategy (forward search)",
      "more slices help; weighted-random best at small k, random overtakes "
      "at k=16",
      dataset);
  const ConstantWeight weight(dataset.domain().num_timestamps());
  const TindParams params{flags.GetDouble("eps", 3.0), flags.GetInt("delta", 7),
                          &weight};
  const std::vector<int64_t> ks = flags.GetIntList("ks", {1, 2, 4, 8, 16});
  const size_t queries_per_set =
      static_cast<size_t>(flags.GetInt("queries", 150));
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 7));

  TablePrinter table({"k", "strategy", "mean ms (3x3 runs)", "min run",
                      "max run"});
  for (const int64_t k : ks) {
    for (const SliceStrategy strategy :
         {SliceStrategy::kRandom, SliceStrategy::kWeightedRandom}) {
      RuntimeStats run_means;
      for (uint64_t index_seed = 0; index_seed < 3; ++index_seed) {
        TindIndexOptions opts;
        opts.bloom_bits = 4096;
        opts.num_slices = static_cast<size_t>(k);
        opts.delta = params.delta;
        opts.epsilon = params.epsilon;
        opts.strategy = strategy;
        opts.weight = &weight;
        opts.seed = seed + index_seed * 101;
        auto index = TindIndex::Build(dataset, opts);
        if (!index.ok()) {
          std::fprintf(stderr, "build failed\n");
          return 1;
        }
        for (uint64_t qs = 0; qs < 3; ++qs) {
          const auto queries =
              bench::SampleQueries(dataset, queries_per_set, seed + 31 * qs);
          Stopwatch sw;
          for (const AttributeId q : queries) {
            (void)(*index)->Search(dataset.attribute(q), params,
                                   QueryPlan::kPaperOrder);
          }
          run_means.Add(sw.ElapsedMillis() / static_cast<double>(queries.size()));
        }
      }
      table.AddRow({TablePrinter::FormatInt(k),
                    SliceStrategyToString(strategy),
                    bench::Ms(run_means.Mean()), bench::Ms(run_means.Min()),
                    bench::Ms(run_means.Max())});
    }
  }
  bench::EmitTable(flags, table, "\nFigure 13 series");
  return 0;
}

}  // namespace
}  // namespace tind

int main(int argc, char** argv) {
  return tind::bench::RunHarness(
      argc, argv,
      {"attributes", "days", "seed", "queries", "csv", "delta", "eps", "ks"},
      tind::Run);
}
