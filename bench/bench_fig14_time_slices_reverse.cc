/// Figure 14: number of time slices used by *reverse* tIND search. Paper
/// shape: more than 2 slices actually increases reverse runtime — the
/// minimum-violation accounting makes slice pruning much weaker in this
/// direction, so extra probes cost more than they save. (One can still
/// build 16 slices for forward search and use only 2 for reverse.) Queries
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
      "Figure 14: #time slices used by reverse search",
      "more than 2 slices hurt reverse search", dataset);
  const ConstantWeight weight(dataset.domain().num_timestamps());
  const TindParams params{flags.GetDouble("eps", 3.0), flags.GetInt("delta", 7),
                          &weight};
  const std::vector<int64_t> ks = flags.GetIntList("ks", {0, 1, 2, 4, 8, 16});
  const size_t queries_per_set =
      static_cast<size_t>(flags.GetInt("queries", 150));
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 7));
  // Paper default for reverse search: m = 512, weighted-random slices.
  const size_t bloom_bits =
      static_cast<size_t>(flags.GetInt("bloom_bits", 512));

  TablePrinter table(
      {"k (reverse)", "strategy", "mean ms (3x3 runs)", "min run", "max run"});
  for (const SliceStrategy strategy :
       {SliceStrategy::kWeightedRandom, SliceStrategy::kRandom}) {
    for (const int64_t k : ks) {
      RuntimeStats run_means;
      for (uint64_t index_seed = 0; index_seed < 3; ++index_seed) {
        TindIndexOptions opts;
        opts.bloom_bits = bloom_bits;
        opts.num_slices = 16;  // Built for forward search...
        opts.reverse_slices = static_cast<size_t>(k);  // ...k used in reverse.
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
            (void)(*index)->ReverseSearch(dataset.attribute(q), params,
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
  bench::EmitTable(flags, table, "\nFigure 14 series");
  return 0;
}

}  // namespace
}  // namespace tind

int main(int argc, char** argv) {
  return tind::bench::RunHarness(
      argc, argv,
      {"attributes", "days", "seed", "queries", "bloom_bits", "csv", "delta",
       "eps", "ks"},
      tind::Run);
}
