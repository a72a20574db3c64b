/// Figure 8: number of tINDs found for 30,000 search queries as ε and δ
/// grow. Paper shape: monotone increase in both relaxation parameters, with
/// ε the stronger lever (δ only repairs temporal shifts, not erroneous
/// values).

#include <cstdio>

#include "bench_util.h"
#include "tind/index.h"

namespace tind {
namespace {

int Run(const Flags& flags) {
  auto generated = bench::BuildCorpus(flags, /*default_attributes=*/3000);
  const Dataset& dataset = generated.dataset;
  bench::PrintBanner("Figure 8: #tINDs found vs eps and delta",
                     "monotone increase in both relaxation parameters",
                     dataset);
  const ConstantWeight weight(dataset.domain().num_timestamps());
  const std::vector<int64_t> epsilons =
      flags.GetIntList("epsilons", {0, 3, 9, 19, 39});
  const std::vector<int64_t> deltas =
      flags.GetIntList("deltas", {0, 7, 31, 91, 365});
  const size_t num_queries = static_cast<size_t>(flags.GetInt("queries", 400));
  const auto queries = bench::SampleQueries(dataset, num_queries,
                                            static_cast<uint64_t>(flags.GetInt("seed", 7)) + 1);

  TindIndexOptions opts;
  opts.bloom_bits = 4096;
  opts.num_slices = 16;
  opts.delta = deltas.back();       // Max δ must be known at build time.
  opts.epsilon = static_cast<double>(epsilons.back());
  opts.weight = &weight;
  auto index = TindIndex::Build(dataset, opts);
  if (!index.ok()) {
    std::fprintf(stderr, "build failed: %s\n", index.status().ToString().c_str());
    return 1;
  }

  TablePrinter table({"eps (days)", "delta (days)", "tINDs found",
                      "per query"});
  for (const int64_t eps : epsilons) {
    for (const int64_t delta : deltas) {
      const TindParams params{static_cast<double>(eps), delta, &weight};
      size_t found = 0;
      for (const AttributeId q : queries) {
        found += (*index)->Search(dataset.attribute(q), params).size();
      }
      table.AddRow({TablePrinter::FormatInt(eps),
                    TablePrinter::FormatInt(delta),
                    TablePrinter::FormatInt(static_cast<int64_t>(found)),
                    TablePrinter::FormatDouble(
                        static_cast<double>(found) / queries.size(), 2)});
    }
  }
  bench::EmitTable(flags, table, "\nFigure 8 series");
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
