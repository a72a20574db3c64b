/// Table 2: genuine-IND rate (TP%) of static INDs bucketed by the number of
/// changes of their left- and right-hand sides, sampling up to 100 INDs per
/// bucket (the paper annotated 900 INDs manually; our ground truth is the
/// generator's planted inclusions). Paper shape: TP% grows with change
/// frequency on both sides — 7/10/12 | 7/12/9 | 4/14/24 — i.e. attributes
/// that keep changing and *stay* included are much more likely genuine.

#include <cstdio>
#include <set>

#include "baseline/static_ind.h"
#include "bench_util.h"
#include "common/thread_pool.h"
#include "eval/buckets.h"

namespace tind {
namespace {

int Run(const Flags& flags) {
  auto generated = bench::BuildCorpus(flags, /*default_attributes=*/3000);
  const Dataset& dataset = generated.dataset;
  bench::PrintBanner(
      "Table 2: genuine-IND rate by change-count buckets",
      "TP% rises with change counts: row-wise 7/10/12, 7/12/9, 4/14/24",
      dataset);

  StaticIndOptions opts;
  opts.bloom_bits = 4096;
  auto discovery = StaticIndDiscovery::Build(dataset, opts);
  if (!discovery.ok()) {
    std::fprintf(stderr, "build failed\n");
    return 1;
  }
  ThreadPool pool;
  const AllPairsResult static_inds = (*discovery)->AllPairs(&pool);
  std::printf("static INDs at latest snapshot: %zu\n",
              static_inds.pairs.size());

  const auto truth_ids =
      generated.ground_truth.ToIdPairs(generated.attribute_names);
  const std::set<IdPair> truth(truth_ids.begin(), truth_ids.end());
  std::vector<IdPair> pairs;
  pairs.reserve(static_inds.pairs.size());
  for (const TindPair& p : static_inds.pairs) pairs.push_back({p.lhs, p.rhs});

  const size_t sample = static_cast<size_t>(flags.GetInt("sample", 100));
  const auto cells = ComputeBucketTable(
      dataset, pairs, truth, sample,
      static_cast<uint64_t>(flags.GetInt("seed", 7)) + 99);

  // Paper's Table 2 TP percentages in row-major bucket order.
  static const char* kPaperTp[9] = {"7%",  "10%", "12%", "7%", "12%",
                                    "9%",  "4%",  "14%", "24%"};
  TablePrinter table({"bucket (lhs ⊆ rhs)", "INDs", "sampled", "genuine",
                      "TP% (ours)", "TP% (paper)"});
  for (size_t i = 0; i < cells.size(); ++i) {
    const BucketCell& c = cells[i];
    table.AddRow({std::string(ChangeBucketToString(c.lhs)) + " in " +
                      ChangeBucketToString(c.rhs),
                  TablePrinter::FormatInt(static_cast<int64_t>(c.total)),
                  TablePrinter::FormatInt(static_cast<int64_t>(c.sampled)),
                  TablePrinter::FormatInt(static_cast<int64_t>(c.genuine)),
                  c.sampled > 0 ? TablePrinter::FormatPercent(c.TpRate(), 0)
                                : "-",
                  kPaperTp[i]});
  }
  bench::EmitTable(flags, table, "\nTable 2");

  // Aggregate precision of raw static discovery (paper: 11%).
  size_t tp = 0;
  for (const IdPair& p : pairs) tp += truth.count(p) > 0 ? 1 : 0;
  if (!pairs.empty()) {
    std::printf("overall static-IND precision: %.1f%% (paper: 11%%)\n",
                100.0 * static_cast<double>(tp) / pairs.size());
  }
  return 0;
}

}  // namespace
}  // namespace tind

int main(int argc, char** argv) {
  return tind::bench::RunHarness(
      argc, argv,
      {"attributes", "days", "seed", "csv", "sample"},
      tind::Run);
}
