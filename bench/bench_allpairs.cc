/// Section 5.2, all-pairs discovery: find the complete set of tINDs by
/// querying every attribute against the index, and contrast with static IND
/// discovery on the latest snapshot. Paper numbers (at 1.3 M attributes):
/// 306,047 tINDs in < 3 h including index construction; static discovery
/// finds 883,506 INDs; 77% of the static INDs are invalid tINDs; ~a third
/// of the tINDs are invisible to the static snapshot (+50% over static).

#include <cstdio>
#include <set>

#include "baseline/static_ind.h"
#include "bench_util.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "tind/discovery.h"
#include "tind/index.h"

namespace tind {
namespace {

int Run(const Flags& flags) {
  auto generated = bench::BuildCorpus(flags, /*default_attributes=*/3000);
  const Dataset& dataset = generated.dataset;
  bench::PrintBanner(
      "Section 5.2: all-pairs tIND discovery vs static snapshot discovery",
      "306,047 tINDs < 3h; static finds 883,506 INDs; 77% of static INDs "
      "are invalid tINDs; tINDs add ~50% over static",
      dataset);
  const ConstantWeight weight(dataset.domain().num_timestamps());
  const TindParams params{flags.GetDouble("eps", 3.0), flags.GetInt("delta", 7),
                          &weight};
  ThreadPool pool;

  Stopwatch total;
  TindIndexOptions opts;
  opts.bloom_bits = 4096;
  opts.num_slices = 16;
  opts.delta = params.delta;
  opts.epsilon = params.epsilon;
  opts.weight = &weight;
  auto index = TindIndex::Build(dataset, opts);
  if (!index.ok()) {
    std::fprintf(stderr, "build failed\n");
    return 1;
  }
  const double build_s = total.ElapsedSeconds();
  const AllPairsResult tinds = DiscoverAllTinds(**index, params, &pool);
  const double tind_total_s = total.ElapsedSeconds();

  StaticIndOptions static_opts;
  static_opts.bloom_bits = 4096;
  auto static_discovery = StaticIndDiscovery::Build(dataset, static_opts);
  if (!static_discovery.ok()) {
    std::fprintf(stderr, "static build failed\n");
    return 1;
  }
  Stopwatch static_timer;
  const AllPairsResult static_inds = (*static_discovery)->AllPairs(&pool);
  const double static_s = static_timer.ElapsedSeconds();

  // Overlap analysis.
  const std::set<TindPair> tind_set(tinds.pairs.begin(), tinds.pairs.end());
  const std::set<TindPair> static_set(static_inds.pairs.begin(),
                                      static_inds.pairs.end());
  size_t static_invalid_as_tind = 0;
  for (const TindPair& p : static_inds.pairs) {
    if (tind_set.count(p) == 0) ++static_invalid_as_tind;
  }
  size_t tind_not_static = 0;
  for (const TindPair& p : tinds.pairs) {
    if (static_set.count(p) == 0) ++tind_not_static;
  }

  TablePrinter table({"metric", "paper (1.3M attrs)", "ours"});
  table.AddRow({"tINDs discovered", "306,047",
                TablePrinter::FormatInt(static_cast<int64_t>(tinds.pairs.size()))});
  table.AddRow({"all-pairs wall time (incl. build)", "< 3 h",
                TablePrinter::FormatDouble(tind_total_s, 1) + " s"});
  table.AddRow({"  of which index build", "-",
                TablePrinter::FormatDouble(build_s, 1) + " s"});
  table.AddRow({"static INDs at latest snapshot", "883,506",
                TablePrinter::FormatInt(static_cast<int64_t>(static_inds.pairs.size()))});
  table.AddRow({"static discovery wall time", "-",
                TablePrinter::FormatDouble(static_s, 1) + " s"});
  table.AddRow(
      {"static INDs that are invalid tINDs", "77%",
       static_inds.pairs.empty()
           ? "-"
           : TablePrinter::FormatPercent(
                 static_cast<double>(static_invalid_as_tind) /
                 static_inds.pairs.size())});
  table.AddRow(
      {"tINDs not found statically", "~33% of tINDs",
       tinds.pairs.empty()
           ? "-"
           : TablePrinter::FormatPercent(static_cast<double>(tind_not_static) /
                                         tinds.pairs.size())});
  table.AddRow({"exact validations run", "-",
                TablePrinter::FormatInt(static_cast<int64_t>(tinds.total_validations))});
  bench::EmitTable(flags, table, "\nSection 5.2 comparison");
  return 0;
}

}  // namespace
}  // namespace tind

int main(int argc, char** argv) {
  return tind::bench::RunHarness(
      argc, argv,
      {"attributes", "days", "seed", "csv", "delta", "eps"},
      tind::Run);
}
