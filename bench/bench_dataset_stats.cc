/// Dataset statistics (Section 5.1): reproduces the corpus description —
/// number of attributes after filtering, average changes per attribute
/// (paper: 13), average lifetime (paper: 5.6 years), average version
/// cardinality (paper: 28) — and exercises the full raw-revision
/// preprocessing pipeline on a sampled sub-corpus, reporting its filter
/// funnel.

#include <cstdio>

#include "bench_util.h"
#include "common/stopwatch.h"
#include "wiki/preprocess.h"

namespace tind {
namespace {

int Run(const Flags& flags) {
  auto generated = bench::BuildCorpus(flags, /*default_attributes=*/4000,
                                      /*default_days=*/5840);
  const DatasetStats stats = generated.dataset.ComputeStats();
  bench::PrintBanner(
      "Dataset statistics (Section 5.1)",
      "1.3M attributes; avg 13 changes; 5.6y lifetime; avg cardinality 28",
      generated.dataset);

  TablePrinter table({"metric", "paper", "ours"});
  table.AddRow({"attributes (after filtering)", "1,300,000",
                TablePrinter::FormatInt(static_cast<int64_t>(stats.num_attributes))});
  table.AddRow({"avg changes per attribute", "13",
                TablePrinter::FormatDouble(stats.avg_changes, 1)});
  table.AddRow({"avg lifetime (years)", "5.6",
                TablePrinter::FormatDouble(stats.avg_lifetime_years, 1)});
  table.AddRow({"avg version cardinality", "28",
                TablePrinter::FormatDouble(stats.avg_version_cardinality, 1)});
  table.AddRow({"distinct values", "-",
                TablePrinter::FormatInt(static_cast<int64_t>(stats.num_distinct_values))});
  table.AddRow({"total versions", "-",
                TablePrinter::FormatInt(static_cast<int64_t>(stats.total_versions))});
  table.AddRow({"corpus memory (MB)", "-",
                TablePrinter::FormatDouble(
                    static_cast<double>(stats.memory_bytes) / (1 << 20), 1)});
  bench::EmitTable(flags, table, "Corpus statistics");

  // Raw pipeline funnel on a smaller corpus (revision-level generation is
  // the expensive path).
  const size_t raw_attrs = static_cast<size_t>(flags.GetInt("raw_attributes", 600));
  auto raw = wiki::WikiGenerator(
                 bench::ScaledOptions(raw_attrs, flags.GetInt("days", 5840),
                                      static_cast<uint64_t>(flags.GetInt("seed", 7))))
                 .GenerateRawCorpus();
  if (!raw.ok()) {
    std::fprintf(stderr, "raw generation failed: %s\n",
                 raw.status().ToString().c_str());
    return 1;
  }
  Stopwatch timer;
  auto processed = wiki::PreprocessRawCorpus(raw->raw, wiki::PreprocessOptions());
  if (!processed.ok()) {
    std::fprintf(stderr, "preprocess failed: %s\n",
                 processed.status().ToString().c_str());
    return 1;
  }
  const wiki::PreprocessStats& p = processed->stats;
  TablePrinter funnel({"pipeline stage", "count"});
  funnel.AddRow({"raw tables", TablePrinter::FormatInt(static_cast<int64_t>(p.tables))});
  funnel.AddRow({"raw revisions", TablePrinter::FormatInt(static_cast<int64_t>(p.revisions))});
  funnel.AddRow({"matched column chains", TablePrinter::FormatInt(static_cast<int64_t>(p.column_chains))});
  funnel.AddRow({"dropped: mostly numeric", TablePrinter::FormatInt(static_cast<int64_t>(p.dropped_numeric))});
  funnel.AddRow({"dropped: <5 versions", TablePrinter::FormatInt(static_cast<int64_t>(p.dropped_few_versions))});
  funnel.AddRow({"dropped: median cardinality <5", TablePrinter::FormatInt(static_cast<int64_t>(p.dropped_small_cardinality))});
  funnel.AddRow({"dropped: empty after normalization", TablePrinter::FormatInt(static_cast<int64_t>(p.dropped_empty))});
  funnel.AddRow({"kept attributes", TablePrinter::FormatInt(static_cast<int64_t>(p.kept))});
  std::printf("raw pipeline runtime: %.2fs\n", timer.ElapsedSeconds());
  bench::EmitTable(flags, funnel,
                   "Preprocessing funnel (raw revisions -> attribute histories)");
  return 0;
}

}  // namespace
}  // namespace tind

int main(int argc, char** argv) {
  return tind::bench::RunHarness(
      argc, argv,
      {"attributes", "days", "seed", "csv", "raw_attributes"},
      tind::Run);
}
