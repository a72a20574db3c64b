#include "bench_util.h"

#include <cstdio>
#include <cstdlib>
#include <iostream>

#include "common/rng.h"
#include "common/stopwatch.h"
#include "obs/metrics.h"

namespace tind::bench {

void InitMetrics(const Flags& flags) {
  if (flags.Has("metrics_json") || flags.Has("metrics_csv") ||
      flags.GetBool("metrics", false)) {
    obs::MetricsRegistry::Global().set_enabled(true);
  }
}

void FinishMetrics(const Flags& flags) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  if (!registry.enabled()) return;
  const std::string json_path = flags.GetString("metrics_json", "");
  if (!json_path.empty()) {
    if (registry.WriteJsonFile(json_path)) {
      std::printf("metrics written to %s\n", json_path.c_str());
    } else {
      std::fprintf(stderr, "failed to write metrics to %s\n",
                   json_path.c_str());
    }
  }
  const std::string csv_path = flags.GetString("metrics_csv", "");
  if (!csv_path.empty()) {
    std::FILE* f = std::fopen(csv_path.c_str(), "w");
    if (f != nullptr) {
      const std::string csv = registry.ToCsv();
      std::fwrite(csv.data(), 1, csv.size(), f);
      std::fclose(f);
      std::printf("metrics written to %s\n", csv_path.c_str());
    } else {
      std::fprintf(stderr, "failed to write metrics to %s\n",
                   csv_path.c_str());
    }
  }
  if (json_path.empty() && csv_path.empty()) {
    // --metrics with no file: dump to stdout for quick inspection.
    std::printf("%s\n", registry.ToJsonString().c_str());
  }
}

int RunHarness(int argc, char** argv,
               std::initializer_list<const char*> bench_flags,
               int (*run)(const Flags&)) {
  const Flags flags = Flags::Parse(argc, argv);
  flags.Declare(bench_flags);
  flags.Declare({"metrics_json", "metrics_csv", "metrics"});
  // Before any work: a misspelt flag, or one that belongs to another
  // binary, fails at once instead of after the whole run.
  flags.RejectUnread();
  InitMetrics(flags);
  const int rc = run(flags);
  FinishMetrics(flags);
  return rc;
}

wiki::GeneratorOptions ScaledOptions(size_t target_attributes, int64_t days,
                                     uint64_t seed) {
  wiki::GeneratorOptions opts;
  opts.seed = seed;
  opts.num_days = days;
  // A family yields ~4 attributes (root + children + chains) on average.
  // Mix: ~30% family attributes, ~45% Zipf noise, ~18% drifters, plus a
  // handful of registry attributes — calibrated so static-IND precision,
  // the Table-2 buckets and the Fig.-15 curves land near the paper's.
  opts.num_families = std::max<size_t>(2, target_attributes / 14);
  opts.num_noise_attributes =
      std::max<size_t>(8, target_attributes * 45 / 100);
  opts.num_drifter_attributes =
      std::max<size_t>(4, target_attributes * 18 / 100);
  opts.num_catchall_attributes =
      std::min<size_t>(48, std::max<size_t>(2, target_attributes / 160));
  // Vocabulary scales sublinearly: web-table value domains are shared.
  opts.shared_vocabulary =
      std::max<size_t>(150, target_attributes / 4);
  opts.entities_per_family_pool = 120;
  return opts;
}

wiki::GeneratedDataset BuildCorpus(const Flags& flags,
                                   size_t default_attributes,
                                   int64_t default_days, uint64_t default_seed) {
  const size_t attributes = static_cast<size_t>(
      flags.GetInt("attributes", static_cast<int64_t>(default_attributes)));
  const int64_t days = flags.GetInt("days", default_days);
  const uint64_t seed =
      static_cast<uint64_t>(flags.GetInt("seed", static_cast<int64_t>(default_seed)));
  Stopwatch timer;
  auto generated =
      wiki::WikiGenerator(ScaledOptions(attributes, days, seed)).GenerateDataset();
  if (!generated.ok()) {
    std::cerr << "corpus generation failed: " << generated.status().ToString()
              << "\n";
    std::exit(1);
  }
  const DatasetStats stats = generated->dataset.ComputeStats();
  std::printf(
      "corpus: %zu attributes, %lld days, avg %.1f changes, avg card %.1f, "
      "%zu genuine pairs planted, built in %.1fs\n",
      stats.num_attributes, static_cast<long long>(days), stats.avg_changes,
      stats.avg_version_cardinality, generated->ground_truth.size(),
      timer.ElapsedSeconds());
  return std::move(*generated);
}

std::vector<AttributeId> SampleQueries(const Dataset& dataset, size_t count,
                                       uint64_t seed) {
  Rng rng(seed ^ 0x9E3779B97F4A7C15ULL);
  std::vector<AttributeId> queries;
  queries.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    queries.push_back(static_cast<AttributeId>(rng.Uniform(dataset.size())));
  }
  return queries;
}

void EmitTable(const Flags& flags, const TablePrinter& table,
               const std::string& title) {
  table.Print(std::cout, title);
  if (flags.GetBool("csv", false)) {
    std::cout << "\nCSV:\n";
    table.PrintCsv(std::cout);
  }
  std::cout << "\n";
}

void PrintBanner(const std::string& experiment, const std::string& paper_claim,
                 const Dataset& dataset) {
  std::printf("==============================================================\n");
  std::printf("%s\n", experiment.c_str());
  std::printf("paper: %s\n", paper_claim.c_str());
  std::printf("corpus: %zu attributes over %lld timestamps\n", dataset.size(),
              static_cast<long long>(dataset.domain().num_timestamps()));
  std::printf("==============================================================\n");
}

std::string Ms(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", v);
  return buf;
}

}  // namespace tind::bench
