/// Interactive-exploration scenario (the paper's core use-case): a user
/// looks at one table column and asks "which other tables can extend these
/// entities?". We generate a raw Wikipedia-style revision corpus, run the
/// full preprocessing pipeline (link resolution, daily aggregation,
/// filters, column matching), build the index once, and then answer tIND
/// searches for a set of query columns at interactive latency.
///
/// Flags: --attributes=N --days=N --seed=N --queries=N --metrics_json=f

#include <cstdio>

#include "common/flags.h"
#include "obs/metrics.h"
#include "common/stopwatch.h"
#include "eval/runtime_stats.h"
#include "tind/index.h"
#include "wiki/generator.h"
#include "wiki/preprocess.h"

using namespace tind;  // NOLINT(build/namespaces) — example brevity.

int main(int argc, char** argv) {
  const Flags flags = Flags::Parse(argc, argv);
  const std::string metrics_path = flags.GetString("metrics_json", "");
  if (!metrics_path.empty()) {
    obs::MetricsRegistry::Global().set_enabled(true);
  }
  wiki::GeneratorOptions gen_opts;
  gen_opts.seed = static_cast<uint64_t>(flags.GetInt("seed", 11));
  gen_opts.num_days = flags.GetInt("days", 1200);
  gen_opts.num_families = static_cast<size_t>(flags.GetInt("attributes", 400)) / 16;
  gen_opts.num_noise_attributes =
      static_cast<size_t>(flags.GetInt("attributes", 400)) * 3 / 5;
  gen_opts.num_catchall_attributes = 3;
  flags.Declare({"queries"});  // Read further down.
  flags.RejectUnread();

  std::printf("generating raw revision corpus...\n");
  auto raw = wiki::WikiGenerator(gen_opts).GenerateRawCorpus();
  if (!raw.ok()) {
    std::fprintf(stderr, "generation failed: %s\n",
                 raw.status().ToString().c_str());
    return 1;
  }
  std::printf("  %zu tables, %zu revisions over %lld days\n",
              raw->raw.tables.size(), raw->raw.TotalRevisions(),
              static_cast<long long>(raw->raw.num_days));

  std::printf("running the Section-5.1 preprocessing pipeline...\n");
  Stopwatch prep_timer;
  auto processed = wiki::PreprocessRawCorpus(raw->raw, wiki::PreprocessOptions());
  if (!processed.ok()) {
    std::fprintf(stderr, "preprocess failed: %s\n",
                 processed.status().ToString().c_str());
    return 1;
  }
  const Dataset& dataset = processed->dataset;
  std::printf("  kept %zu attribute histories (dropped %zu numeric, %zu "
              "short, %zu small) in %.1fs\n",
              dataset.size(), processed->stats.dropped_numeric,
              processed->stats.dropped_few_versions,
              processed->stats.dropped_small_cardinality,
              prep_timer.ElapsedSeconds());
  if (dataset.size() == 0) return 1;

  const ConstantWeight weight(dataset.domain().num_timestamps());
  TindIndexOptions index_opts;
  index_opts.bloom_bits = 2048;  // Balances forward & reverse (Fig. 12).
  index_opts.num_slices = 16;
  index_opts.delta = 7;
  index_opts.epsilon = 3.0;
  index_opts.weight = &weight;
  Stopwatch build_timer;
  auto index = TindIndex::Build(dataset, index_opts);
  if (!index.ok()) {
    std::fprintf(stderr, "index build failed\n");
    return 1;
  }
  std::printf("index built in %.1fs (%.1f MB)\n\n", build_timer.ElapsedSeconds(),
              static_cast<double>((*index)->MemoryUsageBytes()) / (1 << 20));

  // Explore: pick family child columns (they have genuine links to find).
  const TindParams params{3.0, 7, &weight};
  RuntimeStats latencies;
  size_t shown = 0;
  const size_t max_queries = static_cast<size_t>(flags.GetInt("queries", 5));
  for (AttributeId q = 0; q < dataset.size() && shown < max_queries; ++q) {
    const AttributeHistory& attr = dataset.attribute(q);
    if (attr.meta().page.find("child") == std::string::npos) continue;
    QueryStats stats;
    const auto supersets = (*index)->Search(attr, params, &stats);
    latencies.Add(stats.elapsed_ms);
    ++shown;
    std::printf("exploring '%s' (%zu values today, %zu changes):\n",
                attr.meta().FullName().c_str(),
                attr.VersionAt(dataset.domain().last()).size(),
                attr.num_changes());
    if (supersets.empty()) {
      std::printf("  no containing tables found\n");
    }
    for (const AttributeId id : supersets) {
      const bool genuine = raw->ground_truth.IsGenuine(
          attr.meta().FullName(), dataset.attribute(id).meta().FullName());
      std::printf("  -> can be extended by %-46s %s\n",
                  dataset.attribute(id).meta().FullName().c_str(),
                  genuine ? "[planted genuine]" : "");
    }
    std::printf("  answered in %.2f ms (%zu exact validations)\n\n",
                stats.elapsed_ms, stats.validations);
  }
  if (latencies.count() > 0) {
    std::printf("interactive latency over %zu queries: %s ms\n",
                latencies.count(), latencies.Summary().c_str());
  }
  if (!metrics_path.empty() &&
      obs::MetricsRegistry::Global().WriteJsonFile(metrics_path)) {
    std::printf("metrics written to %s\n", metrics_path.c_str());
  }
  return 0;
}
