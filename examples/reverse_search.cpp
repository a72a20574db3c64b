/// Reverse tIND search (Definition 3.8 / Section 4.5): given a big "list
/// of ..." attribute, find every attribute *contained in it* — the "which
/// tables describe subsets of these entities?" direction. Also demonstrates
/// that one index answers both directions and that queries may deviate to
/// smaller (ε, δ) than the index was built for.
///
/// Flags: --attributes=N --days=N --seed=N --metrics_json=out.json

#include <cstdio>

#include "common/flags.h"
#include "eval/runtime_stats.h"
#include "obs/metrics.h"
#include "tind/index.h"
#include "wiki/generator.h"

using namespace tind;  // NOLINT(build/namespaces) — example brevity.

int main(int argc, char** argv) {
  const Flags flags = Flags::Parse(argc, argv);
  const std::string metrics_path = flags.GetString("metrics_json", "");
  if (!metrics_path.empty()) {
    obs::MetricsRegistry::Global().set_enabled(true);
  }
  wiki::GeneratorOptions gen_opts;
  gen_opts.seed = static_cast<uint64_t>(flags.GetInt("seed", 23));
  gen_opts.num_days = flags.GetInt("days", 1500);
  const size_t target = static_cast<size_t>(flags.GetInt("attributes", 800));
  gen_opts.num_families = target / 16;
  gen_opts.num_noise_attributes = target * 7 / 10;
  gen_opts.num_catchall_attributes = 3;
  flags.RejectUnread();
  auto generated = wiki::WikiGenerator(gen_opts).GenerateDataset();
  if (!generated.ok()) {
    std::fprintf(stderr, "generation failed\n");
    return 1;
  }
  const Dataset& dataset = generated->dataset;
  std::printf("corpus: %zu attributes\n", dataset.size());

  const ConstantWeight weight(dataset.domain().num_timestamps());
  TindIndexOptions opts;
  opts.bloom_bits = 1024;        // Fig. 12's both-directions compromise.
  opts.num_slices = 16;          // 16 slices for forward search...
  opts.reverse_slices = 2;       // ...but only 2 probed in reverse (Fig. 14).
  opts.delta = 7;
  opts.epsilon = 3.0;
  opts.weight = &weight;
  auto index = TindIndex::Build(dataset, opts);
  if (!index.ok()) {
    std::fprintf(stderr, "index build failed\n");
    return 1;
  }

  // Query the family roots: their children should surface in reverse.
  const TindParams params{3.0, 7, &weight};
  RuntimeStats forward_ms, reverse_ms;
  size_t shown = 0;
  for (AttributeId q = 0; q < dataset.size() && shown < 4; ++q) {
    const AttributeHistory& attr = dataset.attribute(q);
    if (attr.meta().table != "list" || attr.meta().page.rfind("Family", 0) != 0) {
      continue;
    }
    ++shown;
    QueryStats fwd_stats, rev_stats;
    const auto supersets = (*index)->Search(attr, params, &fwd_stats);
    const auto subsets = (*index)->ReverseSearch(attr, params, &rev_stats);
    forward_ms.Add(fwd_stats.elapsed_ms);
    reverse_ms.Add(rev_stats.elapsed_ms);
    std::printf("\n'%s':\n", attr.meta().FullName().c_str());
    std::printf("  contained in %zu attributes (%.2f ms)\n", supersets.size(),
                fwd_stats.elapsed_ms);
    std::printf("  contains %zu attributes (%.2f ms):\n", subsets.size(),
                rev_stats.elapsed_ms);
    for (const AttributeId id : subsets) {
      const bool genuine = generated->ground_truth.IsGenuine(
          dataset.attribute(id).meta().FullName(), attr.meta().FullName());
      std::printf("    <- %-46s %s\n",
                  dataset.attribute(id).meta().FullName().c_str(),
                  genuine ? "[planted genuine]" : "");
    }
  }

  // Same index, tighter parameters at query time (allowed direction).
  std::printf("\nquerying the same index with stricter parameters:\n");
  const TindParams strict{0.0, 0, &weight};
  size_t strict_total = 0, relaxed_total = 0;
  for (AttributeId q = 0; q < std::min<size_t>(dataset.size(), 100); ++q) {
    strict_total += (*index)->ReverseSearch(dataset.attribute(q), strict).size();
    relaxed_total += (*index)->ReverseSearch(dataset.attribute(q), params).size();
  }
  std::printf("  strict reverse results over 100 queries: %zu\n", strict_total);
  std::printf("  relaxed reverse results over 100 queries: %zu\n",
              relaxed_total);
  if (forward_ms.count() > 0) {
    std::printf("\nforward latency: %s\nreverse latency: %s\n",
                forward_ms.Summary().c_str(), reverse_ms.Summary().c_str());
  }
  if (!metrics_path.empty() &&
      obs::MetricsRegistry::Global().WriteJsonFile(metrics_path)) {
    std::printf("metrics written to %s\n", metrics_path.c_str());
  }
  return 0;
}
