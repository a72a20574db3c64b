/// Live-ingest benchmark: incremental ApplyDelta vs full index rebuild.
/// Builds the default index over the generator corpus, then applies a
/// seeded revision delta confined to <= 1% of attributes (the realistic
/// "a handful of Wikipedia pages changed" shape) two ways: a fresh
/// TindIndex::Build over the mutated dataset (what a system without online
/// maintenance pays per revision batch) and IndexUpdater::ApplyDelta
/// (clone + column patch). Both are best-of --reps; the patched index's
/// answers are checked against the rebuild on a sampled query mix before
/// any timing is trusted. The acceptance target is >= 5x incremental
/// speedup at the default 8000-attribute scale.
///
/// Re-publication rides along: SaveSnapshot from scratch vs CompactSnapshot
/// reusing the clean sections of the previous artifact, with byte-identical
/// output asserted.
///
/// Emits BENCH_update.json (override with --json=PATH). With
/// --require_speedup=F the exit code is nonzero when the incremental apply
/// speedup falls below F.

#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/stopwatch.h"
#include "obs/json.h"
#include "scenario/mutate.h"
#include "snapshot/snapshot.h"
#include "tind/index.h"
#include "tind/update.h"

namespace tind {
namespace {

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

int Run(const Flags& flags) {
  auto generated = bench::BuildCorpus(flags, /*default_attributes=*/8000,
                                      /*default_days=*/200);
  const Dataset& dataset = generated.dataset;
  bench::PrintBanner(
      "Live ingest: incremental ApplyDelta vs full rebuild",
      "patching the dirty columns beats rehashing every clean one",
      dataset);
  const ConstantWeight weight(dataset.domain().num_timestamps());
  const double require_speedup = flags.GetDouble("require_speedup", 0.0);
  const size_t reps = static_cast<size_t>(flags.GetInt("reps", 3));
  const size_t num_ops = static_cast<size_t>(flags.GetInt("ops", 64));
  const size_t num_queries = static_cast<size_t>(flags.GetInt("queries", 64));
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 7));
  const std::string json_path = flags.GetString("json", "BENCH_update.json");
  const std::string snap_path =
      flags.GetString("snapshot", "bench_update.tsnap");
  const std::string compact_path = snap_path + ".next";

  TindIndexOptions options;
  options.bloom_bits = static_cast<size_t>(flags.GetInt("bloom_bits", 4096));
  options.num_slices = static_cast<size_t>(flags.GetInt("slices", 16));
  options.epsilon = flags.GetDouble("eps", 3.0);
  options.delta = flags.GetInt("delta", 7);
  options.weight = &weight;

  Stopwatch build_watch;
  auto built = TindIndex::Build(dataset, options);
  if (!built.ok()) {
    std::fprintf(stderr, "build failed: %s\n",
                 built.status().ToString().c_str());
    return 1;
  }
  const double base_build_ms = build_watch.ElapsedMillis();

  // The delta touches at most 1% of attributes (floor 4): mostly appends
  // with a few retires, plus a couple of added attributes — the shape the
  // per-column dirty tracking is designed around.
  scenario::MutationSpec spec;
  spec.num_ops = num_ops;
  spec.max_attributes_touched =
      std::max<size_t>(4, dataset.size() / 100);
  const RevisionDelta delta = scenario::MutateCorpus(dataset, seed + 1, spec);

  // Rebuild cost: best of N (mutate corpus + fresh Build). The corpus
  // mutation is inside the timed region on purpose — a system without
  // online maintenance still has to apply the revision batch to its
  // dataset before it can rebuild, exactly as ApplyDelta does internally.
  double rebuild_ms_best = 0;
  std::unique_ptr<TindIndex> rebuilt;
  DeltaApplication applied;
  for (size_t rep = 0; rep < reps; ++rep) {
    Stopwatch w;
    auto mutated = ApplyDeltaToDataset(dataset, delta);
    if (!mutated.ok()) {
      std::fprintf(stderr, "delta rejected: %s\n",
                   mutated.status().ToString().c_str());
      return 1;
    }
    auto fresh = TindIndex::Build(*mutated->dataset, options);
    const double ms = w.ElapsedMillis();
    if (!fresh.ok()) {
      std::fprintf(stderr, "rebuild failed: %s\n",
                   fresh.status().ToString().c_str());
      return 1;
    }
    if (rep == 0 || ms < rebuild_ms_best) rebuild_ms_best = ms;
    // Keep the last rep's pair together: the index holds a pointer to the
    // dataset it was built over, and the oracle queries below rely on it.
    rebuilt = std::move(*fresh);
    applied = std::move(*mutated);
  }
  const double dirty_fraction =
      static_cast<double>(applied.dirty.size() + applied.attributes_added) /
      static_cast<double>(applied.dataset->size());

  // Incremental cost: best of N ApplyDelta calls against the base index.
  double apply_ms_best = 0;
  UpdateResult updated;
  for (size_t rep = 0; rep < reps; ++rep) {
    Stopwatch w;
    auto result = IndexUpdater::ApplyDelta(**built, delta);
    const double ms = w.ElapsedMillis();
    if (!result.ok()) {
      std::fprintf(stderr, "apply failed: %s\n",
                   result.status().ToString().c_str());
      return 1;
    }
    if (rep == 0 || ms < apply_ms_best) apply_ms_best = ms;
    updated = std::move(*result);
  }
  const double apply_speedup = rebuild_ms_best / apply_ms_best;

  // Equality first, timing second: the patched index must answer a sampled
  // forward + reverse mix exactly like the rebuild (each index queried with
  // its own dataset's histories — self-exclusion matches by identity).
  const TindParams params{options.epsilon, options.delta, &weight};
  const std::vector<AttributeId> queries =
      bench::SampleQueries(*applied.dataset, num_queries, seed);
  for (const AttributeId q : queries) {
    const auto& oracle_query = applied.dataset->attribute(q);
    const auto& patched_query = updated.dataset->attribute(q);
    if (updated.index->Search(patched_query, params) !=
            rebuilt->Search(oracle_query, params) ||
        updated.index->ReverseSearch(patched_query, params) !=
            rebuilt->ReverseSearch(oracle_query, params)) {
      std::fprintf(stderr,
                   "FAIL: patched index diverges from rebuild at q=%u\n",
                   static_cast<unsigned>(q));
      return 1;
    }
  }

  // Re-publication: full SaveSnapshot of the updated index vs a
  // CompactSnapshot that reuses the clean sections of the base artifact.
  const Status base_saved = (*built)->SaveSnapshot(snap_path);
  if (!base_saved.ok()) {
    std::fprintf(stderr, "base save failed: %s\n",
                 base_saved.ToString().c_str());
    return 1;
  }
  double full_save_ms_best = 0, compact_ms_best = 0;
  for (size_t rep = 0; rep < reps; ++rep) {
    Stopwatch w1;
    const Status full = updated.index->SaveSnapshot(compact_path);
    const double f = w1.ElapsedMillis();
    if (!full.ok()) {
      std::fprintf(stderr, "save failed: %s\n", full.ToString().c_str());
      return 1;
    }
    if (rep == 0 || f < full_save_ms_best) full_save_ms_best = f;
  }
  const std::string full_bytes = ReadFileBytes(compact_path);
  for (size_t rep = 0; rep < reps; ++rep) {
    Stopwatch w2;
    const Status compacted = updated.index->CompactSnapshot(
        snap_path, compact_path, updated.stats);
    const double c = w2.ElapsedMillis();
    if (!compacted.ok()) {
      std::fprintf(stderr, "compact failed: %s\n",
                   compacted.ToString().c_str());
      return 1;
    }
    if (rep == 0 || c < compact_ms_best) compact_ms_best = c;
  }
  if (ReadFileBytes(compact_path) != full_bytes) {
    std::fprintf(stderr,
                 "FAIL: CompactSnapshot output differs from SaveSnapshot\n");
    return 1;
  }
  const double compact_speedup = full_save_ms_best / compact_ms_best;

  TablePrinter table({"metric", "value"});
  char cell[48];
  table.AddRow({"base build", bench::Ms(base_build_ms)});
  table.AddRow({"delta ops", std::to_string(delta.ops.size())});
  std::snprintf(cell, sizeof(cell), "%.2f%%", dirty_fraction * 100.0);
  table.AddRow({"dirty attributes", cell});
  table.AddRow({"rebuild (best of " + std::to_string(reps) + ")",
                bench::Ms(rebuild_ms_best)});
  table.AddRow({"apply (best of " + std::to_string(reps) + ")",
                bench::Ms(apply_ms_best)});
  std::snprintf(cell, sizeof(cell), "%.1fx", apply_speedup);
  table.AddRow({"incremental apply speedup", cell});
  table.AddRow({"columns reset",
                std::to_string(updated.stats.columns_reset)});
  table.AddRow({"slices patched/skipped/rebuilt",
                std::to_string(updated.stats.slices_patched) + "/" +
                    std::to_string(updated.stats.slices_skipped) + "/" +
                    std::to_string(updated.stats.slices_rebuilt)});
  table.AddRow({"full save", bench::Ms(full_save_ms_best)});
  table.AddRow({"compact save", bench::Ms(compact_ms_best)});
  std::snprintf(cell, sizeof(cell), "%.1fx", compact_speedup);
  table.AddRow({"compact re-publication speedup", cell});
  bench::EmitTable(flags, table, "\nIncremental apply vs rebuild");

  obs::JsonValue report = obs::JsonValue::Object();
  report.Set("attributes",
             obs::JsonValue(static_cast<uint64_t>(dataset.size())));
  report.Set("delta_ops",
             obs::JsonValue(static_cast<uint64_t>(delta.ops.size())));
  report.Set("dirty_fraction", obs::JsonValue(dirty_fraction));
  report.Set("base_build_ms", obs::JsonValue(base_build_ms));
  report.Set("rebuild_ms_best", obs::JsonValue(rebuild_ms_best));
  report.Set("apply_ms_best", obs::JsonValue(apply_ms_best));
  report.Set("apply_speedup", obs::JsonValue(apply_speedup));
  report.Set("columns_reset",
             obs::JsonValue(static_cast<uint64_t>(updated.stats.columns_reset)));
  report.Set("slices_patched",
             obs::JsonValue(static_cast<uint64_t>(updated.stats.slices_patched)));
  report.Set("slices_skipped",
             obs::JsonValue(static_cast<uint64_t>(updated.stats.slices_skipped)));
  report.Set("slices_rebuilt",
             obs::JsonValue(static_cast<uint64_t>(updated.stats.slices_rebuilt)));
  report.Set("full_save_ms_best", obs::JsonValue(full_save_ms_best));
  report.Set("compact_ms_best", obs::JsonValue(compact_ms_best));
  report.Set("compact_speedup", obs::JsonValue(compact_speedup));

  bool gate_failed = false;
  if (require_speedup > 0 && apply_speedup < require_speedup) {
    std::fprintf(stderr,
                 "FAIL: incremental apply speedup %.1fx below required %.1fx\n",
                 apply_speedup, require_speedup);
    gate_failed = true;
  }

  std::ofstream out(json_path, std::ios::trunc);
  if (!out.good()) {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return 1;
  }
  out << report.Dump(2) << "\n";
  std::printf("wrote %s\n", json_path.c_str());
  std::remove(snap_path.c_str());
  std::remove(compact_path.c_str());
  return gate_failed ? 1 : 0;
}

}  // namespace
}  // namespace tind

int main(int argc, char** argv) {
  return tind::bench::RunHarness(
      argc, argv,
      {"attributes", "days", "seed", "queries", "bloom_bits", "csv", "delta",
       "eps", "json", "ops", "reps", "require_speedup", "slices", "snapshot"},
      tind::Run);
}
