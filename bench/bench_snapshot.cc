/// Snapshot load-vs-rebuild benchmark: the "build once, serve many" claim.
/// Builds the default index over the generator corpus, persists it with
/// SaveSnapshot, then times LoadSnapshot against the original Build (best of
/// --load_reps mmap loads) in both load modes: verified (checksums on — what
/// a server pays the first time it sees an artifact) and trusted
/// (verify_checksums=false — the steady-state "serve many" path for an
/// artifact it has already verified once). Loading replaces hashing every
/// value of every version into k+2 Bloom matrices with mapping a file, so
/// the acceptance target is >= 10x trusted-load speedup on the default
/// 8000-attribute corpus; the verified speedup is reported alongside.
///
/// The second claim is that serving from the mapped snapshot costs nothing:
/// the loaded index answers a mixed forward + reverse query workload through
/// zero-copy borrowed planes, and its throughput must stay within a few
/// percent of the heap-built index (acceptance: >= 0.95x).
///
/// Emits BENCH_snapshot.json (override with --json=PATH). With
/// --require_speedup=F the exit code is nonzero when load speedup < F or
/// the loaded/built throughput ratio drops below --require_throughput
/// (default 0.95).

#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/stopwatch.h"
#include "obs/json.h"
#include "snapshot/snapshot.h"
#include "tind/index.h"

namespace tind {
namespace {

int Run(const Flags& flags) {
  auto generated = bench::BuildCorpus(flags, /*default_attributes=*/8000,
                                      /*default_days=*/200);
  const Dataset& dataset = generated.dataset;
  bench::PrintBanner(
      "Snapshot persistence: mmap load vs index rebuild",
      "loading bit planes beats rehashing every version into them",
      dataset);
  const ConstantWeight weight(dataset.domain().num_timestamps());
  const double require_speedup = flags.GetDouble("require_speedup", 0.0);
  const double require_throughput = flags.GetDouble("require_throughput", 0.95);
  const size_t load_reps = static_cast<size_t>(flags.GetInt("load_reps", 5));
  const size_t num_queries = static_cast<size_t>(flags.GetInt("queries", 64));
  const size_t query_reps = static_cast<size_t>(flags.GetInt("query_reps", 3));
  const std::string json_path = flags.GetString("json", "BENCH_snapshot.json");
  const std::string snap_path =
      flags.GetString("snapshot", "bench_snapshot.tsnap");

  TindIndexOptions options;
  options.bloom_bits =
      static_cast<size_t>(flags.GetInt("bloom_bits", 4096));
  options.num_slices = static_cast<size_t>(flags.GetInt("slices", 16));
  options.epsilon = flags.GetDouble("eps", 3.0);
  options.delta = flags.GetInt("delta", 7);
  options.weight = &weight;

  // Rebuild cost: what every serving process pays without snapshots.
  Stopwatch build_watch;
  auto built = TindIndex::Build(dataset, options);
  if (!built.ok()) {
    std::fprintf(stderr, "build failed: %s\n",
                 built.status().ToString().c_str());
    return 1;
  }
  const double build_ms = build_watch.ElapsedMillis();

  Stopwatch save_watch;
  const Status saved = (*built)->SaveSnapshot(snap_path);
  if (!saved.ok()) {
    std::fprintf(stderr, "save failed: %s\n", saved.ToString().c_str());
    return 1;
  }
  const double save_ms = save_watch.ElapsedMillis();
  uint64_t file_bytes = 0;
  {
    auto info = snapshot::ReadSnapshotInfo(snap_path);
    if (info.ok()) file_bytes = info->file_size;
  }

  // Load cost: best of N in each mode. Verified is the first-contact
  // setting (a server should not trust a snapshot it has not checked once);
  // trusted is every load after that, and is the path the speedup gate
  // holds to the 10x floor.
  std::unique_ptr<TindIndex> loaded;
  const auto time_loads = [&](bool verify, double* best_ms) -> int {
    SnapshotLoadOptions load_options;
    load_options.weight = &weight;
    load_options.verify_checksums = verify;
    for (size_t rep = 0; rep < load_reps; ++rep) {
      Stopwatch load_watch;
      auto result = TindIndex::LoadSnapshot(dataset, snap_path, load_options);
      const double ms = load_watch.ElapsedMillis();
      if (!result.ok()) {
        std::fprintf(stderr, "load (verify=%d) failed: %s\n", verify ? 1 : 0,
                     result.status().ToString().c_str());
        return 1;
      }
      if (rep == 0 || ms < *best_ms) *best_ms = ms;
      loaded = std::move(*result);
    }
    return 0;
  };
  double verified_ms_best = 0, trusted_ms_best = 0;
  if (time_loads(/*verify=*/true, &verified_ms_best) != 0) return 1;
  if (time_loads(/*verify=*/false, &trusted_ms_best) != 0) return 1;
  const double verified_speedup = build_ms / verified_ms_best;
  const double load_speedup = build_ms / trusted_ms_best;

  // Query throughput, built vs loaded, on the same mixed workload. The
  // loaded index reads mmap'd planes; after the first pass the pages are
  // resident and the only difference left is the borrowed-storage
  // indirection, which the kernels never see (same pointers, same layout).
  const std::vector<AttributeId> queries =
      bench::SampleQueries(dataset, num_queries,
                           static_cast<uint64_t>(flags.GetInt("seed", 7)));
  const TindParams params{options.epsilon, options.delta, &weight};
  const auto run_queries = [&](const TindIndex& index) {
    size_t results = 0;
    for (const AttributeId q : queries) {
      results += index.Search(dataset.attribute(q), params).size();
      results += index.ReverseSearch(dataset.attribute(q), params).size();
    }
    return results;
  };
  // Warm both (page in the snapshot, fault in the heap).
  const size_t built_results = run_queries(**built);
  const size_t loaded_results = run_queries(*loaded);
  if (built_results != loaded_results) {
    std::fprintf(stderr,
                 "FAIL: loaded index returned %zu results, built %zu\n",
                 loaded_results, built_results);
    return 1;
  }
  double built_ms_best = 0, loaded_ms_best = 0;
  for (size_t rep = 0; rep < query_reps; ++rep) {
    Stopwatch w1;
    (void)run_queries(**built);
    const double b = w1.ElapsedMillis();
    if (rep == 0 || b < built_ms_best) built_ms_best = b;
    Stopwatch w2;
    (void)run_queries(*loaded);
    const double l = w2.ElapsedMillis();
    if (rep == 0 || l < loaded_ms_best) loaded_ms_best = l;
  }
  const double throughput_ratio = built_ms_best / loaded_ms_best;

  TablePrinter table({"metric", "value"});
  table.AddRow({"build", bench::Ms(build_ms)});
  table.AddRow({"save", bench::Ms(save_ms)});
  table.AddRow({"load verified (best of " + std::to_string(load_reps) + ")",
                bench::Ms(verified_ms_best)});
  table.AddRow({"load trusted (best of " + std::to_string(load_reps) + ")",
                bench::Ms(trusted_ms_best)});
  char cell[32];
  std::snprintf(cell, sizeof(cell), "%.1fx", verified_speedup);
  table.AddRow({"verified load speedup", cell});
  std::snprintf(cell, sizeof(cell), "%.1fx", load_speedup);
  table.AddRow({"trusted load speedup", cell});
  table.AddRow({"snapshot bytes", std::to_string(file_bytes)});
  table.AddRow({"query built", bench::Ms(built_ms_best)});
  table.AddRow({"query loaded", bench::Ms(loaded_ms_best)});
  std::snprintf(cell, sizeof(cell), "%.3fx", throughput_ratio);
  table.AddRow({"loaded/built throughput", cell});
  bench::EmitTable(flags, table, "\nSnapshot load vs rebuild");

  obs::JsonValue report = obs::JsonValue::Object();
  report.Set("attributes", obs::JsonValue(static_cast<uint64_t>(dataset.size())));
  report.Set("bloom_bits", obs::JsonValue(static_cast<uint64_t>(options.bloom_bits)));
  report.Set("num_slices", obs::JsonValue(static_cast<uint64_t>(options.num_slices)));
  report.Set("build_ms", obs::JsonValue(build_ms));
  report.Set("save_ms", obs::JsonValue(save_ms));
  report.Set("load_verified_ms_best", obs::JsonValue(verified_ms_best));
  report.Set("load_trusted_ms_best", obs::JsonValue(trusted_ms_best));
  report.Set("load_verified_speedup", obs::JsonValue(verified_speedup));
  report.Set("load_speedup", obs::JsonValue(load_speedup));
  report.Set("snapshot_bytes", obs::JsonValue(file_bytes));
  report.Set("query_built_ms", obs::JsonValue(built_ms_best));
  report.Set("query_loaded_ms", obs::JsonValue(loaded_ms_best));
  report.Set("throughput_ratio", obs::JsonValue(throughput_ratio));

  bool gate_failed = false;
  if (require_speedup > 0 && load_speedup < require_speedup) {
    std::fprintf(stderr,
                 "FAIL: trusted load speedup %.1fx below required %.1fx\n",
                 load_speedup, require_speedup);
    gate_failed = true;
  }
  if (require_speedup > 0 && throughput_ratio < require_throughput) {
    std::fprintf(stderr,
                 "FAIL: loaded/built throughput %.3fx below required %.3fx\n",
                 throughput_ratio, require_throughput);
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
  return gate_failed ? 1 : 0;
}

}  // namespace
}  // namespace tind

int main(int argc, char** argv) {
  return tind::bench::RunHarness(
      argc, argv,
      {"attributes", "days", "seed", "queries", "bloom_bits", "csv", "delta",
       "eps", "json", "load_reps", "query_reps", "require_speedup",
       "require_throughput", "slices", "snapshot"},
      tind::Run);
}
