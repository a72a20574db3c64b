/// SIMD kernel benchmark: Bloom-matrix probing throughput (rows/s) per
/// dispatch backend, forward (QuerySupersets) and reverse (QuerySubsets),
/// through the batch kernel at group widths 1 and 64. The workload is the
/// matrix scan itself — no corpus generation, no validation — so the numbers
/// isolate exactly what the SIMD layer accelerates: the row-AND/row-ANDNOT
/// inner loops over 64-byte-aligned padded column words.
///
/// Emits BENCH_simd_kernels.json (override with --json=PATH) with per-backend
/// rows/s and the headline scalar-vs-best-vector aggregate speedup, and exits
/// nonzero when --require_speedup=F is given, a vector ISA is available, and
/// the best vector backend's aggregate rows/s falls below F times scalar's.
/// When only the scalar backend exists (no vector ISA compiled in or
/// detected), the gate is skipped — CI only enforces it on machines where a
/// vector backend actually runs.

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "bloom/bloom_matrix.h"
#include "common/rng.h"
#include "common/simd.h"
#include "common/stopwatch.h"
#include "obs/json.h"

namespace tind {
namespace {

ValueSet RandomValueSet(Rng* rng, size_t n, uint32_t universe) {
  std::vector<ValueId> values;
  values.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    values.push_back(static_cast<ValueId>(rng->Uniform(universe)));
  }
  return ValueSet::FromUnsorted(std::move(values));
}

int Run(const Flags& flags) {
  const size_t num_columns =
      static_cast<size_t>(flags.GetInt("columns", 8000));
  const size_t bloom_bits =
      static_cast<size_t>(flags.GetInt("bloom_bits", 4096));
  const size_t num_queries = static_cast<size_t>(flags.GetInt("queries", 192));
  const size_t values_per_column =
      static_cast<size_t>(flags.GetInt("values", 30));
  const int repeats = static_cast<int>(flags.GetInt("repeats", 3));
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 7));
  const double require_speedup = flags.GetDouble("require_speedup", 0.0);
  const std::string json_path =
      flags.GetString("json", "BENCH_simd_kernels.json");
  const std::vector<int64_t> batch_sizes =
      flags.GetIntList("batch_sizes", {1, 64});

  // The dispatch record first: CI redirects this to backend-selection.log.
  std::printf("%s", simd::SelectionLog().c_str());

  Rng rng(seed);
  BloomMatrix matrix(bloom_bits, /*num_hashes=*/2, num_columns);
  for (size_t c = 0; c < num_columns; ++c) {
    matrix.SetColumn(c, RandomValueSet(&rng, values_per_column, 4000));
  }
  std::vector<BloomFilter> queries;
  queries.reserve(num_queries);
  size_t forward_rows = 0;  // Rows the forward direction folds per pass.
  for (size_t q = 0; q < num_queries; ++q) {
    queries.push_back(
        matrix.MakeQueryFilter(RandomValueSet(&rng, 20, 4000)));
    forward_rows += queries.back().bits().Count();
  }
  // Reverse folds the complement rows of every query.
  const size_t reverse_rows = num_queries * bloom_bits - forward_rows;
  std::printf(
      "matrix: %zu bits x %zu columns, %zu queries "
      "(%zu forward rows, %zu reverse rows per pass)\n\n",
      bloom_bits, num_columns, num_queries, forward_rows, reverse_rows);

  const std::vector<simd::Backend> backends = simd::AvailableBackends();
  TablePrinter table(
      {"backend", "direction", "batch", "total ms", "rows/s", "vs scalar"});
  obs::JsonValue report = obs::JsonValue::Object();
  report.Set("bloom_bits", obs::JsonValue(uint64_t{bloom_bits}));
  report.Set("columns", obs::JsonValue(uint64_t{num_columns}));
  report.Set("queries", obs::JsonValue(uint64_t{num_queries}));
  report.Set("detected_backend",
             obs::JsonValue(std::string(
                 simd::BackendName(simd::DetectBestBackend()))));
  obs::JsonValue backends_json = obs::JsonValue::Array();

  // cell_ms[backend][direction][batch] for the vs-scalar columns; scalar is
  // always backends.front().
  std::vector<double> scalar_cell_ms;
  std::vector<double> aggregate_ms(backends.size(), 0.0);
  size_t cell_index = 0;

  std::vector<BitVector> candidates(num_queries);
  for (size_t b = 0; b < backends.size(); ++b) {
    const simd::Backend backend = backends[b];
    if (!simd::ForceBackend(backend)) continue;
    obs::JsonValue backend_json = obs::JsonValue::Object();
    backend_json.Set("name", obs::JsonValue(std::string(
                                 simd::BackendName(backend))));
    cell_index = 0;
    for (const bool forward : {true, false}) {
      const char* direction = forward ? "forward" : "reverse";
      const size_t pass_rows = forward ? forward_rows : reverse_rows;
      obs::JsonValue dir_json = obs::JsonValue::Object();
      for (const int64_t batch : batch_sizes) {
        const auto run_pass = [&] {
          for (size_t lo = 0; lo < num_queries;
               lo += static_cast<size_t>(batch)) {
            const size_t hi =
                std::min(num_queries, lo + static_cast<size_t>(batch));
            std::vector<BloomProbe> probes;
            probes.reserve(hi - lo);
            for (size_t i = lo; i < hi; ++i) {
              probes.push_back(BloomProbe{&queries[i], &candidates[i]});
            }
            if (forward) {
              matrix.QuerySupersetsBatch(probes);
            } else {
              matrix.QuerySubsetsBatch(probes);
            }
          }
        };
        const auto reset = [&] {
          for (auto& c : candidates) c = BitVector(num_columns, true);
        };
        reset();
        run_pass();  // Warmup (also faults in the matrix pages).
        double best_ms = 0;
        for (int r = 0; r < repeats; ++r) {
          reset();
          Stopwatch sw;
          run_pass();
          const double ms = sw.ElapsedMillis();
          if (r == 0 || ms < best_ms) best_ms = ms;
        }
        const double rows_per_s =
            1000.0 * static_cast<double>(pass_rows) / best_ms;
        std::string vs_scalar = "1.00x";
        if (b == 0) {
          scalar_cell_ms.push_back(best_ms);
        } else {
          char buf[32];
          std::snprintf(buf, sizeof(buf), "%.2fx",
                        scalar_cell_ms[cell_index] / best_ms);
          vs_scalar = buf;
        }
        aggregate_ms[b] += best_ms;
        ++cell_index;
        table.AddRow({std::string(simd::BackendName(backend)), direction,
                      std::to_string(batch), bench::Ms(best_ms),
                      TablePrinter::FormatDouble(rows_per_s / 1e6, 1) + "M",
                      vs_scalar});
        obs::JsonValue point = obs::JsonValue::Object();
        point.Set("batch_size", obs::JsonValue(batch));
        point.Set("total_ms", obs::JsonValue(best_ms));
        point.Set("rows_per_s", obs::JsonValue(rows_per_s));
        dir_json.Set("batch_" + std::to_string(batch), std::move(point));
      }
      backend_json.Set(direction, std::move(dir_json));
    }
    backend_json.Set("aggregate_ms", obs::JsonValue(aggregate_ms[b]));
    backend_json.Set("aggregate_speedup_vs_scalar",
                     obs::JsonValue(aggregate_ms[0] / aggregate_ms[b]));
    backends_json.Append(std::move(backend_json));
    simd::ClearForcedBackend();
  }
  report.Set("backends", std::move(backends_json));

  // Headline: scalar total vs the best vector backend's total over the whole
  // forward + reverse, batch 1 + 64 workload.
  bool gate_failed = false;
  double best_speedup = 0;
  std::string best_name;
  for (size_t b = 1; b < backends.size(); ++b) {
    const double speedup = aggregate_ms[0] / aggregate_ms[b];
    if (speedup > best_speedup) {
      best_speedup = speedup;
      best_name = std::string(simd::BackendName(backends[b]));
    }
  }
  if (!best_name.empty()) {
    char agg_str[32];
    std::snprintf(agg_str, sizeof(agg_str), "%.2fx", best_speedup);
    table.AddRow({"best=" + best_name, "aggregate", "-",
                  bench::Ms(aggregate_ms[0]) + " scalar", "-", agg_str});
    obs::JsonValue agg = obs::JsonValue::Object();
    agg.Set("best_backend", obs::JsonValue(best_name));
    agg.Set("scalar_ms", obs::JsonValue(aggregate_ms[0]));
    agg.Set("speedup", obs::JsonValue(best_speedup));
    report.Set("aggregate", std::move(agg));
    if (require_speedup > 0 && best_speedup < require_speedup) {
      std::fprintf(stderr,
                   "FAIL: best vector backend (%s) aggregate speedup %.2fx "
                   "below required %.2fx\n",
                   best_name.c_str(), best_speedup, require_speedup);
      gate_failed = true;
    }
  } else if (require_speedup > 0) {
    std::printf(
        "note: no vector backend available on this machine; "
        "--require_speedup gate skipped\n");
  }
  bench::EmitTable(flags, table, "\nSIMD kernel throughput");

  std::ofstream out(json_path, std::ios::trunc);
  if (!out.good()) {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return 1;
  }
  out << report.Dump(2) << "\n";
  std::printf("wrote %s\n", json_path.c_str());
  return gate_failed ? 1 : 0;
}

}  // namespace
}  // namespace tind

int main(int argc, char** argv) {
  return tind::bench::RunHarness(
      argc, argv,
      {"seed", "queries", "batch_sizes", "bloom_bits", "columns", "csv", "json",
       "repeats", "require_speedup", "values"},
      tind::Run);
}
