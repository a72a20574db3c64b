#ifndef TIND_BENCH_BENCH_UTIL_H_
#define TIND_BENCH_BENCH_UTIL_H_

/// \file bench_util.h
/// Shared plumbing for the experiment harnesses: corpus construction scaled
/// to a target attribute count, query sampling, result-table printing, and
/// the observability hookup. Every harness accepts flags to re-run at paper
/// scale:
///   --attributes=N --days=N --queries=N --seed=N --csv
/// and exports the metrics registry (per-phase spans, probe counters) with:
///   --metrics_json=out.json   or   --metrics_csv=out.csv

#include <cstdint>
#include <initializer_list>
#include <string>
#include <vector>

#include "common/flags.h"
#include "common/table_printer.h"
#include "eval/runtime_stats.h"
#include "temporal/dataset.h"
#include "wiki/generator.h"

namespace tind::bench {

/// Standard harness entry point: parses argv, enables the global metrics
/// registry when --metrics_json/--metrics_csv/--metrics is present, invokes
/// `run`, exports the registry, and returns `run`'s exit code. Metrics stay
/// fully disabled (zero overhead) unless one of those flags was passed.
/// `bench_flags` names every flag `run` reads (BuildCorpus reads
/// attributes, days and seed; EmitTable reads csv): a given flag outside
/// them and the metrics flags exits with StatusExitCode(InvalidArgument)
/// (Flags::RejectUnread) before `run` starts.
int RunHarness(int argc, char** argv,
               std::initializer_list<const char*> bench_flags,
               int (*run)(const Flags&));

/// The pieces of RunHarness, for harnesses with their own main shape.
void InitMetrics(const Flags& flags);
void FinishMetrics(const Flags& flags);

/// Scales the generator so the surviving corpus lands near
/// `target_attributes` with the §5.1 mix of genuine families, noise, and
/// registry attributes.
wiki::GeneratorOptions ScaledOptions(size_t target_attributes, int64_t days,
                                     uint64_t seed);

/// Builds a corpus from --attributes / --days / --seed (with the given
/// defaults). Prints a one-line summary. Aborts on generation failure.
wiki::GeneratedDataset BuildCorpus(const Flags& flags,
                                   size_t default_attributes,
                                   int64_t default_days = 3000,
                                   uint64_t default_seed = 7);

/// Samples `count` query attribute ids uniformly (seeded).
std::vector<AttributeId> SampleQueries(const Dataset& dataset, size_t count,
                                       uint64_t seed);

/// Prints the table and, when --csv was passed, the CSV form too.
void EmitTable(const Flags& flags, const TablePrinter& table,
               const std::string& title);

/// Standard experiment banner with the corpus stats line.
void PrintBanner(const std::string& experiment, const std::string& paper_claim,
                 const Dataset& dataset);

/// Formats a latency summary cell ("12.3 / 45.6" mean/median style).
std::string Ms(double v);

}  // namespace tind::bench

#endif  // TIND_BENCH_BENCH_UTIL_H_
