/// tind_scenario: generate, describe, and run scenario-factory workloads.
///
///   tind_scenario list
///   tind_scenario describe planted-clusters
///   tind_scenario generate planted-clusters --out=spec.json
///   tind_scenario generate planted-clusters --out=spec.json --corpus=c.tsv
///   tind_scenario run planted-clusters --json=row.json
///   tind_scenario run scenarios/my-spec.json --repeats=3
///
/// A scenario names a complete workload — corpus knobs (scale, Zipf skew,
/// burstiness, planted tIND clusters with ground truth, adversarial
/// Bloom-saturating attributes), a query-traffic model (hot-set skew,
/// batch-size mix, forward/reverse mix), and the index geometry — all
/// deterministic in one seed (DESIGN.md §12). `run` materializes the
/// corpus, builds the index, discovers all tINDs, scores precision/recall
/// against the planted ground truth, replays the traffic plan through the
/// batch engines, and emits a JSON row (the BENCH_scenarios.json format).
///
/// Floor overrides for CI: --min_precision= / --min_recall= replace the
/// spec's floors for this run.
///
/// Exit status: 0 on success, 1 on any error or floor breach.

#include <cstdio>
#include <string>

#include "common/build_info.h"
#include "common/flags.h"
#include "common/thread_pool.h"
#include "scenario/scenario.h"
#include "scenario/scenario_run.h"
#include "wiki/corpus_io.h"

namespace {

using tind::Flags;
using tind::Status;
namespace scenario = tind::scenario;

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

void PrintUsage() {
  std::fprintf(stderr,
               "usage: tind_scenario <list|describe|generate|run> "
               "[<name-or-spec-path>] [flags]\n"
               "  list                     builtin scenarios\n"
               "  describe <name|path>     print the resolved spec JSON\n"
               "  generate <name|path> --out=spec.json [--corpus=c.tsv]\n"
               "  run <name|path> [--json=row.json] [--repeats=N]\n"
               "      [--no_traffic] [--no_discovery] [--sequential]\n"
               "      [--min_precision=F] [--min_recall=F]\n");
}

/// Applies --seed / floor overrides so CI can re-pin a committed spec
/// without editing the file.
scenario::ScenarioSpec ApplyOverrides(scenario::ScenarioSpec spec,
                                      const Flags& flags) {
  spec.seed = static_cast<uint64_t>(
      flags.GetInt("seed", static_cast<int64_t>(spec.seed)));
  spec.min_precision = flags.GetDouble("min_precision", spec.min_precision);
  spec.min_recall = flags.GetDouble("min_recall", spec.min_recall);
  return spec;
}

int RunList() {
  for (const scenario::ScenarioSpec& spec : scenario::BuiltinScenarios()) {
    std::printf("%-20s seed=%-4llu attrs=%-6zu  %s\n", spec.name.c_str(),
                static_cast<unsigned long long>(spec.seed),
                spec.corpus.attributes, spec.description.c_str());
  }
  return 0;
}

int RunDescribe(const std::string& target, const Flags& flags) {
  auto spec = scenario::ResolveScenario(target);
  if (!spec.ok()) return Fail(spec.status());
  const scenario::ScenarioSpec resolved = ApplyOverrides(*spec, flags);
  flags.RejectUnread();
  std::printf("%s\n", scenario::ToJson(resolved).Dump(2).c_str());
  return 0;
}

int RunGenerate(const std::string& target, const Flags& flags) {
  auto spec = scenario::ResolveScenario(target);
  if (!spec.ok()) return Fail(spec.status());
  const scenario::ScenarioSpec resolved = ApplyOverrides(*spec, flags);

  const std::string out = flags.GetString("out", "");
  const std::string corpus_path = flags.GetString("corpus", "");
  flags.RejectUnread();
  if (out.empty()) {
    std::fprintf(stderr, "generate requires --out=<spec.json>\n");
    return 1;
  }
  const Status written = scenario::WriteSpecFile(resolved, out);
  if (!written.ok()) return Fail(written);
  std::printf("spec written to %s\n", out.c_str());

  // Optionally materialize the corpus itself as a reusable artifact.
  if (!corpus_path.empty()) {
    auto corpus = scenario::MaterializeCorpus(resolved);
    if (!corpus.ok()) return Fail(corpus.status());
    const Status saved = tind::wiki::WriteDatasetFile(
        corpus->dataset, &corpus->ground_truth, corpus_path);
    if (!saved.ok()) return Fail(saved);
    std::printf("corpus written to %s (%zu attributes, %zu planted pairs)\n",
                corpus_path.c_str(), corpus->dataset.size(),
                corpus->ground_truth.size());
  }
  return 0;
}

int RunRun(const std::string& target, const Flags& flags) {
  auto spec = scenario::ResolveScenario(target);
  if (!spec.ok()) return Fail(spec.status());
  const scenario::ScenarioSpec resolved = ApplyOverrides(*spec, flags);

  scenario::ScenarioRunOptions options;
  options.pool =
      flags.GetBool("sequential", false) ? nullptr : tind::DefaultThreadPool();
  options.run_discovery = !flags.GetBool("no_discovery", false);
  options.run_traffic = !flags.GetBool("no_traffic", false);
  options.traffic_repeats = static_cast<int>(flags.GetInt("repeats", 1));
  const std::string json_path = flags.GetString("json", "");
  flags.RejectUnread();

  auto report = scenario::RunScenario(resolved, options);
  if (!report.ok()) return Fail(report.status());

  const std::string row = report->json.Dump(2);
  if (!json_path.empty()) {
    std::FILE* f = std::fopen(json_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot open %s for writing\n", json_path.c_str());
      return 1;
    }
    std::fwrite(row.data(), 1, row.size(), f);
    std::fputc('\n', f);
    if (std::fclose(f) != 0) {
      std::fprintf(stderr, "error writing %s\n", json_path.c_str());
      return 1;
    }
    std::printf("row written to %s\n", json_path.c_str());
  } else {
    std::printf("%s\n", row.c_str());
  }

  std::printf(
      "scenario %s: %zu attributes (digest %llu), %zu planted / %zu "
      "discovered pairs, precision %.3f recall %.3f, traffic %zu queries "
      "in %.3fs (%.0f qps)\n",
      report->name.c_str(), report->num_attributes,
      static_cast<unsigned long long>(report->corpus_digest),
      report->planted_pairs, report->discovered_pairs, report->precision,
      report->recall, report->traffic_queries, report->traffic_seconds,
      report->traffic_qps);
  if (!report->floors_ok) {
    std::fprintf(stderr, "FLOOR BREACH: %s\n", report->floor_failure.c_str());
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags = Flags::Parse(argc, argv);
  if (flags.GetBool("build_info", false)) {
    std::printf("%s\n", tind::BuildInfoReport().c_str());
    return 0;
  }
  const auto& positional = flags.positional();
  if (positional.empty()) {
    PrintUsage();
    return 1;
  }
  const std::string& command = positional[0];
  if (command == "list") {
    flags.RejectUnread();
    return RunList();
  }
  if (positional.size() < 2) {
    PrintUsage();
    return 1;
  }
  const std::string& target = positional[1];
  if (command == "describe") return RunDescribe(target, flags);
  if (command == "generate") return RunGenerate(target, flags);
  if (command == "run") return RunRun(target, flags);
  PrintUsage();
  return 1;
}
