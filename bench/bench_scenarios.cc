/// Scenario grid benchmark: runs every scenario of a named grid through the
/// full pipeline — materialize corpus, build index at the spec's geometry,
/// all-pairs discovery scored against the planted ground truth, traffic
/// replay through the batch engines — and emits one JSON row per scenario
/// into BENCH_scenarios.json. This is the sweep the paper's experiment
/// sections run by hand (Figures 7–15 vary scale, relaxation, and data
/// shape); here the grid is named, seeded, and archived by CI so every perf
/// claim is evaluated across corpus shapes instead of one default point.
///
///   bench_scenarios                          # all builtin scenarios
///   bench_scenarios --scenarios=planted-clusters,adversarial-bloom
///   bench_scenarios --specs=scenarios/a.json,scenarios/b.json
///   bench_scenarios --repeats=3 --json=BENCH_scenarios.json
///   bench_scenarios --require_floors        # exit 1 on any floor breach
///
/// Exit status: 0 on success; 1 when a scenario fails to run, or (with
/// --require_floors) when any scenario breaches its precision/recall floors.

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/thread_pool.h"
#include "obs/json.h"
#include "scenario/scenario.h"
#include "scenario/scenario_run.h"

namespace tind {
namespace {

int Run(const Flags& flags) {
  const std::string json_path = flags.GetString("json", "BENCH_scenarios.json");
  const int repeats = static_cast<int>(flags.GetInt("repeats", 3));
  const bool require_floors = flags.GetBool("require_floors", false);

  // The grid: --scenarios= builtin names, --specs= spec-file paths, or (the
  // default) every builtin scenario.
  std::vector<scenario::ScenarioSpec> grid;
  const std::string names = flags.GetString("scenarios", "");
  const std::string specs = flags.GetString("specs", "");
  const auto split = [](const std::string& csv) {
    std::vector<std::string> out;
    size_t lo = 0;
    while (lo <= csv.size()) {
      const size_t hi = csv.find(',', lo);
      const std::string item =
          csv.substr(lo, hi == std::string::npos ? hi : hi - lo);
      if (!item.empty()) out.push_back(item);
      if (hi == std::string::npos) break;
      lo = hi + 1;
    }
    return out;
  };
  for (const std::string& token : split(names)) {
    auto spec = scenario::ResolveScenario(token);
    if (!spec.ok()) {
      std::fprintf(stderr, "error: %s\n", spec.status().ToString().c_str());
      return 1;
    }
    grid.push_back(std::move(*spec));
  }
  for (const std::string& token : split(specs)) {
    auto spec = scenario::LoadSpecFile(token);
    if (!spec.ok()) {
      std::fprintf(stderr, "error: %s\n", spec.status().ToString().c_str());
      return 1;
    }
    grid.push_back(std::move(*spec));
  }
  if (grid.empty()) grid = scenario::BuiltinScenarios();

  scenario::ScenarioRunOptions run_options;
  run_options.pool =
      flags.GetBool("sequential", false) ? nullptr : DefaultThreadPool();
  run_options.traffic_repeats = repeats;

  TablePrinter table({"scenario", "attrs", "planted", "precision", "recall",
                      "discover s", "traffic qps", "floors"});
  obs::JsonValue rows = obs::JsonValue::Array();
  bool any_floor_breach = false;
  for (const scenario::ScenarioSpec& spec : grid) {
    auto report = scenario::RunScenario(spec, run_options);
    if (!report.ok()) {
      std::fprintf(stderr, "scenario %s failed: %s\n", spec.name.c_str(),
                   report.status().ToString().c_str());
      return 1;
    }
    table.AddRow({report->name, std::to_string(report->num_attributes),
                  std::to_string(report->planted_pairs),
                  TablePrinter::FormatDouble(report->precision, 3),
                  TablePrinter::FormatDouble(report->recall, 3),
                  TablePrinter::FormatDouble(report->discovery_seconds, 2),
                  TablePrinter::FormatDouble(report->traffic_qps, 0),
                  report->floors_ok ? "ok" : "BREACH"});
    if (!report->floors_ok) {
      any_floor_breach = true;
      std::fprintf(stderr, "scenario %s floor breach: %s\n",
                   report->name.c_str(), report->floor_failure.c_str());
    }
    rows.Append(std::move(report->json));
  }

  obs::JsonValue root = obs::JsonValue::Object();
  root.Set("scenarios", std::move(rows));
  bench::EmitTable(flags, table, "\nScenario grid");

  std::ofstream out(json_path, std::ios::trunc);
  if (!out.good()) {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return 1;
  }
  out << root.Dump(2) << "\n";
  std::printf("wrote %s\n", json_path.c_str());
  return (require_floors && any_floor_breach) ? 1 : 0;
}

}  // namespace
}  // namespace tind

int main(int argc, char** argv) {
  return tind::bench::RunHarness(
      argc, argv,
      {"csv", "json", "repeats", "require_floors", "scenarios", "sequential",
       "specs"},
      tind::Run);
}
