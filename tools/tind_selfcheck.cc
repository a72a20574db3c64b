/// tind_selfcheck: end-to-end smoke + observability report over a small
/// synthetic corpus. CI runs this on every PR, archives the JSON, and diffs
/// per-phase timings and probe counters across runs.
///
///   tind_selfcheck --metrics_json=out.json
///   tind_selfcheck --attributes=300 --days=800 --queries=10 --seed=11
///   tind_selfcheck --scenario=planted-clusters   # extra scenario stage:
///       run the named scenario (or spec file) end to end and gate on its
///       precision/recall floors against the planted ground truth
///
/// Chaos mode runs the fault-injection harness instead (requires a build
/// with TIND_ENABLE_FAULT_INJECTION=ON): every injected fault must surface
/// as a non-OK Status or a skipped-record count, never a crash, and a
/// SIGKILL'd discovery run must resume from its checkpoint bit-identically.
///
///   tind_selfcheck --chaos --seed=3 --fault_prob=0.05 --metrics_json=out.json
///   tind_selfcheck --chaos --no_kill_resume   # in hosts where fork is unsafe
///   tind_selfcheck --chaos --scenario=bursty-clusters   # fault stages over
///       a scenario-factory corpus shape instead of the default mix
///
/// Exit status: 0 when every check passed, 1 otherwise (setup failures
/// print the Status and also exit 1).

#include <cstdio>
#include <string>

#include "common/build_info.h"
#include "common/flags.h"
#include "eval/chaos.h"
#include "eval/selfcheck.h"

namespace {

/// Writes `json` to --metrics_json (or stdout when unset). Returns false on
/// I/O failure.
bool EmitReport(const tind::Flags& flags, const std::string& json) {
  const std::string path = flags.GetString("metrics_json", "");
  if (path.empty()) {
    std::printf("%s\n", json.c_str());
    return true;
  }
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
    return false;
  }
  std::fwrite(json.data(), 1, json.size(), f);
  std::fputc('\n', f);
  if (std::fclose(f) != 0) {
    std::fprintf(stderr, "error writing %s\n", path.c_str());
    return false;
  }
  std::printf("report written to %s\n", path.c_str());
  return true;
}

int RunChaosMode(const tind::Flags& flags) {
  tind::eval::ChaosOptions options;
  options.target_attributes = static_cast<size_t>(
      flags.GetInt("attributes",
                   static_cast<int64_t>(options.target_attributes)));
  options.num_days = flags.GetInt("days", options.num_days);
  options.seed = static_cast<uint64_t>(
      flags.GetInt("seed", static_cast<int64_t>(options.seed)));
  options.fault_probability =
      flags.GetDouble("fault_prob", options.fault_probability);
  options.work_dir = flags.GetString("work_dir", options.work_dir);
  options.run_kill_resume =
      !flags.GetBool("no_kill_resume", false) &&
      flags.GetBool("kill_resume", true);
  options.scenario = flags.GetString("scenario", "");
  // EmitReport reads --metrics_json last; --no_kill_resume short-circuits
  // the read of --kill_resume.
  flags.Declare({"metrics_json", "kill_resume"});
  flags.RejectUnread();

  auto report = tind::eval::RunChaosCheck(options);
  if (!report.ok()) {
    std::fprintf(stderr, "chaos setup failed: %s\n",
                 report.status().ToString().c_str());
    return 1;
  }
  if (!EmitReport(flags, report->json)) return 1;
  std::printf("%s\n", report->summary.c_str());
  if (!report->ok) {
    std::fprintf(stderr, "first failure: %s\n", report->failure.c_str());
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const tind::Flags flags = tind::Flags::Parse(argc, argv);
  if (flags.GetBool("build_info", false)) {
    std::printf("%s\n", tind::BuildInfoReport().c_str());
    return 0;
  }
  if (flags.GetBool("chaos", false)) return RunChaosMode(flags);

  tind::eval::SelfCheckOptions options;
  options.target_attributes = static_cast<size_t>(
      flags.GetInt("attributes",
                   static_cast<int64_t>(options.target_attributes)));
  options.num_days = flags.GetInt("days", options.num_days);
  options.oracle_queries = static_cast<size_t>(
      flags.GetInt("queries", static_cast<int64_t>(options.oracle_queries)));
  options.seed = static_cast<uint64_t>(
      flags.GetInt("seed", static_cast<int64_t>(options.seed)));
  options.bloom_bits = static_cast<size_t>(
      flags.GetInt("bloom_bits", static_cast<int64_t>(options.bloom_bits)));
  options.num_slices = static_cast<size_t>(
      flags.GetInt("slices", static_cast<int64_t>(options.num_slices)));
  options.epsilon = flags.GetDouble("eps", options.epsilon);
  options.delta = flags.GetInt("delta", options.delta);
  options.run_discovery = flags.GetBool("discovery", true);
  options.use_thread_pool = flags.GetBool("threads", true);
  options.scenario = flags.GetString("scenario", "");
  flags.Declare({"metrics_json"});  // Read by EmitReport at the end.
  flags.RejectUnread();

  auto report = tind::eval::RunSelfCheck(options);
  if (!report.ok()) {
    std::fprintf(stderr, "selfcheck setup failed: %s\n",
                 report.status().ToString().c_str());
    return 1;
  }

  if (!EmitReport(flags, report->json)) return 1;

  std::printf("%s\n", report->summary.c_str());
  if (!report->ok) {
    std::fprintf(stderr, "first failure: %s\n", report->failure.c_str());
    return 1;
  }
  return 0;
}
