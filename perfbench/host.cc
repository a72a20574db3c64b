// `perfbench_tool host`: the traced run's server process. It serves exactly
// as `tind_serve --corpus=... [--snapshot=...] --ingest --max_inflight=N`
// does, but with the obs registry enabled. On SIGUSR1 it writes the server
// counters (those tind_serve --metrics_json exports) plus the registry
// (batch sizes, planner decisions) to --metrics_json; the load generator
// sends it at the end of the fixed-rate phase. SIGTERM drains and exits.
//
//   perfbench_tool host --corpus=<file> [--snapshot=<file>] --max_inflight=N
//       --port_file=<file> --metrics_json=<file>

#include <csignal>
#include <cstdio>
#include <thread>

#include "obs/metrics.h"
#include "perfbench.h"
#include "serve/server.h"

namespace tind::perfbench {
namespace {

volatile std::sig_atomic_t g_stop = 0;
volatile std::sig_atomic_t g_snapshot = 0;
void HandleStop(int) { g_stop = 1; }
void HandleSnapshot(int) { g_snapshot = 1; }

int Fail(const std::string& what, const Status& status) {
  std::fprintf(stderr, "perfbench host: %s: %s\n", what.c_str(),
               status.ToString().c_str());
  return 1;
}

bool WriteMetrics(const serve::TindServer& server, const std::string& path) {
  const serve::TindServer::Counters c = server.counters();
  auto json = obs::JsonValue::Object();
  json.Set("accepted", c.accepted);
  json.Set("completed", c.completed);
  json.Set("degraded", c.degraded);
  json.Set("shed", c.shed);
  json.Set("deadline_exceeded", c.deadline_exceeded);
  json.Set("deltas_applied", c.deltas_applied);
  json.Set("p50_ms", server.LatencyPercentileMs(50));
  json.Set("p99_ms", server.LatencyPercentileMs(99));
  json.Set("registry", obs::MetricsRegistry::Global().ToJson());
  // Write-then-rename so a reader never sees a partial file.
  const std::string tmp = path + ".tmp";
  std::FILE* out = std::fopen(tmp.c_str(), "w");
  if (out == nullptr) return false;
  const std::string text = json.Dump(1);
  std::fwrite(text.data(), 1, text.size(), out);
  return std::fclose(out) == 0 && std::rename(tmp.c_str(), path.c_str()) == 0;
}

}  // namespace

int RunHost(const Flags& flags) {
  std::signal(SIGTERM, HandleStop);
  std::signal(SIGINT, HandleStop);
  std::signal(SIGUSR1, HandleSnapshot);
  ResetRegistry(true);
  const Dataset dataset = ReadCorpusOrDie(flags.GetString("corpus", ""));
  const ConstantWeight weight(dataset.domain().num_timestamps());
  const std::string snapshot = flags.GetString("snapshot", "");
  Result<std::unique_ptr<TindIndex>> index =
      snapshot.empty()
          ? TindIndex::Build(dataset, DefaultIndexOptions(&weight))
          : TindIndex::LoadSnapshot(dataset, snapshot, [&] {
              SnapshotLoadOptions load;
              load.weight = &weight;
              return load;
            }());
  if (!index.ok()) return Fail("index", index.status());

  serve::ServerOptions options;
  options.allow_ingest = true;
  options.max_inflight = static_cast<size_t>(
      flags.GetInt("max_inflight", static_cast<int64_t>(options.max_inflight)));
  serve::TindServer server(**index, TindParams{kEpsilon, kDelta, &weight},
                           options);
  const Status started = server.Start();
  if (!started.ok()) return Fail("start", started);
  const std::string port_file = flags.GetString("port_file", "");
  std::FILE* f = std::fopen((port_file + ".tmp").c_str(), "w");
  if (f == nullptr) return Fail("port file", Status::IOError(port_file));
  std::fprintf(f, "%u\n", server.port());
  std::fclose(f);
  std::rename((port_file + ".tmp").c_str(), port_file.c_str());

  while (g_stop == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    if (g_snapshot != 0) {
      g_snapshot = 0;
      if (!WriteMetrics(server, flags.GetString("metrics_json", ""))) {
        std::fprintf(stderr, "perfbench host: cannot write --metrics_json\n");
      }
    }
  }
  server.Shutdown();
  return 0;
}

}  // namespace tind::perfbench
