/// tind_serve: the long-lived tIND query service over a built or
/// mmap-loaded index.
///
///   tind_serve --snapshot=index.tsnap [corpus/shape flags] --port=7421
///   tind_serve --attributes=2000 --days=3000 --port_file=/tmp/port
///   tind_serve --snapshot=index.tsnap --preflight
///
/// The corpus flags (--corpus | --attributes --days --seed) and index shape
/// flags (--bloom_bits --slices --eps --delta --hashes --reverse_slices
/// --no_reverse --index_seed) mirror tind_snapshot exactly, so a snapshot
/// written by `tind_snapshot write` loads against the identical dataset
/// here (the manifest digest check enforces it). Without --snapshot the
/// index is built in memory.
///
/// Serving knobs: --port (0 = ephemeral, printed and optionally written to
/// --port_file), --max_inflight, --degrade_watermark, --deadline_ms,
/// --max_deadline_ms, --io_timeout_ms, --max_connections, --memory_mb
/// (admission MemoryBudget cap; 0 = none), --ingest (accept kApplyDelta
/// frames for live index maintenance; off by default — without it ingest
/// requests get FailedPrecondition).
///
/// --preflight verifies the snapshot's section CRCs and performs a full
/// load, then exits without serving — with a *distinct exit code per
/// rejection type* (StatusExitCode): 0 OK, 2 NotFound, 3 IOError,
/// 4 InvalidArgument/FailedPrecondition (corrupt / wrong corpus / wrong
/// weight), 5 OutOfMemory, 1 other. The serving path uses the same codes
/// on startup failure.
///
/// SIGTERM/SIGINT initiate a drain: new requests are shed with typed
/// "draining" errors, in-flight requests finish within their deadlines,
/// then the process exits 0 after printing (and with --metrics_json,
/// writing) the service counters.

#include <csignal>
#include <cstdio>
#include <chrono>
#include <memory>
#include <string>
#include <thread>

#include "common/build_info.h"
#include "common/flags.h"
#include "common/memory_budget.h"
#include "common/stopwatch.h"
#include "obs/json.h"
#include "serve/server.h"
#include "temporal/weights.h"
#include "tind/index.h"
#include "wiki/corpus_io.h"
#include "wiki/generator.h"

namespace {

using tind::Dataset;
using tind::Flags;
using tind::Result;
using tind::Status;

volatile std::sig_atomic_t g_stop = 0;

void HandleStopSignal(int) { g_stop = 1; }

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return tind::StatusExitCode(status);
}

/// Mirrors tind_snapshot's ObtainDataset byte for byte: the snapshot's
/// corpus digest only matches when the generator sees identical knobs.
Result<Dataset> ObtainDataset(const Flags& flags) {
  const std::string corpus = flags.GetString("corpus", "");
  if (!corpus.empty()) {
    TIND_ASSIGN_OR_RETURN(tind::wiki::LoadedDataset loaded,
                          tind::wiki::ReadDatasetFile(corpus));
    std::printf("corpus %s: %zu attributes, %lld days\n", corpus.c_str(),
                loaded.dataset.size(),
                static_cast<long long>(loaded.dataset.domain().num_timestamps()));
    return std::move(loaded.dataset);
  }
  const size_t attributes =
      static_cast<size_t>(flags.GetInt("attributes", 2000));
  tind::wiki::GeneratorOptions opts;
  opts.seed = static_cast<uint64_t>(flags.GetInt("seed", 7));
  opts.num_days = flags.GetInt("days", 3000);
  opts.num_families = std::max<size_t>(2, attributes / 14);
  opts.num_noise_attributes = std::max<size_t>(8, attributes * 45 / 100);
  opts.num_drifter_attributes = std::max<size_t>(4, attributes * 18 / 100);
  opts.shared_vocabulary = std::max<size_t>(150, attributes / 4);
  TIND_ASSIGN_OR_RETURN(tind::wiki::GeneratedDataset generated,
                        tind::wiki::WikiGenerator(opts).GenerateDataset());
  std::printf("generated corpus: %zu attributes, %lld days (seed %llu)\n",
              generated.dataset.size(), static_cast<long long>(opts.num_days),
              static_cast<unsigned long long>(opts.seed));
  return std::move(generated.dataset);
}

tind::TindIndexOptions IndexOptions(const Flags& flags,
                                    const tind::WeightFunction* weight) {
  tind::TindIndexOptions options;
  options.bloom_bits = static_cast<size_t>(
      flags.GetInt("bloom_bits", static_cast<int64_t>(options.bloom_bits)));
  options.num_hashes =
      static_cast<uint32_t>(flags.GetInt("hashes", options.num_hashes));
  options.num_slices = static_cast<size_t>(
      flags.GetInt("slices", static_cast<int64_t>(options.num_slices)));
  options.epsilon = flags.GetDouble("eps", options.epsilon);
  options.delta = flags.GetInt("delta", options.delta);
  options.seed = static_cast<uint64_t>(
      flags.GetInt("index_seed", static_cast<int64_t>(options.seed)));
  options.build_reverse_index = !flags.GetBool("no_reverse", false);
  options.reverse_slices = static_cast<size_t>(flags.GetInt(
      "reverse_slices", static_cast<int64_t>(options.reverse_slices)));
  options.weight = weight;
  return options;
}

/// Acquires the index: mmap-load the snapshot when --snapshot is given,
/// else a fresh in-memory build over the obtained dataset.
Result<std::unique_ptr<tind::TindIndex>> ObtainIndex(
    const Flags& flags, const Dataset& dataset,
    const tind::WeightFunction* weight) {
  const std::string snapshot = flags.GetString("snapshot", "");
  if (!snapshot.empty()) {
    tind::SnapshotLoadOptions load;
    load.weight = weight;
    tind::Stopwatch watch;
    TIND_ASSIGN_OR_RETURN(std::unique_ptr<tind::TindIndex> index,
                          tind::TindIndex::LoadSnapshot(dataset, snapshot,
                                                        load));
    std::printf("loaded %s in %.1f ms (%zu matrix bytes, zero-copy)\n",
                snapshot.c_str(), watch.ElapsedMillis(),
                index->MemoryUsageBytes());
    return index;
  }
  tind::Stopwatch watch;
  TIND_ASSIGN_OR_RETURN(std::unique_ptr<tind::TindIndex> index,
                        tind::TindIndex::Build(dataset, IndexOptions(flags,
                                                                     weight)));
  std::printf("built index in %.1f ms (%zu matrix bytes)\n",
              watch.ElapsedMillis(), index->MemoryUsageBytes());
  return index;
}

tind::obs::JsonValue CountersJson(const tind::serve::TindServer& server) {
  const auto c = server.counters();
  auto json = tind::obs::JsonValue::Object();
  json.Set("connections", c.connections);
  json.Set("connections_rejected", c.connections_rejected);
  json.Set("accepted", c.accepted);
  json.Set("completed", c.completed);
  json.Set("degraded", c.degraded);
  json.Set("shed", c.shed);
  json.Set("deadline_exceeded", c.deadline_exceeded);
  json.Set("protocol_errors", c.protocol_errors);
  json.Set("slow_loris_drops", c.slow_loris_drops);
  json.Set("deltas_applied", c.deltas_applied);
  json.Set("p50_ms", server.LatencyPercentileMs(50));
  json.Set("p99_ms", server.LatencyPercentileMs(99));
  return json;
}

int Run(const Flags& flags) {
  auto dataset_or = ObtainDataset(flags);
  if (!dataset_or.ok()) return Fail(dataset_or.status());
  const Dataset& dataset = *dataset_or;
  const tind::ConstantWeight weight(dataset.domain().num_timestamps());

  if (flags.GetBool("preflight", false)) {
    const std::string snapshot = flags.GetString("snapshot", "");
    if (snapshot.empty()) {
      std::fprintf(stderr, "--preflight requires --snapshot=<path>\n");
      return 1;
    }
    // The load checks every section CRC and runs the same per-section
    // validators as VerifySnapshot, so it is the whole preflight.
    tind::SnapshotLoadOptions load;
    load.weight = &weight;
    auto index_or = tind::TindIndex::LoadSnapshot(dataset, snapshot, load);
    if (!index_or.ok()) return Fail(index_or.status());
    std::printf("%s: preflight OK (CRCs, geometry, corpus digest, load)\n",
                snapshot.c_str());
    return 0;
  }

  auto index_or = ObtainIndex(flags, dataset, &weight);
  if (!index_or.ok()) return Fail(index_or.status());

  tind::MemoryBudget memory(
      static_cast<size_t>(flags.GetInt("memory_mb", 0)) << 20);
  tind::serve::ServerOptions options;
  options.port = static_cast<uint16_t>(flags.GetInt("port", 0));
  options.max_inflight = static_cast<size_t>(
      flags.GetInt("max_inflight", static_cast<int64_t>(options.max_inflight)));
  options.degrade_watermark = static_cast<size_t>(flags.GetInt(
      "degrade_watermark", static_cast<int64_t>(options.degrade_watermark)));
  options.default_deadline_ms = static_cast<uint32_t>(
      flags.GetInt("deadline_ms", options.default_deadline_ms));
  options.max_deadline_ms = static_cast<uint32_t>(
      flags.GetInt("max_deadline_ms", options.max_deadline_ms));
  options.io_timeout_ms = static_cast<uint32_t>(
      flags.GetInt("io_timeout_ms", options.io_timeout_ms));
  options.max_connections = static_cast<size_t>(flags.GetInt(
      "max_connections", static_cast<int64_t>(options.max_connections)));
  if (flags.GetInt("memory_mb", 0) > 0) options.memory = &memory;
  options.allow_ingest = flags.GetBool("ingest", false);

  const tind::TindParams params{flags.GetDouble("eps", 3.0),
                                flags.GetInt("delta", 7), &weight};
  tind::serve::TindServer server(**index_or, params, options);
  const Status started = server.Start();
  if (!started.ok()) return Fail(started);

  std::printf("serving on 127.0.0.1:%u (max_inflight=%zu watermark=%zu "
              "deadline=%ums)\n",
              server.port(), options.max_inflight, options.degrade_watermark,
              options.default_deadline_ms);
  std::fflush(stdout);
  const std::string port_file = flags.GetString("port_file", "");
  if (!port_file.empty()) {
    // Write-then-rename so a waiting client never reads a partial file.
    const std::string tmp = port_file + ".tmp";
    std::FILE* f = std::fopen(tmp.c_str(), "w");
    if (f == nullptr) return Fail(Status::IOError("open " + tmp));
    std::fprintf(f, "%u\n", server.port());
    std::fclose(f);
    if (std::rename(tmp.c_str(), port_file.c_str()) != 0) {
      return Fail(Status::IOError("rename " + port_file));
    }
  }

  std::signal(SIGTERM, HandleStopSignal);
  std::signal(SIGINT, HandleStopSignal);
  while (g_stop == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  std::printf("signal received: draining...\n");
  std::fflush(stdout);
  server.Shutdown();

  const auto json = CountersJson(server);
  std::printf("drained. counters: %s\n", json.Dump(0).c_str());
  const std::string metrics_path = flags.GetString("metrics_json", "");
  if (!metrics_path.empty()) {
    std::FILE* f = std::fopen(metrics_path.c_str(), "w");
    if (f == nullptr) return Fail(Status::IOError("open " + metrics_path));
    const std::string text = json.Dump(2);
    std::fwrite(text.data(), 1, text.size(), f);
    std::fputc('\n', f);
    std::fclose(f);
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
  // Which of these a run reads depends on --corpus, --snapshot and
  // --preflight, and some are read only at shutdown, so all are declared
  // before any work starts.
  flags.Declare({"corpus", "attributes", "days", "seed", "snapshot",
                 "preflight", "bloom_bits", "hashes", "slices", "eps",
                 "delta", "index_seed", "no_reverse", "reverse_slices",
                 "memory_mb", "port", "max_inflight", "degrade_watermark",
                 "deadline_ms", "max_deadline_ms", "io_timeout_ms",
                 "max_connections", "ingest", "port_file", "metrics_json"});
  flags.RejectUnread();
  return Run(flags);
}
