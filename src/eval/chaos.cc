#include "eval/chaos.h"

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>
#endif

#include <chrono>
#include <thread>

#include "common/fault_injection.h"
#include "common/memory_budget.h"
#include "snapshot/snapshot.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "obs/metrics.h"
#include "scenario/mutate.h"
#include "scenario/scenario.h"
#include "serve/client.h"
#include "serve/server.h"
#include "serve/wire.h"
#include "temporal/weights.h"
#include "tind/discovery.h"
#include "tind/index.h"
#include "tind/update.h"
#include "wiki/corpus_io.h"
#include "wiki/generator.h"

namespace tind::eval {

namespace {

/// Mirrors selfcheck's corpus scaling: tiny, but with every attribute class
/// represented so discovery finds a non-trivial pair set to compare against.
wiki::GeneratorOptions ScaledGeneratorOptions(const ChaosOptions& opts) {
  wiki::GeneratorOptions gen;
  gen.seed = opts.seed;
  gen.num_days = opts.num_days;
  gen.num_families = std::max<size_t>(2, opts.target_attributes / 14);
  gen.num_noise_attributes =
      std::max<size_t>(8, opts.target_attributes * 45 / 100);
  gen.num_drifter_attributes =
      std::max<size_t>(4, opts.target_attributes * 18 / 100);
  gen.num_catchall_attributes = 2;
  gen.shared_vocabulary = std::max<size_t>(150, opts.target_attributes / 4);
  gen.entities_per_family_pool = 120;
  return gen;
}

/// Collects per-check verdicts and remembers the first failure.
class CheckList {
 public:
  void Record(const std::string& name, bool ok, std::string detail = "") {
    obs::JsonValue check = obs::JsonValue::Object();
    check.Set("name", obs::JsonValue(name));
    check.Set("ok", obs::JsonValue(ok));
    if (!detail.empty()) check.Set("detail", obs::JsonValue(detail));
    checks_.Append(std::move(check));
    if (!ok && first_failure_.empty()) {
      first_failure_ = detail.empty() ? name : name + ": " + detail;
    }
  }

  bool all_ok() const { return first_failure_.empty(); }
  const std::string& first_failure() const { return first_failure_; }
  obs::JsonValue&& TakeJson() { return std::move(checks_); }

 private:
  obs::JsonValue checks_ = obs::JsonValue::Array();
  std::string first_failure_;
};

/// Restores the metrics registry's enabled flag and disarms the fault
/// injector on scope exit, whatever path the check takes out.
class ChaosScopeGuard {
 public:
  ChaosScopeGuard() : previous_(obs::MetricsRegistry::Global().enabled()) {}
  ~ChaosScopeGuard() {
    FaultInjector::Global().Reset();
    obs::MetricsRegistry::Global().set_enabled(previous_);
  }

 private:
  bool previous_;
};

bool FileExists(const std::string& path) {
  return std::ifstream(path).good();
}

#if defined(__unix__) || defined(__APPLE__)
/// SIGTERM latch for the forked chaos server child (stage 7).
volatile std::sig_atomic_t g_serve_child_stop = 0;
#endif

std::string PairsDiff(size_t got, size_t want) {
  return std::to_string(got) + " pairs vs baseline " + std::to_string(want);
}

}  // namespace

Result<ChaosReport> RunChaosCheck(const ChaosOptions& options) {
#if TIND_FAULT_INJECTION_DISABLED
  (void)options;
  return Status::FailedPrecondition(
      "this binary was built with TIND_ENABLE_FAULT_INJECTION=OFF; "
      "chaos checks need the fault points compiled in");
#else
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  FaultInjector& injector = FaultInjector::Global();
  ChaosScopeGuard scope_guard;
  registry.Reset();
  registry.set_enabled(true);
  injector.Reset();

  Stopwatch total;
  CheckList checks;
  const std::string prob = std::to_string(options.fault_probability);
  const std::string tag = std::to_string(options.seed);
  const std::string corpus_path =
      options.work_dir + "/chaos-corpus-" + tag + ".txt";
  const std::string ckpt_path = options.work_dir + "/chaos-ckpt-" + tag;

#if defined(__unix__) || defined(__APPLE__)
  // Scratch files land under work_dir; create it so a fresh --work_dir does
  // not masquerade as an I/O fault.
  if (::mkdir(options.work_dir.c_str(), 0777) != 0 && errno != EEXIST) {
    return Status::IOError("cannot create work_dir " + options.work_dir +
                           ": " + std::strerror(errno));
  }
#endif

  // ---- Stage 0: fault-free baseline -------------------------------------
  // The corpus shape comes from the scenario spec when one is named (the CI
  // chaos matrix runs the bursty planted-cluster spec), else from the
  // target_attributes/num_days defaults.
  wiki::GeneratedDataset generated;
  double query_epsilon = 3.0;
  int64_t query_delta = 7;
  size_t bloom_bits = 1024;
  size_t num_slices = 8;
  std::string corpus_label;
  if (!options.scenario.empty()) {
    auto spec = scenario::ResolveScenario(options.scenario);
    TIND_RETURN_IF_ERROR(spec.status());
    auto result = scenario::MaterializeCorpus(*spec);
    TIND_RETURN_IF_ERROR(result.status());
    generated = std::move(*result);
    query_epsilon = spec->index.epsilon;
    query_delta = spec->index.delta;
    bloom_bits = spec->index.bloom_bits;
    num_slices = spec->index.num_slices;
    corpus_label = spec->name;
  } else {
    auto result =
        wiki::WikiGenerator(ScaledGeneratorOptions(options)).GenerateDataset();
    TIND_RETURN_IF_ERROR(result.status());
    generated = std::move(*result);
  }
  const Dataset& dataset = generated.dataset;
  if (dataset.size() < 8) {
    return Status::FailedPrecondition(
        "chaos corpus too small: " + std::to_string(dataset.size()) +
        " attributes survived generation");
  }
  const ConstantWeight weight(dataset.domain().num_timestamps());
  const TindParams params{query_epsilon, query_delta, &weight};
  TindIndexOptions index_options;
  index_options.bloom_bits = bloom_bits;
  index_options.num_slices = num_slices;
  index_options.delta = params.delta;
  index_options.epsilon = params.epsilon;
  index_options.weight = &weight;
  auto built = TindIndex::Build(dataset, index_options);
  TIND_RETURN_IF_ERROR(built.status());
  const TindIndex& index = **built;

  AllPairsResult baseline;
  {
    // Sequential on purpose: no threads may exist before the fork stage.
    auto result = DiscoverAllTinds(index, params, DiscoveryOptions{});
    TIND_RETURN_IF_ERROR(result.status());
    baseline = std::move(*result);
  }
  checks.Record("baseline_found_pairs", !baseline.pairs.empty(),
                "fault-free discovery found no pairs to compare against");

  // ---- Stage 1: kill/resume (fork + SIGKILL) ----------------------------
#if defined(__unix__) || defined(__APPLE__)
  if (options.run_kill_resume) {
    std::remove(ckpt_path.c_str());
    bool child_killed = false;
    std::string stage_failure;
    for (int attempt = 0; attempt < 8 && !child_killed; ++attempt) {
      const pid_t pid = ::fork();
      if (pid < 0) {
        stage_failure = std::string("fork failed: ") + std::strerror(errno);
        break;
      }
      if (pid == 0) {
        // Child: arm the power-loss fault and run checkpointed discovery.
        // _exit (not exit) so the parent's atexit/streams are untouched.
        const Status armed = injector.Configure(
            "discovery/die=" + prob, options.seed + static_cast<uint64_t>(attempt));
        if (!armed.ok()) ::_exit(3);
        DiscoveryOptions child_opts;
        child_opts.checkpoint_path = ckpt_path;
        child_opts.checkpoint_interval = 4;
        auto child_run = DiscoverAllTinds(index, params, child_opts);
        ::_exit(child_run.ok() ? 0 : 2);
      }
      int wstatus = 0;
      if (::waitpid(pid, &wstatus, 0) != pid) {
        stage_failure = std::string("waitpid failed: ") + std::strerror(errno);
        break;
      }
      if (WIFSIGNALED(wstatus) && WTERMSIG(wstatus) == SIGKILL) {
        // Only count attempts that also left a checkpoint behind: a child
        // killed before its first checkpoint proves nothing about resume.
        if (FileExists(ckpt_path)) {
          child_killed = true;
        }
      } else if (WIFEXITED(wstatus) && WEXITSTATUS(wstatus) == 0) {
        // The die fault never fired for this seed; a successful run deletes
        // its checkpoint. Try the next seed.
        std::remove(ckpt_path.c_str());
      } else {
        stage_failure = "unexpected child status " + std::to_string(wstatus);
        break;
      }
    }
    checks.Record("kill_resume_child_killed_with_checkpoint", child_killed,
                  stage_failure.empty()
                      ? (child_killed ? "" : "no attempt left a checkpoint")
                      : stage_failure);
    if (child_killed) {
      injector.Reset();
      DiscoveryOptions resume_opts;
      resume_opts.checkpoint_path = ckpt_path;
      resume_opts.checkpoint_interval = 4;
      auto resumed = DiscoverAllTinds(index, params, resume_opts);
      checks.Record("kill_resume_resume_ok", resumed.ok(),
                    resumed.ok() ? "" : resumed.status().ToString());
      if (resumed.ok()) {
        checks.Record("kill_resume_pairs_match_baseline",
                      resumed->pairs == baseline.pairs,
                      PairsDiff(resumed->pairs.size(), baseline.pairs.size()));
        checks.Record(
            "kill_resume_restored_queries",
            resumed->resumed_queries > 0,
            "resume ran from scratch despite a checkpoint being present");
        checks.Record("kill_resume_checkpoint_deleted_after_success",
                      !FileExists(ckpt_path));
      }
    }
    std::remove(ckpt_path.c_str());
  }
#endif  // defined(__unix__) || defined(__APPLE__)

  // ---- Stage 2: corpus I/O faults ---------------------------------------
  {
    injector.Reset();
    const Status written =
        wiki::WriteDatasetFile(dataset, &generated.ground_truth, corpus_path);
    TIND_RETURN_IF_ERROR(written);

    // Injected atomic-write failure must not clobber the existing file.
    TIND_RETURN_IF_ERROR(injector.Configure("corpus_io/write=1", options.seed));
    const Status chaos_write =
        wiki::WriteDatasetFile(dataset, &generated.ground_truth, corpus_path);
    checks.Record("corpus_write_fault_surfaces_as_error", !chaos_write.ok(),
                  chaos_write.ok() ? "injected write fault was swallowed" : "");
    injector.Reset();
    auto clean = wiki::ReadDatasetFile(corpus_path);
    checks.Record(
        "corpus_survives_failed_write",
        clean.ok() && clean->dataset.size() == dataset.size(),
        clean.ok() ? "" : clean.status().ToString());

    // Strict read: any injected record fault must abort with an error.
    TIND_RETURN_IF_ERROR(
        injector.Configure("corpus_io/read=" + prob, options.seed));
    auto strict = wiki::ReadDatasetFile(corpus_path);
    const uint64_t strict_fired = injector.fired("corpus_io/read");
    checks.Record("corpus_strict_read_faults_surface",
                  strict_fired == 0 ? strict.ok() : !strict.ok(),
                  "fired=" + std::to_string(strict_fired) + " status=" +
                      strict.status().ToString());

    // Lenient read: the same faults must be skipped and counted, not fatal.
    TIND_RETURN_IF_ERROR(
        injector.Configure("corpus_io/read=" + prob, options.seed));
    wiki::ReadOptions lenient;
    lenient.strict = false;
    auto salvaged = wiki::ReadDatasetFile(corpus_path, lenient);
    const uint64_t lenient_fired = injector.fired("corpus_io/read");
    checks.Record("corpus_lenient_read_survives_faults", salvaged.ok(),
                  salvaged.ok() ? "" : salvaged.status().ToString());
    if (salvaged.ok()) {
      checks.Record(
          "corpus_lenient_skip_count_matches_faults",
          salvaged->skipped_records == lenient_fired,
          "skipped " + std::to_string(salvaged->skipped_records) +
              " records, fired " + std::to_string(lenient_fired) + " faults");
    }
    injector.Reset();

    // Truncation (no injector needed): lenient salvages, strict refuses.
    std::string full;
    {
      std::ifstream in(corpus_path, std::ios::binary);
      std::ostringstream buf;
      buf << in.rdbuf();
      full = buf.str();
    }
    const std::string truncated_path = corpus_path + ".truncated";
    {
      std::ofstream out(truncated_path, std::ios::binary | std::ios::trunc);
      out.write(full.data(),
                static_cast<std::streamsize>(full.size() * 6 / 10));
    }
    auto strict_trunc = wiki::ReadDatasetFile(truncated_path);
    checks.Record("corpus_strict_rejects_truncation", !strict_trunc.ok());
    auto lenient_trunc = wiki::ReadDatasetFile(truncated_path, lenient);
    checks.Record("corpus_lenient_salvages_truncation",
                  lenient_trunc.ok() && lenient_trunc->truncated,
                  lenient_trunc.ok() ? "truncated flag not set"
                                     : lenient_trunc.status().ToString());
    std::remove(truncated_path.c_str());
  }

  // ---- Stage 3: thread-pool task faults ---------------------------------
  {
    ThreadPool pool(4);
    TIND_RETURN_IF_ERROR(
        injector.Configure("thread_pool/task=" + prob, options.seed));
    DiscoveryOptions pool_opts;
    pool_opts.pool = &pool;
    auto chaotic = DiscoverAllTinds(index, params, pool_opts);
    const uint64_t task_fired = injector.fired("thread_pool/task");
    if (task_fired > 0) {
      checks.Record("thread_pool_fault_degrades_to_internal",
                    !chaotic.ok() && chaotic.status().IsInternal(),
                    chaotic.status().ToString());
    } else {
      checks.Record("thread_pool_no_fault_matches_baseline",
                    chaotic.ok() && chaotic->pairs == baseline.pairs);
    }
    // Slow tasks must never change the result, only the timing.
    TIND_RETURN_IF_ERROR(
        injector.Configure("thread_pool/slow_task=0.2", options.seed));
    auto slowed = DiscoverAllTinds(index, params, pool_opts);
    checks.Record("thread_pool_slow_tasks_keep_result",
                  slowed.ok() && slowed->pairs == baseline.pairs,
                  slowed.ok()
                      ? PairsDiff(slowed->pairs.size(), baseline.pairs.size())
                      : slowed.status().ToString());
    injector.Reset();
  }

  // ---- Stage 4: memory-budget exhaustion --------------------------------
  {
    MemoryBudget tiny(1024);
    TindIndexOptions capped = index_options;
    capped.memory = &tiny;
    auto capped_build = TindIndex::Build(dataset, capped);
    checks.Record("index_build_over_budget_is_oom",
                  !capped_build.ok() && capped_build.status().IsOutOfMemory(),
                  capped_build.ok() ? "build succeeded under a 1KB cap"
                                    : capped_build.status().ToString());
    checks.Record("index_build_budget_released_on_failure", tiny.used() == 0,
                  std::to_string(tiny.used()) + " bytes leaked");

    TIND_RETURN_IF_ERROR(injector.Configure("index/alloc=1", options.seed));
    auto alloc_fault = TindIndex::Build(dataset, index_options);
    checks.Record("index_alloc_fault_is_oom",
                  !alloc_fault.ok() && alloc_fault.status().IsOutOfMemory(),
                  alloc_fault.ok() ? "injected alloc fault was swallowed"
                                   : alloc_fault.status().ToString());
    injector.Reset();

    const size_t result_bytes = baseline.pairs.size() * sizeof(AttributeId);
    if (result_bytes >= 8) {
      MemoryBudget half(std::max<size_t>(1, result_bytes / 2));
      std::remove(ckpt_path.c_str());
      DiscoveryOptions capped_opts;
      capped_opts.memory = &half;
      capped_opts.checkpoint_path = ckpt_path;
      capped_opts.checkpoint_interval = 4;
      auto capped_run = DiscoverAllTinds(index, params, capped_opts);
      checks.Record("discovery_over_budget_is_oom",
                    !capped_run.ok() && capped_run.status().IsOutOfMemory(),
                    capped_run.ok() ? "discovery fit in half its result size"
                                    : capped_run.status().ToString());
      checks.Record("discovery_budget_released_on_failure", half.used() == 0,
                    std::to_string(half.used()) + " bytes leaked");
      checks.Record("discovery_oom_leaves_checkpoint", FileExists(ckpt_path));
      std::remove(ckpt_path.c_str());
    }
  }

  // ---- Stage 5: preempt + resume ----------------------------------------
  {
    std::remove(ckpt_path.c_str());
    TIND_RETURN_IF_ERROR(
        injector.Configure("discovery/preempt=" + prob, options.seed));
    DiscoveryOptions preempt_opts;
    preempt_opts.checkpoint_path = ckpt_path;
    preempt_opts.checkpoint_interval = 4;
    auto preempted = DiscoverAllTinds(index, params, preempt_opts);
    const uint64_t preempt_fired = injector.fired("discovery/preempt");
    injector.Reset();
    if (preempt_fired > 0) {
      checks.Record("preempt_fault_is_cancelled",
                    !preempted.ok() && preempted.status().IsCancelled(),
                    preempted.status().ToString());
      auto resumed = DiscoverAllTinds(index, params, preempt_opts);
      checks.Record(
          "preempt_resume_matches_baseline",
          resumed.ok() && resumed->pairs == baseline.pairs,
          resumed.ok() ? PairsDiff(resumed->pairs.size(), baseline.pairs.size())
                       : resumed.status().ToString());
    } else {
      checks.Record("preempt_no_fault_matches_baseline",
                    preempted.ok() && preempted->pairs == baseline.pairs);
    }
    std::remove(ckpt_path.c_str());
  }
  std::remove(corpus_path.c_str());

  // ---- Stage 6: snapshot persistence ------------------------------------
  {
    const std::string snap_path =
        options.work_dir + "/chaos-index-" + tag + ".tsnap";
    std::remove(snap_path.c_str());
    const Status saved = index.SaveSnapshot(snap_path);
    checks.Record("snapshot_save_succeeds", saved.ok(), saved.ToString());

    // An injected write fault must fail cleanly and leave the published
    // artifact untouched (the atomic writer never exposes a partial file).
    TIND_RETURN_IF_ERROR(injector.Configure("snapshot/write=1", options.seed));
    const Status faulted = index.SaveSnapshot(snap_path);
    injector.Reset();
    checks.Record("snapshot_write_fault_is_io_error",
                  !faulted.ok() && faulted.IsIOError(), faulted.ToString());
    checks.Record("snapshot_survives_faulted_rewrite",
                  snapshot::VerifySnapshot(snap_path).ok());

    SnapshotLoadOptions load_options;
    load_options.weight = &weight;
    auto loaded = TindIndex::LoadSnapshot(dataset, snap_path, load_options);
    checks.Record("snapshot_load_succeeds", loaded.ok(),
                  loaded.status().ToString());
    if (loaded.ok()) {
      auto replay = DiscoverAllTinds(**loaded, params, DiscoveryOptions{});
      checks.Record(
          "snapshot_load_matches_baseline",
          replay.ok() && replay->pairs == baseline.pairs,
          replay.ok() ? PairsDiff(replay->pairs.size(), baseline.pairs.size())
                      : replay.status().ToString());
    }

    // Corrupt artifacts must come back as typed errors, never crashes.
    std::string snap_bytes;
    {
      std::ifstream in(snap_path, std::ios::binary);
      std::ostringstream buf;
      buf << in.rdbuf();
      snap_bytes = buf.str();
    }
    const std::string bad_path = snap_path + ".bad";
    const auto load_is_typed = [&]() {
      auto bad = TindIndex::LoadSnapshot(dataset, bad_path, load_options);
      return !bad.ok() &&
             (bad.status().IsIOError() || bad.status().IsInvalidArgument());
    };
    {
      std::ofstream out(bad_path, std::ios::binary | std::ios::trunc);
      out.write(snap_bytes.data(),
                static_cast<std::streamsize>(snap_bytes.size() / 2));
    }
    checks.Record("snapshot_truncation_is_typed_error", load_is_typed());
    {
      std::string flipped = snap_bytes;
      flipped[flipped.size() / 2] ^= 0x20;
      std::ofstream out(bad_path, std::ios::binary | std::ios::trunc);
      out.write(flipped.data(), static_cast<std::streamsize>(flipped.size()));
    }
    checks.Record("snapshot_bit_flip_is_typed_error", load_is_typed());
    std::remove(bad_path.c_str());
    std::remove(snap_path.c_str());
  }

  // ---- Stage 7: serving chaos -------------------------------------------
  // A forked child serves the prebuilt index (copy-on-write) over TCP; the
  // parent checks what only a separate process can show: a SIGKILL with a
  // respawn the retrying client must converge through, a SIGTERM that must
  // drain and exit 0, and a SIGKILL between a stream's partial and final
  // frames. serve_test pins the in-process contracts (answers, malformed
  // frames, slow loris, stream deadlines).
#if defined(__unix__) || defined(__APPLE__)
  if (options.run_kill_resume) {
    const std::string port_path = options.work_dir + "/chaos-port-" + tag;
    std::remove(port_path.c_str());
    injector.Reset();

    serve::ServerOptions server_options;
    server_options.default_deadline_ms = 1000;

    const auto spawn_server = [&](uint16_t fixed_port,
                                  const serve::ServerOptions& base_options,
                                  bool paced = false) -> pid_t {
      const pid_t pid = ::fork();
      if (pid != 0) return pid;
      // Child: serve until SIGTERM, then drain and exit 0. _exit on every
      // path so the parent's streams/atexit state stays untouched.
      FaultInjector::Global().Reset();
      if (paced &&
          !FaultInjector::Global()
               .Configure("serve/group_pause=1", options.seed)
               .ok()) {
        ::_exit(5);
      }
      serve::ServerOptions child_options = base_options;
      child_options.port = fixed_port;
      serve::TindServer server(index, params, child_options);
      if (!server.Start().ok()) ::_exit(3);
      if (fixed_port == 0) {
        // Publish the ephemeral port atomically (write + rename).
        const std::string tmp = port_path + ".tmp";
        {
          std::ofstream out(tmp, std::ios::trunc);
          out << server.port() << "\n";
        }
        if (std::rename(tmp.c_str(), port_path.c_str()) != 0) ::_exit(4);
      }
      g_serve_child_stop = 0;
      std::signal(SIGTERM, [](int) { g_serve_child_stop = 1; });
      while (g_serve_child_stop == 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
      }
      server.Shutdown();
      ::_exit(0);
    };

    // The port a child spawned on port 0 publishes, or 0 after 10 s.
    const auto published_port = [&](pid_t pid) -> uint16_t {
      if (pid <= 0) return 0;
      // Wall-clock deadline, not an iteration count: under load a counted
      // poll can exhaust its budget long before the advertised timeout.
      const auto port_deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(10);
      while (std::chrono::steady_clock::now() < port_deadline) {
        std::ifstream in(port_path);
        int parsed = 0;
        if (in >> parsed && parsed > 0) return static_cast<uint16_t>(parsed);
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }
      return 0;
    };

    pid_t server_pid = spawn_server(0, server_options);
    const uint16_t port = published_port(server_pid);
    checks.Record("serve_child_started", port != 0,
                  port != 0 ? "" : "no port published within 10s");
    if (port != 0) {
      serve::ClientOptions client_options;
      client_options.port = port;
      client_options.epsilon = params.epsilon;
      client_options.delta = params.delta;
      client_options.max_attempts = 8;
      client_options.backoff.initial_us = 2000;
      client_options.backoff.max_us = 200000;
      serve::TindClient client(client_options);
      Status up = Status::Internal("never pinged");
      const auto ping_deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(5);
      while (true) {
        up = client.Ping();
        if (up.ok() || std::chrono::steady_clock::now() >= ping_deadline) {
          break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
      }
      checks.Record("serve_ping_ok", up.ok(), up.ToString());

      // D: SIGKILL mid-stream, respawn on the same port; the client's
      // retry/backoff + reconnect must converge to the correct answer.
      ::kill(server_pid, SIGKILL);
      int wstatus = 0;
      ::waitpid(server_pid, &wstatus, 0);
      checks.Record("serve_child_sigkilled",
                    WIFSIGNALED(wstatus) && WTERMSIG(wstatus) == SIGKILL);
      server_pid = spawn_server(port, server_options);
      const AttributeId probe = static_cast<AttributeId>(dataset.size() / 2);
      auto recovered = client.Search(probe);
      checks.Record(
          "serve_client_recovers_after_kill",
          recovered.ok() &&
              recovered->ids == index.Search(dataset.attribute(probe), params),
          recovered.ok() ? "" : recovered.status().ToString());
      checks.Record("serve_recovery_used_reconnect",
                    client.counters().reconnects >= 2,
                    std::to_string(client.counters().reconnects) +
                        " reconnects recorded");

      // E: SIGTERM must drain and exit 0 (the clean-shutdown contract).
      if (server_pid > 0) {
        ::kill(server_pid, SIGTERM);
        int term_status = 0;
        ::waitpid(server_pid, &term_status, 0);
        checks.Record("serve_sigterm_drains_exit_zero",
                      WIFEXITED(term_status) && WEXITSTATUS(term_status) == 0,
                      "status " + std::to_string(term_status));
      } else {
        checks.Record("serve_sigterm_drains_exit_zero", false,
                      "respawn fork failed");
      }

      // F: a *paced* child — its armed serve/group_pause fault point holds
      // every stream between the partial frame and the final one, so the
      // mid-stream kill lands there deterministically instead of racily.
      std::remove(port_path.c_str());
      serve::ServerOptions paced_options = server_options;
      paced_options.default_deadline_ms = 10000;
      pid_t paced_pid = spawn_server(0, paced_options, /*paced=*/true);
      const uint16_t paced_port = published_port(paced_pid);
      checks.Record("serve_paced_child_started", paced_port != 0,
                    paced_port != 0 ? "" : "no port published within 10s");
      if (paced_port != 0) {
        const AttributeId stream_attr =
            static_cast<AttributeId>(dataset.size() / 3);
        const std::vector<AttributeId> stream_exact =
            index.Search(dataset.attribute(stream_attr), params);

        // SIGKILL mid-stream — after the partial frame but before the
        // final one. The partial already received must be a sound superset
        // the caller can fall back to; the severed stream surfaces as a
        // transport error, never a hang or a fabricated final frame.
        auto mid = serve::ConnectTcp("127.0.0.1", paced_port, 1000);
        if (mid.ok()) {
          serve::SearchStreamRequest request;
          request.base.attribute = stream_attr;
          request.base.epsilon = params.epsilon;
          request.base.delta = static_cast<int64_t>(params.delta);
          const Status sent = serve::SendAll(
              *mid,
              serve::EncodeFrame(serve::MessageType::kSearchStream, 80,
                                 serve::EncodeSearchStreamRequest(request)),
              1000);
          auto partial_frame = serve::RecvFrame(*mid, 5000, 5000);
          bool partial_sound = false;
          if (sent.ok() && partial_frame.ok() &&
              partial_frame->header.type ==
                  serve::MessageType::kSearchPartial) {
            auto partial =
                serve::DecodeSearchPartial(partial_frame->payload);
            if (partial.ok()) {
              std::sort(partial->ids.begin(), partial->ids.end());
              partial_sound = std::includes(
                  partial->ids.begin(), partial->ids.end(),
                  stream_exact.begin(), stream_exact.end());
            }
          }
          checks.Record("serve_stream_partial_before_kill", partial_sound,
                        partial_frame.ok()
                            ? ""
                            : partial_frame.status().ToString());
          ::kill(paced_pid, SIGKILL);
          int paced_status = 0;
          ::waitpid(paced_pid, &paced_status, 0);
          paced_pid = -1;
          auto severed = serve::RecvFrame(*mid, 5000, 5000);
          checks.Record("serve_stream_kill_surfaces_transport_error",
                        !severed.ok(),
                        severed.ok() ? "got a frame from a dead server" : "");
          serve::CloseFd(*mid);
        } else {
          checks.Record("serve_stream_partial_before_kill", false,
                        mid.status().ToString());
          checks.Record("serve_stream_kill_surfaces_transport_error", false,
                        "mid-stream connect failed");
        }
      }
      if (paced_pid > 0) {
        ::kill(paced_pid, SIGKILL);
        int paced_status = 0;
        ::waitpid(paced_pid, &paced_status, 0);
      }
    } else if (server_pid > 0) {
      ::kill(server_pid, SIGKILL);
      int wstatus = 0;
      ::waitpid(server_pid, &wstatus, 0);
    }
    std::remove(port_path.c_str());
  }
#endif  // defined(__unix__) || defined(__APPLE__)

  // ---- Stage 8: live-ingest chaos ---------------------------------------
  // A seeded revision delta goes through IndexUpdater::ApplyDelta with the
  // update fault points armed: every injected failure must surface typed
  // with the base index still answering the pre-delta baseline exactly
  // (the torn-state invariant); the clean apply must reproduce a fresh
  // rebuild's discovery; and CompactSnapshot under an injected write fault
  // must leave the previously published artifact verifiable.
  {
    injector.Reset();
    scenario::MutationSpec mutation;
    mutation.num_ops = 16;
    const RevisionDelta delta =
        scenario::MutateCorpus(dataset, options.seed * 31 + 7, mutation);
    auto oracle = ApplyDeltaToDataset(dataset, delta);
    checks.Record("ingest_delta_applies_to_dataset", oracle.ok(),
                  oracle.status().ToString());
    if (oracle.ok()) {
      // A: armed faults fail typed; the base index is never torn.
      TIND_RETURN_IF_ERROR(
          injector.Configure("update/alloc=1", options.seed));
      auto alloc_faulted = IndexUpdater::ApplyDelta(index, delta);
      injector.Reset();
      checks.Record("ingest_alloc_fault_is_out_of_memory",
                    !alloc_faulted.ok() &&
                        alloc_faulted.status().IsOutOfMemory(),
                    alloc_faulted.status().ToString());
      TIND_RETURN_IF_ERROR(
          injector.Configure("update/patch=1", options.seed));
      auto patch_faulted = IndexUpdater::ApplyDelta(index, delta);
      injector.Reset();
      checks.Record("ingest_patch_fault_is_internal",
                    !patch_faulted.ok() &&
                        patch_faulted.status().IsInternal(),
                    patch_faulted.status().ToString());
      auto after_faults = DiscoverAllTinds(index, params, DiscoveryOptions{});
      checks.Record(
          "ingest_faulted_apply_never_tears_base",
          after_faults.ok() && after_faults->pairs == baseline.pairs,
          after_faults.ok()
              ? PairsDiff(after_faults->pairs.size(), baseline.pairs.size())
              : after_faults.status().ToString());

      // B: the clean apply reproduces a fresh rebuild's discovery.
      auto updated = IndexUpdater::ApplyDelta(index, delta);
      checks.Record("ingest_clean_apply_succeeds", updated.ok(),
                    updated.status().ToString());
      auto rebuilt = TindIndex::Build(*oracle->dataset, index_options);
      if (updated.ok() && rebuilt.ok()) {
        auto post = DiscoverAllTinds(**rebuilt, params, DiscoveryOptions{});
        auto inc = DiscoverAllTinds(*updated->index, params,
                                    DiscoveryOptions{});
        checks.Record(
            "ingest_incremental_matches_rebuild",
            post.ok() && inc.ok() && inc->pairs == post->pairs,
            post.ok() && inc.ok()
                ? PairsDiff(inc->pairs.size(), post->pairs.size())
                : (post.ok() ? inc : post).status().ToString());
      }

      // C: a faulted compact re-publication leaves the old artifact intact.
      if (updated.ok()) {
        const std::string base_snap =
            options.work_dir + "/chaos-ingest-base-" + tag + ".tsnap";
        const std::string compact_snap =
            options.work_dir + "/chaos-ingest-next-" + tag + ".tsnap";
        std::remove(base_snap.c_str());
        std::remove(compact_snap.c_str());
        const Status base_saved = index.SaveSnapshot(base_snap);
        checks.Record("ingest_base_snapshot_saves", base_saved.ok(),
                      base_saved.ToString());
        TIND_RETURN_IF_ERROR(
            injector.Configure("snapshot/write=1", options.seed));
        const Status compact_faulted = updated->index->CompactSnapshot(
            base_snap, compact_snap, updated->stats);
        injector.Reset();
        checks.Record("ingest_compact_fault_is_io_error",
                      !compact_faulted.ok() && compact_faulted.IsIOError(),
                      compact_faulted.ToString());
        checks.Record("ingest_old_artifact_survives_compact_fault",
                      snapshot::VerifySnapshot(base_snap).ok());
        const Status compacted = updated->index->CompactSnapshot(
            base_snap, compact_snap, updated->stats);
        checks.Record("ingest_compact_publishes", compacted.ok(),
                      compacted.ToString());
        checks.Record("ingest_compact_artifact_verifies",
                      snapshot::VerifySnapshot(compact_snap).ok());
        std::remove(base_snap.c_str());
        std::remove(compact_snap.c_str());
      }
    }
  }

  // ---- Metric assertions -------------------------------------------------
#if !TIND_OBS_DISABLED
  checks.Record("metric_faults_injected_counted",
                registry.GetCounter("fault/injected_total")->value() > 0,
                "no fault firing reached the obs registry");
  checks.Record(
      "metric_checkpoints_written_counted",
      registry.GetCounter("discovery/checkpoints_written")->value() > 0);
  checks.Record("metric_budget_rejections_counted",
                registry.GetCounter("memory/budget_rejections")->value() > 0);
#endif  // !TIND_OBS_DISABLED

  ChaosReport report;
  report.ok = checks.all_ok();
  report.failure = checks.first_failure();
  // Configure/Reset clear the injector's own tallies between stages; the
  // registry counter spans the whole run.
#if !TIND_OBS_DISABLED
  report.faults_injected =
      registry.GetCounter("fault/injected_total")->value();
#endif

  obs::JsonValue root = obs::JsonValue::Object();
  root.Set("ok", obs::JsonValue(report.ok));
  obs::JsonValue setup = obs::JsonValue::Object();
  setup.Set("attributes",
            obs::JsonValue(static_cast<uint64_t>(dataset.size())));
  setup.Set("baseline_pairs",
            obs::JsonValue(static_cast<uint64_t>(baseline.pairs.size())));
  setup.Set("seed", obs::JsonValue(options.seed));
  setup.Set("fault_probability", obs::JsonValue(options.fault_probability));
  if (!corpus_label.empty()) {
    setup.Set("scenario", obs::JsonValue(corpus_label));
  }
  root.Set("setup", std::move(setup));
  root.Set("checks", checks.TakeJson());
  root.Set("metrics", registry.ToJson());
  report.json = root.Dump(2);

  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "chaos %s: seed %llu, %zu baseline pairs, %.2fs",
                report.ok ? "OK" : "FAILED",
                static_cast<unsigned long long>(options.seed),
                baseline.pairs.size(), total.ElapsedSeconds());
  report.summary = buf;
  return report;
#endif  // TIND_FAULT_INJECTION_DISABLED
}

}  // namespace tind::eval
