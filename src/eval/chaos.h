#ifndef TIND_EVAL_CHAOS_H_
#define TIND_EVAL_CHAOS_H_

/// \file chaos.h
/// Chaos self-check: runs the pipeline end to end with the seeded fault
/// injector armed and asserts that every injected fault surfaces as a
/// non-OK Status (or a skipped-record count in lenient corpus reads) —
/// never a crash, hang, or silently wrong result. Stages:
///
///  1. fault-free baseline discovery (the ground-truth pair set),
///  2. kill/resume: a forked child runs checkpointed discovery and is
///     SIGKILL'd mid-run by the "discovery/die" fault; the parent resumes
///     from the surviving checkpoint and must reproduce the baseline,
///  3. corpus I/O faults in strict (must error) and lenient (must skip and
///     count) modes, plus an injected atomic-write failure,
///  4. thread-pool task faults during parallel discovery (must degrade to
///     Internal),
///  5. memory-budget exhaustion in index build and discovery (must degrade
///     to OutOfMemory, with the budget fully released afterwards),
///  6. preempt/resume: an injected cancellation mid-discovery, then a
///     fault-free resume that must reproduce the baseline,
///  7. snapshot persistence: an injected snapshot-write fault must fail
///     cleanly with the previously published artifact intact, a clean
///     mmap load must reproduce the baseline discovery exactly, and
///     truncated or bit-flipped snapshots must be rejected with typed
///     errors,
///  8. serving chaos (gated on run_kill_resume, like stage 2 — it forks):
///     a child process serves the index over TCP and the parent checks what
///     needs a separate process — after a SIGKILL and a respawn on the same
///     port, the client's retry/backoff + reconnect must converge to the
///     correct answer; SIGTERM must drain in-flight work and exit 0; and a
///     SIGKILL between a stream's partial and final frames must leave the
///     partial sound and surface as a transport error (serve_test pins the
///     in-process serving contracts),
///  9. live-ingest chaos: a seeded revision delta is pushed through
///     IndexUpdater::ApplyDelta with the "update/alloc" and "update/patch"
///     fault points armed — each injected failure must surface as a typed
///     error while the base index keeps answering the pre-delta baseline
///     discovery exactly (the torn-state invariant: a failed apply leaves
///     no partial patch behind); the clean apply must then reproduce a
///     fresh rebuild's discovery bit-for-bit; and CompactSnapshot under an
///     injected "snapshot/write" fault must leave the previously published
///     artifact verifiable, with the retried compaction publishing cleanly.
///
/// Requires a binary built with TIND_ENABLE_FAULT_INJECTION=ON; reports
/// FailedPrecondition otherwise.

#include <cstdint>
#include <string>

#include "common/status.h"

namespace tind::eval {

struct ChaosOptions {
  /// Corpus scale (small: every stage reruns discovery several times).
  size_t target_attributes = 120;
  int64_t num_days = 400;
  /// Seed for both the corpus and the fault injector. Every firing decision
  /// is a pure function of this seed, so a failing run reproduces exactly.
  uint64_t seed = 1;
  /// Per-arrival firing probability used for the per-record/per-task points.
  double fault_probability = 0.05;
  /// Scratch directory for the corpus file and discovery checkpoints.
  std::string work_dir = ".";
  /// Run the fork+SIGKILL stage. Must be disabled in multi-threaded hosts
  /// (e.g. test binaries that already spun up pools): the stage forks.
  bool run_kill_resume = true;
  /// Optional scenario shape: a builtin scenario name or spec-file path
  /// (scenario::ResolveScenario). When non-empty, the stage-0 corpus, the
  /// index geometry, and the query (ε, δ) come from the spec instead of the
  /// target_attributes/num_days defaults, so every fault stage exercises a
  /// non-default corpus shape (CI runs the bursty planted-cluster spec).
  /// target_attributes/num_days are ignored; `seed` still drives the
  /// injector (the corpus uses the spec's own seed).
  std::string scenario;
};

struct ChaosReport {
  bool ok = false;
  std::string failure;  ///< First failed check; empty when ok.
  uint64_t faults_injected = 0;
  std::string json;     ///< {"ok", "checks", "faults", "metrics"}.
  std::string summary;  ///< One-line human summary.
};

/// Runs the chaos check. Arms and disarms the global FaultInjector and
/// metrics registry around each stage (both are restored on return).
/// Returns an error Status only for setup failures; injected-fault
/// mishandling comes back as ok=false with the failing check named.
Result<ChaosReport> RunChaosCheck(const ChaosOptions& options);

}  // namespace tind::eval

#endif  // TIND_EVAL_CHAOS_H_
