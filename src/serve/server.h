#ifndef TIND_SERVE_SERVER_H_
#define TIND_SERVE_SERVER_H_

/// \file server.h
/// TindServer: a long-lived, overload-resilient query service over a built
/// (or mmap-loaded) TindIndex. One listener thread accepts loopback TCP
/// connections; one reader thread per connection parses wire.h frames; a
/// batcher thread drains the bounded admission queue by natural group
/// commit. An idle batcher dispatches a request at once; whatever queues
/// while a group runs forms the next group, up to the cursor's group size,
/// so groups grow with load and no timer holds a ready request back. The
/// batcher steps every request of one (direction, ε, δ) — searches,
/// discovery windows and streams alike — through one SearchCursor
/// (tind/progressive.h) in the default stage order, whose slice cost rule
/// decides each member's slices after its recheck. Each admitted request's
/// cancellation token carries its deadline, so the funnel's own polls stop
/// a request whose budget elapses mid-funnel.
///
/// Overload ladder (in admission order):
///  1. accept + enqueue (normal operation);
///  2. queue depth at dispatch >= degrade_watermark → requests that opted
///     in (`allow_degraded`) stop after the funnel's second stage (the
///     exact recheck) and get that sound superset with the degraded flag
///     set (the slices and validation are skipped);
///  3. queue full, memory budget exhausted, or draining → the request is
///     shed immediately with a typed error (ResourceExhausted for queue /
///     drain, OutOfMemory for the budget) — never silently dropped, never
///     queued past the bound.
///
/// A deadline that fires mid-funnel answers a consenting request with its
/// best completed stage's superset (degraded), whatever the request kind,
/// provided every one of its queries ran the probe; any other cancelled
/// request gets DeadlineExceeded.
///
/// Shutdown() drains: new requests are rejected, in-flight ones finish
/// (bounded by their deadlines), then every thread is joined. Safe to call
/// from a signal-watcher thread.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/cancellation.h"
#include "common/memory_budget.h"
#include "common/status.h"
#include "serve/wire.h"
#include "temporal/dataset.h"
#include "tind/index.h"
#include "tind/params.h"
#include "tind/update.h"

namespace tind::obs {
class Counter;
class Histogram;
}  // namespace tind::obs

namespace tind::serve {

struct ServerOptions {
  uint16_t port = 0;  ///< 0 binds an ephemeral port (see TindServer::port()).
  /// Admission bound: a request that finds this many requests queued (not
  /// counting the group executing) is shed with ResourceExhausted.
  size_t max_inflight = 256;
  /// Queue depth at dispatch time at or above which consenting requests are
  /// answered in degraded mode: the superset left after the exact recheck.
  /// Set >= max_inflight to never degrade, 0 to always degrade consenting
  /// requests.
  size_t degrade_watermark = 192;
  uint32_t default_deadline_ms = 200;  ///< Applied when a request sends 0.
  uint32_t max_deadline_ms = 5000;     ///< Clamp on client-supplied budgets.
  /// Slow-loris guard: a frame that started must complete, and a response
  /// write must drain, within this budget or the connection is dropped.
  uint32_t io_timeout_ms = 2000;
  size_t max_connections = 64;
  /// Optional admission budget (not owned). Each admitted request reserves
  /// its worst-case response bytes; reservation failure sheds the request
  /// with OutOfMemory.
  MemoryBudget* memory = nullptr;
  /// Live ingest: when false (the default), kApplyDelta frames are rejected
  /// with FailedPrecondition before their payload is decoded. Enable only for servers that own their index
  /// lifetime (tind_serve --ingest).
  bool allow_ingest = false;
};

class TindServer {
 public:
  /// `index` and `params.weight` must outlive the server. `params` supplies
  /// the weight function; epsilon/delta come from each request.
  TindServer(const TindIndex& index, const TindParams& params,
             const ServerOptions& options);
  ~TindServer();

  TindServer(const TindServer&) = delete;
  TindServer& operator=(const TindServer&) = delete;

  /// Binds, spawns the service threads, and returns. IOError when the port
  /// cannot be bound.
  Status Start();

  /// The bound port (valid after a successful Start()).
  uint16_t port() const { return port_; }

  /// Drain-then-stop: rejects new work, completes in-flight requests
  /// (bounded by their deadlines), joins all threads. Idempotent; safe from
  /// a signal-watcher thread. The destructor calls it too.
  void Shutdown();

  /// Monotonic service totals (exact, independent of the obs registry).
  struct Counters {
    uint64_t connections = 0;         ///< Accepted connections.
    uint64_t connections_rejected = 0;  ///< Over max_connections.
    uint64_t accepted = 0;            ///< Requests admitted to the queue.
    uint64_t completed = 0;           ///< Answered with a result.
    uint64_t degraded = 0;            ///< Answered in superset mode.
    uint64_t shed = 0;                ///< Typed overload rejections.
    uint64_t deadline_exceeded = 0;   ///< Cancelled or expired in queue.
    uint64_t protocol_errors = 0;     ///< Malformed frames / payloads.
    uint64_t slow_loris_drops = 0;    ///< Connections cut mid-frame.
    uint64_t deltas_applied = 0;      ///< Successful live-ingest epoch swaps.
  };
  Counters counters() const;

  /// Applies a revision delta to the serving index and atomically swaps the
  /// epoch (clone-and-patch RCU: queries in flight keep answering against
  /// the epoch they snapshotted; new batches see the new one). Serialized —
  /// concurrent callers apply one at a time against the latest epoch. On
  /// error nothing is swapped and the old epoch keeps serving: there is no
  /// torn state. Returns the new epoch sequence plus the patch stats.
  /// FailedPrecondition unless `ServerOptions::allow_ingest` is set.
  struct IngestResult {
    uint64_t sequence = 0;
    UpdateStats stats;
  };
  Result<IngestResult> ApplyDelta(const RevisionDelta& delta);

  /// The epoch sequence currently serving (0 = the index passed at
  /// construction, incremented per applied delta).
  uint64_t epoch_sequence() const;

  /// p50/p99 of accepted-request latency in ms (admission → response), over
  /// this server's requests only.
  double LatencyPercentileMs(double p) const;

 private:
  struct Connection;
  struct PendingRequest;

  /// One immutable serving view. The base epoch (sequence 0) borrows the
  /// index passed at construction; every ingested delta produces a fresh
  /// epoch owning its dataset + index. Batches snapshot one epoch pointer
  /// and answer the whole window against it, so a mid-batch swap can never
  /// mix pre- and post-delta answers.
  struct IndexEpoch {
    std::shared_ptr<const Dataset> owned_dataset;
    std::shared_ptr<const TindIndex> owned_index;
    const TindIndex* index = nullptr;  ///< Borrowed base or owned_index.get().
    uint64_t sequence = 0;
  };
  std::shared_ptr<const IndexEpoch> CurrentEpoch() const;

  void AcceptLoop();
  void ReaderLoop(std::shared_ptr<Connection> conn);
  void BatcherLoop();

  void DispatchFrame(const std::shared_ptr<Connection>& conn,
                     const Frame& frame);
  /// Admission control; responds immediately on rejection.
  void AdmitRequest(const std::shared_ptr<Connection>& conn,
                    const Frame& frame);
  void ProcessBatch(std::vector<PendingRequest>&& batch, size_t depth_at_pop);
  /// Answers requests sharing (direction, ε, δ) through one SearchCursor:
  /// probe → a kSearchPartial frame per stream → recheck → degraded-window
  /// abandonment → remaining stages → one final frame per request.
  void RunGroup(const std::vector<PendingRequest*>& requests,
                const TindIndex& index, bool degrade_window);
  /// Counts a malformed frame or payload in counters() and the registry.
  void CountProtocolError();
  void RespondError(PendingRequest& request, const Status& status);
  void SendToConnection(const std::shared_ptr<Connection>& conn,
                        MessageType type, uint64_t request_id,
                        const std::string& payload);
  void FinishRequest(PendingRequest& request);

  const TindIndex& index_;
  const TindParams params_;
  ServerOptions options_;
  /// Admission bytes reserved per query: its worst-case response (every
  /// attribute id) plus the queued request, fixed at Start().
  size_t query_cost_bytes_ = 0;

  /// RCU epoch state: readers copy the shared_ptr under epoch_mutex_ (a
  /// pointer copy, never blocking on an apply); ApplyDelta builds the next
  /// epoch outside the lock and swaps it in. ingest_mutex_ serializes
  /// appliers so each delta patches the latest epoch.
  mutable std::mutex epoch_mutex_;
  std::shared_ptr<const IndexEpoch> epoch_;
  std::mutex ingest_mutex_;

  int listen_fd_ = -1;
  uint16_t port_ = 0;
  std::atomic<bool> started_{false};
  std::atomic<bool> shutting_down_{false};
  std::atomic<bool> draining_{false};
  std::atomic<bool> stop_{false};
  std::atomic<bool> stop_readers_{false};

  std::thread accept_thread_;
  std::thread batcher_thread_;
  std::mutex conns_mutex_;
  std::vector<std::thread> reader_threads_;
  std::vector<std::weak_ptr<Connection>> conns_;

  std::mutex queue_mutex_;
  std::condition_variable queue_cv_;
  std::deque<PendingRequest> queue_;
  /// Admitted but not yet responded (queued + executing); drain waits on 0.
  size_t inflight_ = 0;
  std::condition_variable drain_cv_;

  std::atomic<uint64_t> connections_{0};
  std::atomic<uint64_t> connections_rejected_{0};
  std::atomic<uint64_t> accepted_{0};
  std::atomic<uint64_t> completed_{0};
  std::atomic<uint64_t> degraded_{0};
  std::atomic<uint64_t> shed_{0};
  std::atomic<uint64_t> deadline_exceeded_{0};
  std::atomic<uint64_t> protocol_errors_{0};
  std::atomic<uint64_t> slow_loris_drops_{0};
  std::atomic<uint64_t> deltas_applied_{0};

  /// Always-on latency histogram (registered in the global registry under
  /// "serve/latency_ms" but recorded directly, bypassing the enable gate).
  /// Every server in a process shares it.
  obs::Histogram* latency_ms_ = nullptr;
  /// This server's own copy of latency_ms_'s observations, which
  /// LatencyPercentileMs reads. Percentiles interpolate inside one bucket,
  /// so its bounds are 25% apart (0.01 ms to about 76 s) rather than the
  /// registry's two per decade, whose (100, 500] ms bucket reads any p99
  /// near a 500 ms deadline as wherever the interpolation lands.
  obs::Histogram own_latency_ms_{"serve/latency_ms",
                                 obs::ExponentialBuckets(0.01, 1.25, 72)};
  /// Time-to-first-result for streaming requests (admission → partial
  /// frame), recorded directly like latency_ms_.
  obs::Histogram* ttfr_ms_ = nullptr;
  /// "serve/protocol_errors", bumped directly (like latency_ms_) so the
  /// registry always equals counters().protocol_errors.
  obs::Counter* protocol_errors_metric_ = nullptr;
};

}  // namespace tind::serve

#endif  // TIND_SERVE_SERVER_H_
