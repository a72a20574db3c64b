#include "serve/server.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <map>
#include <tuple>
#include <utility>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/socket.h>
#endif

#include "bloom/bloom_batch.h"
#include "common/fault_injection.h"
#include "obs/metrics.h"
#include "tind/progressive.h"

namespace tind::serve {

namespace {

using Clock = std::chrono::steady_clock;

/// Poll tick for loops that must notice the stop flag while blocked on I/O.
constexpr int kIdlePollMs = 100;

/// Most requests one dispatch takes off the queue: the cursor's group size.
constexpr size_t kMaxDispatch = kBloomBatchGroupSize;

/// How long an armed serve/group_pause fault point holds a group.
constexpr std::chrono::milliseconds kGroupPause(300);

Status IngestDisabled() {
  return Status::FailedPrecondition(
      "live ingest disabled (start with allow_ingest)");
}

double MillisSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

}  // namespace

/// Shared connection state: the fd lives as long as any queued request
/// still holds a reference, so a response can always be attempted. The
/// socket is shut down (not closed) to wake the reader; the fd itself is
/// closed exactly once, when the last reference drops.
struct TindServer::Connection {
  explicit Connection(int fd) : fd(fd) {}

  /// Lingering close: drain any request bytes the peer already sent before
  /// closing. close() with an unread receive queue makes TCP send an RST,
  /// which would destroy responses still buffered on the peer's side — the
  /// exact frames a draining shutdown just promised to deliver.
  ~Connection() {
#if defined(__unix__) || defined(__APPLE__)
    char sink[1024];
    for (int i = 0; i < 64; ++i) {
      if (::recv(fd, sink, sizeof(sink), MSG_DONTWAIT) <= 0) break;
    }
#endif
    CloseFd(fd);
  }

  /// Half-closes both directions; any blocked reader/writer wakes with EOF.
  void ShutdownSocket() {
    if (!shut.exchange(true)) {
#if defined(__unix__) || defined(__APPLE__)
      ::shutdown(fd, SHUT_RDWR);
#endif
    }
  }

  const int fd;
  std::mutex write_mutex;
  std::atomic<bool> shut{false};
};

struct TindServer::PendingRequest {
  std::shared_ptr<Connection> conn;
  uint64_t request_id = 0;
  MessageType type = MessageType::kSearch;
  SearchRequest request;
  /// Search direction: kReverseSearch, or a kSearchStream that asked for it.
  bool reverse = false;
  /// Carries the request's deadline: the funnel's polls see it expire.
  CancellationToken cancel;
  Clock::time_point admitted;
  MemoryReservation reservation;
  bool responded = false;
};

TindServer::TindServer(const TindIndex& index, const TindParams& params,
                       const ServerOptions& options)
    : index_(index), params_(params), options_(options) {
  auto base = std::make_shared<IndexEpoch>();
  base->index = &index_;
  base->sequence = 0;
  epoch_ = std::move(base);
}

TindServer::~TindServer() { Shutdown(); }

Status TindServer::Start() {
  if (started_.exchange(true)) {
    return Status::FailedPrecondition("server already started");
  }
  query_cost_bytes_ =
      sizeof(PendingRequest) + index_.dataset().size() * sizeof(AttributeId);
  TIND_ASSIGN_OR_RETURN(listen_fd_, ListenTcp(options_.port));
  TIND_ASSIGN_OR_RETURN(port_, LocalPort(listen_fd_));
  latency_ms_ =
      obs::MetricsRegistry::Global().GetHistogram("serve/latency_ms");
  ttfr_ms_ = obs::MetricsRegistry::Global().GetHistogram("serve/ttfr_ms");
  protocol_errors_metric_ =
      obs::MetricsRegistry::Global().GetCounter("serve/protocol_errors");
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  batcher_thread_ = std::thread([this] { BatcherLoop(); });
  return Status::OK();
}

void TindServer::Shutdown() {
  if (!started_.load() || shutting_down_.exchange(true)) return;
  // Phase 1: stop admitting. Readers stay alive and answer new requests
  // with a typed "draining" rejection so clients back off instead of
  // hanging; the accept loop stops taking new connections.
  draining_.store(true);
  // Phase 2: wait for in-flight requests to be answered. Bounded: every
  // admitted request's token carries its deadline, and the batcher keeps
  // dispatching until the queue is empty.
  {
    std::unique_lock<std::mutex> lock(queue_mutex_);
    queue_cv_.notify_all();
    drain_cv_.wait(lock, [this] { return inflight_ == 0; });
    // Set under the queue lock: a batcher between testing its wait
    // predicate and blocking would otherwise miss the wakeup below.
    stop_.store(true);
  }
  // Phase 3: tear down the threads and sockets.
  queue_cv_.notify_all();
  if (accept_thread_.joinable()) accept_thread_.join();
  if (batcher_thread_.joinable()) batcher_thread_.join();
  stop_readers_.store(true);
  {
    std::lock_guard<std::mutex> lock(conns_mutex_);
    for (auto& weak : conns_) {
      if (auto conn = weak.lock()) conn->ShutdownSocket();
    }
    for (std::thread& t : reader_threads_) {
      if (t.joinable()) t.join();
    }
    reader_threads_.clear();
    conns_.clear();
  }
  CloseFd(listen_fd_);
  listen_fd_ = -1;
}

TindServer::Counters TindServer::counters() const {
  Counters c;
  c.connections = connections_.load();
  c.connections_rejected = connections_rejected_.load();
  c.accepted = accepted_.load();
  c.completed = completed_.load();
  c.degraded = degraded_.load();
  c.shed = shed_.load();
  c.deadline_exceeded = deadline_exceeded_.load();
  c.protocol_errors = protocol_errors_.load();
  c.slow_loris_drops = slow_loris_drops_.load();
  c.deltas_applied = deltas_applied_.load();
  return c;
}

std::shared_ptr<const TindServer::IndexEpoch> TindServer::CurrentEpoch()
    const {
  std::lock_guard<std::mutex> lock(epoch_mutex_);
  return epoch_;
}

uint64_t TindServer::epoch_sequence() const { return CurrentEpoch()->sequence; }

Result<TindServer::IngestResult> TindServer::ApplyDelta(
    const RevisionDelta& delta) {
  if (!options_.allow_ingest) return IngestDisabled();
  // One applier at a time: each delta patches the *latest* epoch, so the
  // sequence is linear even with concurrent ingest connections.
  std::lock_guard<std::mutex> ingest_lock(ingest_mutex_);
  const std::shared_ptr<const IndexEpoch> base = CurrentEpoch();
  TIND_ASSIGN_OR_RETURN(UpdateResult updated,
                        IndexUpdater::ApplyDelta(*base->index, delta));
  auto next = std::make_shared<IndexEpoch>();
  next->owned_dataset = updated.dataset;
  next->owned_index = updated.index;
  next->index = updated.index.get();
  next->sequence = base->sequence + 1;
  {
    std::lock_guard<std::mutex> lock(epoch_mutex_);
    epoch_ = std::move(next);
  }
  deltas_applied_.fetch_add(1);
  TIND_OBS_COUNTER_ADD("serve/deltas_applied", 1);
  IngestResult result;
  result.sequence = base->sequence + 1;
  result.stats = updated.stats;
  return result;
}

double TindServer::LatencyPercentileMs(double p) const {
  return own_latency_ms_.Percentile(p);
}

void TindServer::AcceptLoop() {
  while (!stop_.load()) {
    auto fd = AcceptConnection(listen_fd_, kIdlePollMs);
    if (!fd.ok()) {
      // Timeout tick: re-check the stop flag. Anything else on a listening
      // socket is transient (e.g. the peer aborted before accept).
      continue;
    }
    size_t open_count = 0;
    {
      std::lock_guard<std::mutex> lock(conns_mutex_);
      conns_.erase(std::remove_if(conns_.begin(), conns_.end(),
                                  [](const std::weak_ptr<Connection>& w) {
                                    return w.expired();
                                  }),
                   conns_.end());
      open_count = conns_.size();
    }
    if (draining_.load() || open_count >= options_.max_connections) {
      connections_rejected_.fetch_add(1);
      CloseFd(*fd);
      continue;
    }
    connections_.fetch_add(1);
    auto conn = std::make_shared<Connection>(*fd);
    std::lock_guard<std::mutex> lock(conns_mutex_);
    conns_.push_back(conn);
    reader_threads_.emplace_back(
        [this, conn = std::move(conn)]() mutable { ReaderLoop(conn); });
  }
}

void TindServer::ReaderLoop(std::shared_ptr<Connection> conn) {
  while (!stop_readers_.load() && !conn->shut.load()) {
    auto frame = RecvFrame(conn->fd, kIdlePollMs,
                           static_cast<int>(options_.io_timeout_ms));
    if (!frame.ok()) {
      if (frame.status().IsDeadlineExceeded()) continue;  // Idle tick.
      if (frame.status().IsInvalidArgument()) {
        // The bytes are not a frame — after this the stream offset is
        // unrecoverable, so answer once and drop the connection.
        CountProtocolError();
        SendToConnection(conn, MessageType::kError, 0,
                         EncodeErrorResponse(frame.status()));
      } else if (frame.status().message().find("stalled") !=
                 std::string::npos) {
        slow_loris_drops_.fetch_add(1);
        TIND_OBS_COUNTER_ADD("serve/slow_loris_drops", 1);
      }
      break;  // EOF / reset / stall: the connection is done.
    }
    DispatchFrame(conn, *frame);
  }
  conn->ShutdownSocket();
}

void TindServer::DispatchFrame(const std::shared_ptr<Connection>& conn,
                               const Frame& frame) {
  switch (frame.header.type) {
    case MessageType::kPing:
      SendToConnection(conn, MessageType::kPong, frame.header.request_id, "");
      return;
    case MessageType::kSearch:
    case MessageType::kReverseSearch:
    case MessageType::kDiscoveryWindow:
    case MessageType::kSearchStream:
      AdmitRequest(conn, frame);
      return;
    case MessageType::kApplyDelta: {
      // Ingest runs on the reader thread, not through the batch queue: a
      // delta is a control-plane operation with its own serialization
      // (ingest_mutex_), and queueing it behind queries would let a full
      // admission queue starve index maintenance.
      // A server without ingest never decodes a delta: the payload is the
      // largest and most complex a client can send.
      Status refused;
      if (!options_.allow_ingest) {
        refused = IngestDisabled();
      } else if (draining_.load()) {
        refused = Status::ResourceExhausted("server draining");
      }
      if (!refused.ok()) {
        SendToConnection(conn, MessageType::kError, frame.header.request_id,
                         EncodeErrorResponse(refused));
        return;
      }
      auto delta = DecodeApplyDeltaRequest(frame.payload);
      if (!delta.ok()) {
        CountProtocolError();
        SendToConnection(conn, MessageType::kError, frame.header.request_id,
                         EncodeErrorResponse(delta.status()));
        return;
      }
      auto applied = ApplyDelta(*delta);
      if (!applied.ok()) {
        SendToConnection(conn, MessageType::kError, frame.header.request_id,
                         EncodeErrorResponse(applied.status()));
        return;
      }
      ApplyDeltaResponse response;
      response.sequence = applied->sequence;
      response.attributes_touched =
          static_cast<uint32_t>(applied->stats.attributes_touched);
      response.attributes_added =
          static_cast<uint32_t>(applied->stats.attributes_added);
      response.attributes_retired =
          static_cast<uint32_t>(applied->stats.attributes_retired);
      response.versions_appended =
          static_cast<uint32_t>(applied->stats.versions_appended);
      response.slices_patched =
          static_cast<uint32_t>(applied->stats.slices_patched);
      response.slices_skipped =
          static_cast<uint32_t>(applied->stats.slices_skipped);
      response.slices_rebuilt =
          static_cast<uint32_t>(applied->stats.slices_rebuilt);
      response.columns_reset =
          static_cast<uint32_t>(applied->stats.columns_reset);
      SendToConnection(conn, MessageType::kApplyDeltaResult,
                       frame.header.request_id,
                       EncodeApplyDeltaResponse(response));
      return;
    }
    default:
      CountProtocolError();
      SendToConnection(conn, MessageType::kError, frame.header.request_id,
                       EncodeErrorResponse(Status::InvalidArgument(
                           "unexpected message type " +
                           std::to_string(static_cast<int>(
                               frame.header.type)))));
      return;
  }
}

void TindServer::AdmitRequest(const std::shared_ptr<Connection>& conn,
                              const Frame& frame) {
  const auto reject = [&](const Status& status) {
    SendToConnection(conn, MessageType::kError, frame.header.request_id,
                     EncodeErrorResponse(status));
  };
  const auto reject_malformed = [&](const Status& status) {
    CountProtocolError();
    reject(status);
  };
  SearchRequest request;
  bool reverse = frame.header.type == MessageType::kReverseSearch;
  if (frame.header.type == MessageType::kSearchStream) {
    auto decoded = DecodeSearchStreamRequest(frame.payload);
    if (!decoded.ok()) return reject_malformed(decoded.status());
    request = decoded->base;
    reverse = decoded->reverse;
  } else {
    auto decoded = DecodeSearchRequest(frame.payload);
    if (!decoded.ok()) return reject_malformed(decoded.status());
    request = *decoded;
  }
  // Validated against the current epoch; the batch may execute against a
  // later one, which is safe because attribute ids are never removed (a
  // retire appends an empty version — the column stays addressable).
  const size_t n = CurrentEpoch()->index->dataset().size();
  size_t num_queries = 1;
  if (frame.header.type == MessageType::kDiscoveryWindow) {
    if (request.window_end <= request.attribute ||
        request.window_end > n ||
        request.window_end - request.attribute > kMaxDiscoveryWindow) {
      return reject_malformed(Status::InvalidArgument(
          "invalid discovery window [" + std::to_string(request.attribute) +
          ", " + std::to_string(request.window_end) + ") over " +
          std::to_string(n) + " attributes (max width " +
          std::to_string(kMaxDiscoveryWindow) + ")"));
    }
    num_queries = request.window_end - request.attribute;
  } else if (request.attribute >= n) {
    return reject_malformed(Status::InvalidArgument(
        "attribute " + std::to_string(request.attribute) +
        " out of range (dataset has " + std::to_string(n) + ")"));
  }

  // ---- Admission ladder -------------------------------------------------
  if (draining_.load()) {
    shed_.fetch_add(1);
    TIND_OBS_COUNTER_ADD("serve/shed", 1);
    reject(Status::ResourceExhausted("server draining"));
    return;
  }
  PendingRequest pending;
  pending.reservation = MemoryReservation(options_.memory);
  const Status reserved =
      pending.reservation.Reserve(query_cost_bytes_ * num_queries);
  if (!reserved.ok()) {
    shed_.fetch_add(1);
    TIND_OBS_COUNTER_ADD("serve/shed", 1);
    reject(Status::OutOfMemory("overloaded: admission memory budget (" +
                               reserved.message() + ")"));
    return;
  }
  uint32_t budget_ms = request.deadline_ms != 0 ? request.deadline_ms
                                                : options_.default_deadline_ms;
  budget_ms = std::min(budget_ms, options_.max_deadline_ms);
  pending.conn = conn;
  pending.request_id = frame.header.request_id;
  pending.type = frame.header.type;
  pending.request = request;
  pending.reverse = reverse;
  pending.admitted = Clock::now();
  pending.cancel = CancellationToken(pending.admitted +
                                     std::chrono::milliseconds(budget_ms));
  bool queue_full = false;
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    if (queue_.size() >= options_.max_inflight) {
      queue_full = true;
    } else {
      ++inflight_;
      accepted_.fetch_add(1);
      TIND_OBS_GAUGE_SET("serve/queue_depth", queue_.size() + 1);
      queue_.push_back(std::move(pending));
    }
  }
  if (queue_full) {
    // Rejections answer outside the queue lock: a slow peer must never
    // stall admission for everyone else.
    shed_.fetch_add(1);
    TIND_OBS_COUNTER_ADD("serve/shed", 1);
    reject(Status::ResourceExhausted(
        "overloaded: admission queue full (" +
        std::to_string(options_.max_inflight) + " in flight)"));
    return;
  }
  queue_cv_.notify_one();
}

void TindServer::BatcherLoop() {
  while (true) {
    std::vector<PendingRequest> batch;
    size_t depth_at_pop = 0;
    {
      std::unique_lock<std::mutex> lock(queue_mutex_);
      queue_cv_.wait(lock,
                     [this] { return stop_.load() || !queue_.empty(); });
      if (queue_.empty()) break;  // Stopped with nothing left to answer.
      // Natural group commit: an idle batcher dispatches at once, and what
      // queues while a group runs forms the next group.
      depth_at_pop = queue_.size();
      const size_t take = std::min(queue_.size(), kMaxDispatch);
      batch.reserve(take);
      for (size_t i = 0; i < take; ++i) {
        batch.push_back(std::move(queue_.front()));
        queue_.pop_front();
      }
      TIND_OBS_GAUGE_SET("serve/queue_depth", queue_.size());
    }
    ProcessBatch(std::move(batch), depth_at_pop);
  }
}

void TindServer::ProcessBatch(std::vector<PendingRequest>&& batch,
                              size_t depth_at_pop) {
  // One epoch for the whole window: every request in this batch answers
  // against the same immutable index, even if an ingest swaps the epoch
  // mid-execution (the shared_ptr keeps this view alive until we finish).
  const std::shared_ptr<const IndexEpoch> epoch = CurrentEpoch();
  const bool degrade_window = depth_at_pop >= options_.degrade_watermark;
  TIND_OBS_OBSERVE_BOUNDS("serve/batch_size", batch.size(),
                          obs::ExponentialBuckets(1, 2, 12));

  // Partition the window by (direction, ε, δ): searches, reverse searches,
  // discovery windows and streams of one key step through one cursor.
  std::map<std::tuple<bool, uint64_t, int64_t>, std::vector<PendingRequest*>>
      groups;
  for (PendingRequest& request : batch) {
    if (request.cancel.cancelled()) {
      RespondError(request,
                   Status::DeadlineExceeded("deadline expired in queue"));
      continue;
    }
    uint64_t eps_bits = 0;
    std::memcpy(&eps_bits, &request.request.epsilon, sizeof(eps_bits));
    groups[{request.reverse, eps_bits, request.request.delta}].push_back(
        &request);
  }
  for (auto& [key, requests] : groups) {
    RunGroup(requests, *epoch->index, degrade_window);
  }
}

void TindServer::RunGroup(const std::vector<PendingRequest*>& requests,
                          const TindIndex& index, bool degrade_window) {
  const Dataset& dataset = index.dataset();
  const PendingRequest& first = *requests.front();
  const TindParams params{first.request.epsilon, first.request.delta,
                          params_.weight};
  // Expand requests into cursor members: one per search or stream,
  // window-width many per discovery request, each with its request's
  // cancellation token. Request r owns members [begin[r], begin[r + 1]).
  std::vector<SearchCursor::Member> members;
  std::vector<size_t> begin;
  for (const PendingRequest* request : requests) {
    begin.push_back(members.size());
    const SearchRequest& r = request->request;
    const AttributeId end = request->type == MessageType::kDiscoveryWindow
                                ? r.window_end
                                : r.attribute + 1;
    for (AttributeId a = r.attribute; a < end; ++a) {
      members.push_back({&dataset.attribute(a), &request->cancel});
    }
  }
  begin.push_back(members.size());
  SearchCursor::Options cursor_options;
  cursor_options.reverse = first.reverse;
  SearchCursor cursor(index, members, params, cursor_options);

  // Stage 1 (the microseconds stage), then a partial frame per stream: a
  // sound superset its client can act on while the exact funnel continues.
  // A member abandoned here never ran its probe and has no stage to answer
  // from.
  cursor.Step();
  std::vector<char> probed(members.size());
  for (size_t b = 0; b < members.size(); ++b) probed[b] = !cursor.cancelled(b);
  for (size_t r = 0; r < requests.size(); ++r) {
    PendingRequest& request = *requests[r];
    if (request.type != MessageType::kSearchStream || !probed[begin[r]]) {
      continue;
    }
    SearchPartial partial;
    partial.stage = static_cast<uint8_t>(SearchStage::kProbe);
    partial.ids = cursor.Superset(begin[r]);
    SendToConnection(request.conn, MessageType::kSearchPartial,
                     request.request_id, EncodeSearchPartial(partial));
    ttfr_ms_->Observe(MillisSince(request.admitted));
  }
  // Fault point: hold the group after its probe (and a stream's partial
  // frame) so a test can land a deadline, a kill, a queue of followers or
  // an overload there deterministically.
  if (TIND_FAULT_POINT("serve/group_pause")) {
    std::this_thread::sleep_for(kGroupPause);
  }

  // Stage 2 (the exact recheck), then the brown-out: in an overloaded
  // window, consenting requests stop here and answer their post-recheck
  // superset.
  cursor.Step();
  for (size_t r = 0; r < requests.size(); ++r) {
    if (!degrade_window || !requests[r]->request.allow_degraded) continue;
    for (size_t b = begin[r]; b < begin[r + 1]; ++b) cursor.Abandon(b);
  }
  while (!cursor.done()) cursor.Step();

  // One rule for every kind: an abandoned member answers its best-stage
  // superset (degraded) when its request consented and every member of the
  // request ran its probe; otherwise the request missed its deadline.
  for (size_t r = 0; r < requests.size(); ++r) {
    PendingRequest& request = *requests[r];
    bool degraded = false;
    bool all_probed = true;
    for (size_t b = begin[r]; b < begin[r + 1]; ++b) {
      degraded = degraded || cursor.cancelled(b);
      all_probed = all_probed && probed[b];
    }
    if (degraded && !(request.request.allow_degraded && all_probed)) {
      RespondError(request, Status::DeadlineExceeded(
                                "deadline exceeded during execution"));
      continue;
    }
    const auto answer = [&](size_t b) {
      return cursor.cancelled(b) ? cursor.Superset(b) : cursor.results(b);
    };
    std::string payload;
    MessageType type;
    if (request.type == MessageType::kDiscoveryWindow) {
      DiscoveryResponse response;
      response.degraded = degraded;
      for (size_t b = begin[r]; b < begin[r + 1]; ++b) {
        const AttributeId lhs =
            request.request.attribute + static_cast<AttributeId>(b - begin[r]);
        for (const AttributeId rhs : answer(b)) {
          response.pairs.push_back(TindPair{lhs, rhs});
        }
      }
      payload = EncodeDiscoveryResponse(response);
      type = MessageType::kDiscoveryResult;
    } else {
      SearchResponse response;
      response.degraded = degraded;
      response.ids = answer(begin[r]);
      payload = EncodeSearchResponse(response);
      type = MessageType::kSearchResult;
    }
    if (degraded) {
      degraded_.fetch_add(1);
      TIND_OBS_COUNTER_ADD("serve/degraded", 1);
    }
    completed_.fetch_add(1);
    const double latency_ms = MillisSince(request.admitted);
    latency_ms_->Observe(latency_ms);
    own_latency_ms_.Observe(latency_ms);
    SendToConnection(request.conn, type, request.request_id, payload);
    FinishRequest(request);
  }
}

void TindServer::CountProtocolError() {
  protocol_errors_.fetch_add(1);
  protocol_errors_metric_->Add(1);
}

void TindServer::RespondError(PendingRequest& request, const Status& status) {
  deadline_exceeded_.fetch_add(1);
  TIND_OBS_COUNTER_ADD("serve/deadline_exceeded", 1);
  SendToConnection(request.conn, MessageType::kError, request.request_id,
                   EncodeErrorResponse(status));
  FinishRequest(request);
}

void TindServer::FinishRequest(PendingRequest& request) {
  if (request.responded) return;
  request.responded = true;
  request.reservation = MemoryReservation();  // Release admission bytes.
  std::lock_guard<std::mutex> lock(queue_mutex_);
  if (--inflight_ == 0) drain_cv_.notify_all();
}

void TindServer::SendToConnection(const std::shared_ptr<Connection>& conn,
                                  MessageType type, uint64_t request_id,
                                  const std::string& payload) {
  std::lock_guard<std::mutex> lock(conn->write_mutex);
  if (conn->shut.load()) return;
  const Status sent = SendFrame(conn->fd, type, request_id, payload,
                                static_cast<int>(options_.io_timeout_ms));
  if (!sent.ok()) {
    // A peer that cannot drain its responses in time is treated like a
    // slow loris: the connection is cut, the request already counted.
    conn->ShutdownSocket();
  }
}

}  // namespace tind::serve
