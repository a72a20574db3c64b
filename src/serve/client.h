#ifndef TIND_SERVE_CLIENT_H_
#define TIND_SERVE_CLIENT_H_

/// \file client.h
/// TindClient: a synchronous client for the tind_serve wire protocol with
/// reconnect on transport failure and bounded retries with exponential
/// backoff + decorrelated jitter (common/backoff.h).
///
/// Retry policy: transport errors (IOError), overload rejections
/// (ResourceExhausted, OutOfMemory), and deadline errors are retried up to
/// the op's attempt budget with backoff; semantic errors (InvalidArgument,
/// NotFound, ...) are returned immediately. Every op runs through one
/// send → wait → retry loop, and every attempt uses a fresh request id, so
/// a late response from a timed-out attempt is recognized and discarded
/// instead of being mistaken for the current answer.

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/backoff.h"
#include "common/status.h"
#include "serve/wire.h"

namespace tind::serve {

struct ClientOptions {
  std::string host = "127.0.0.1";
  uint16_t port = 0;
  uint32_t connect_timeout_ms = 1000;
  /// How long one attempt waits for its response before giving up.
  uint32_t response_timeout_ms = 2000;
  /// Deadline budget sent with each request (0 = server default).
  uint32_t deadline_ms = 0;
  bool allow_degraded = false;
  double epsilon = 3.0;
  int64_t delta = 7;
  /// Total tries per request (1 = no retries).
  uint32_t max_attempts = 5;
  BackoffOptions backoff{/*initial_us=*/2000, /*max_us=*/200000,
                         /*multiplier=*/3.0, /*deadline_us=*/0,
                         /*max_retries=*/0};
  uint64_t backoff_seed = 1;
};

struct QueryReply {
  std::vector<AttributeId> ids;   ///< Search / reverse-search answers.
  std::vector<TindPair> pairs;    ///< Discovery-window answers.
  bool degraded = false;          ///< Sound superset, not the exact answer.
};

/// One streaming query's observable timeline. SearchStream fills this in
/// place as frames arrive, so the partial answer survives even when the
/// final frame never does (transport failure, deadline without degraded
/// consent) — the chaos suite asserts on exactly that.
struct StreamReply {
  bool got_partial = false;
  uint8_t partial_stage = 0;             ///< tind::SearchStage of the partial.
  std::vector<AttributeId> partial_ids;  ///< Sound superset of `ids`.
  double ttfr_ms = 0;   ///< Request send → first partial frame.
  double total_ms = 0;  ///< Request send → final frame.
  std::vector<AttributeId> ids;  ///< Final answer (exact unless degraded).
  bool degraded = false;
};

class TindClient {
 public:
  explicit TindClient(const ClientOptions& options);
  ~TindClient();

  TindClient(const TindClient&) = delete;
  TindClient& operator=(const TindClient&) = delete;

  Result<QueryReply> Search(AttributeId attribute);
  Result<QueryReply> ReverseSearch(AttributeId attribute);
  /// All pairs with lhs in [begin, end); width capped by the server.
  Result<QueryReply> DiscoveryWindow(AttributeId begin, AttributeId end);
  Status Ping();

  /// Anytime search over the kSearchStream op: one or more kSearchPartial
  /// frames (sound supersets, recorded into `reply` as they land) followed
  /// by the final kSearchResult. Retried only while no frame of the stream
  /// has arrived yet; after a partial, errors are returned with
  /// `reply->got_partial` still set so the caller can fall back to the
  /// superset it holds.
  Status SearchStream(AttributeId attribute, StreamReply* reply);
  Status ReverseSearchStream(AttributeId attribute, StreamReply* reply);

  /// Live ingest: ships `delta` to the server, which patches its index and
  /// swaps serving epochs. Single attempt, never retried — applying a
  /// delta is not idempotent, and a retry after an ambiguous
  /// transport failure could double-apply it. On a transport error the
  /// caller must resynchronize (e.g. compare epoch sequences) before
  /// resending.
  Result<ApplyDeltaResponse> ApplyDelta(const RevisionDelta& delta);

  /// Drops the current connection; the next request reconnects.
  void Disconnect();

  struct Counters {
    uint64_t attempts = 0;
    uint64_t retries = 0;
    uint64_t reconnects = 0;
    uint64_t stale_replies = 0;  ///< Late frames for a previous attempt.
  };
  const Counters& counters() const { return counters_; }

 private:
  /// Handles one reply frame, given the time since its attempt was sent.
  using ReplyHandler =
      std::function<Status(const Frame& frame, double ms_since_send)>;

  Result<QueryReply> Execute(MessageType type, const SearchRequest& request);
  Status ExecuteStream(AttributeId attribute, bool reverse, StreamReply* reply);
  /// The one send → wait → retry loop. Each of up to `max_attempts`
  /// attempts sends `payload` under a fresh id, within response_timeout_ms,
  /// and passes its reply frames to `on_reply`; a kSearchPartial frame
  /// keeps the attempt waiting, any other frame ends the call with the
  /// handler's status. Transport failures and kError replies end the
  /// attempt; a retryable one is retried while `may_retry()` holds.
  Status Call(MessageType type, const std::string& payload,
              uint32_t max_attempts, const std::function<bool()>& may_retry,
              const ReplyHandler& on_reply);
  Status EnsureConnected();
  /// Waits on the connection for a frame with `request_id`; discards stale
  /// ids.
  Result<Frame> WaitReply(uint64_t request_id,
                          std::chrono::steady_clock::time_point deadline);

  ClientOptions options_;
  int fd_ = -1;
  uint64_t next_id_ = 1;
  Counters counters_;
};

/// The shared retryability policy (also used by the load driver to decide
/// what a failed request means).
bool IsRetryableServeError(const Status& status);

}  // namespace tind::serve

#endif  // TIND_SERVE_CLIENT_H_
