#include "serve/client.h"

#include <algorithm>
#include <chrono>
#include <thread>

namespace tind::serve {

namespace {

using Clock = std::chrono::steady_clock;

bool AlwaysRetry() { return true; }

Status UnexpectedReply(const Frame& frame) {
  return Status::Internal("unexpected reply type " +
                          std::to_string(static_cast<int>(frame.header.type)));
}

int RemainingMs(Clock::time_point deadline) {
  const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                        deadline - Clock::now())
                        .count();
  return left < 0 ? 0 : static_cast<int>(left);
}

}  // namespace

bool IsRetryableServeError(const Status& status) {
  // Transport failures and overload rejections are transient by design;
  // a deadline miss may succeed on a less loaded attempt. Semantic errors
  // (bad attribute, malformed request) will fail identically every time.
  return status.IsIOError() || status.IsResourceExhausted() ||
         status.IsOutOfMemory() || status.IsDeadlineExceeded();
}

TindClient::TindClient(const ClientOptions& options) : options_(options) {}

TindClient::~TindClient() { Disconnect(); }

void TindClient::Disconnect() {
  if (fd_ >= 0) {
    CloseFd(fd_);
    fd_ = -1;
  }
}

Status TindClient::EnsureConnected() {
  if (fd_ >= 0) return Status::OK();
  TIND_ASSIGN_OR_RETURN(
      fd_, ConnectTcp(options_.host, options_.port,
                      static_cast<int>(options_.connect_timeout_ms)));
  ++counters_.reconnects;
  return Status::OK();
}

Result<QueryReply> TindClient::Search(AttributeId attribute) {
  SearchRequest request;
  request.attribute = attribute;
  return Execute(MessageType::kSearch, request);
}

Result<QueryReply> TindClient::ReverseSearch(AttributeId attribute) {
  SearchRequest request;
  request.attribute = attribute;
  return Execute(MessageType::kReverseSearch, request);
}

Result<QueryReply> TindClient::DiscoveryWindow(AttributeId begin,
                                               AttributeId end) {
  SearchRequest request;
  request.attribute = begin;
  request.window_end = end;
  return Execute(MessageType::kDiscoveryWindow, request);
}

Result<ApplyDeltaResponse> TindClient::ApplyDelta(const RevisionDelta& delta) {
  // One attempt: applying a delta is not idempotent.
  ApplyDeltaResponse response;
  const Status status =
      Call(MessageType::kApplyDelta, EncodeApplyDeltaRequest(delta),
           /*max_attempts=*/1, AlwaysRetry,
           [&](const Frame& frame, double) -> Status {
             if (frame.header.type != MessageType::kApplyDeltaResult) {
               return UnexpectedReply(frame);
             }
             auto decoded = DecodeApplyDeltaResponse(frame.payload);
             if (!decoded.ok()) return decoded.status();
             response = *decoded;
             return Status::OK();
           });
  if (!status.ok()) return status;
  return response;
}

Status TindClient::Ping() {
  // A liveness probe reports its first failure.
  return Call(MessageType::kPing, "", /*max_attempts=*/1, AlwaysRetry,
              [](const Frame& frame, double) -> Status {
                return frame.header.type == MessageType::kPong
                           ? Status::OK()
                           : UnexpectedReply(frame);
              });
}

Result<QueryReply> TindClient::Execute(MessageType type,
                                       const SearchRequest& base) {
  SearchRequest request = base;
  request.epsilon = options_.epsilon;
  request.delta = options_.delta;
  request.deadline_ms = options_.deadline_ms;
  request.allow_degraded = options_.allow_degraded;
  QueryReply reply;
  const Status status = Call(
      type, EncodeSearchRequest(request), options_.max_attempts, AlwaysRetry,
      [&](const Frame& frame, double) -> Status {
        if (frame.header.type == MessageType::kSearchResult) {
          auto decoded = DecodeSearchResponse(frame.payload);
          if (!decoded.ok()) return decoded.status();
          reply.ids = std::move(decoded->ids);
          reply.degraded = decoded->degraded;
          return Status::OK();
        }
        if (frame.header.type == MessageType::kDiscoveryResult) {
          auto decoded = DecodeDiscoveryResponse(frame.payload);
          if (!decoded.ok()) return decoded.status();
          reply.pairs = std::move(decoded->pairs);
          reply.degraded = decoded->degraded;
          return Status::OK();
        }
        return UnexpectedReply(frame);
      });
  if (!status.ok()) return status;
  return reply;
}

Status TindClient::SearchStream(AttributeId attribute, StreamReply* reply) {
  return ExecuteStream(attribute, /*reverse=*/false, reply);
}

Status TindClient::ReverseSearchStream(AttributeId attribute,
                                       StreamReply* reply) {
  return ExecuteStream(attribute, /*reverse=*/true, reply);
}

Status TindClient::ExecuteStream(AttributeId attribute, bool reverse,
                                 StreamReply* reply) {
  *reply = StreamReply();
  SearchStreamRequest request;
  request.base.attribute = attribute;
  request.base.epsilon = options_.epsilon;
  request.base.delta = options_.delta;
  request.base.deadline_ms = options_.deadline_ms;
  request.base.allow_degraded = options_.allow_degraded;
  request.reverse = reverse;
  // Retry only while the stream has not started: after a partial, the
  // caller already holds a valid superset and a retry would silently
  // restart the funnel — return the error and let them decide.
  return Call(
      MessageType::kSearchStream, EncodeSearchStreamRequest(request),
      options_.max_attempts, [reply] { return !reply->got_partial; },
      [reply](const Frame& frame, double ms_since_send) -> Status {
        if (frame.header.type == MessageType::kSearchPartial) {
          auto decoded = DecodeSearchPartial(frame.payload);
          if (!decoded.ok()) return decoded.status();
          if (!reply->got_partial) reply->ttfr_ms = ms_since_send;
          reply->got_partial = true;
          reply->partial_stage = decoded->stage;
          reply->partial_ids = std::move(decoded->ids);
          return Status::OK();
        }
        if (frame.header.type != MessageType::kSearchResult) {
          return UnexpectedReply(frame);
        }
        auto decoded = DecodeSearchResponse(frame.payload);
        if (!decoded.ok()) return decoded.status();
        reply->ids = std::move(decoded->ids);
        reply->degraded = decoded->degraded;
        reply->total_ms = ms_since_send;
        return Status::OK();
      });
}

Status TindClient::Call(MessageType type, const std::string& payload,
                        uint32_t max_attempts,
                        const std::function<bool()>& may_retry,
                        const ReplyHandler& on_reply) {
  ExponentialBackoff backoff(options_.backoff, options_.backoff_seed);
  Status last;
  for (uint32_t attempt = 0; attempt < std::max(max_attempts, 1u);
       ++attempt) {
    if (attempt > 0) {
      if (!IsRetryableServeError(last) || !may_retry()) return last;
      ++counters_.retries;
      uint64_t delay_us = 0;
      if (backoff.NextDelayUs(&delay_us)) {
        std::this_thread::sleep_for(std::chrono::microseconds(delay_us));
      }
    }
    ++counters_.attempts;
    last = EnsureConnected();
    if (!last.ok()) continue;
    const uint64_t id = next_id_++;
    const Clock::time_point sent_at = Clock::now();
    const Clock::time_point deadline =
        sent_at + std::chrono::milliseconds(options_.response_timeout_ms);
    last = SendFrame(fd_, type, id, payload, RemainingMs(deadline));
    if (!last.ok()) {
      Disconnect();
      if (last.IsDeadlineExceeded()) {
        last = Status::IOError("request send timed out");
      }
      continue;
    }
    for (;;) {
      auto frame = WaitReply(id, deadline);
      if (!frame.ok()) {
        // A timed-out reply may still arrive for a later attempt's wait;
        // drop the connection to keep attempts independent.
        Disconnect();
        last = frame.status().IsDeadlineExceeded()
                   ? Status::IOError("response timed out")
                   : frame.status();
        break;
      }
      if (frame->header.type == MessageType::kError) {
        last = DecodeErrorResponse(frame->payload);
        break;
      }
      const Status handled = on_reply(
          *frame,
          std::chrono::duration<double, std::milli>(Clock::now() - sent_at)
              .count());
      // Only a stream's partial frames leave the call waiting for more.
      if (!handled.ok() || frame->header.type != MessageType::kSearchPartial) {
        return handled;
      }
    }
  }
  return last;
}

Result<Frame> TindClient::WaitReply(uint64_t request_id,
                                    Clock::time_point deadline) {
  for (;;) {
    auto frame =
        RecvFrame(fd_, RemainingMs(deadline),
                  static_cast<int>(options_.response_timeout_ms));
    if (!frame.ok()) return frame.status();
    if (frame->header.request_id == request_id) return frame;
    // A late answer to an abandoned attempt: drop it and keep waiting.
    ++counters_.stale_replies;
    if (RemainingMs(deadline) == 0) {
      return Status::DeadlineExceeded("reply wait timed out");
    }
  }
}

}  // namespace tind::serve
