#ifndef TIND_SERVE_WIRE_H_
#define TIND_SERVE_WIRE_H_

/// \file wire.h
/// The tIND serving wire protocol: length-prefixed, CRC-32-guarded binary
/// frames over TCP, plus the poll-based socket helpers both sides share.
///
/// Frame layout (24-byte little-endian header, then the payload):
///
///   offset size field
///   0      4    magic 'T','I','N','D' (0x444E4954 as a LE u32)
///   4      1    version (kWireVersion)
///   5      1    MessageType
///   6      2    flags (reserved, must be 0)
///   8      8    request_id (echoed verbatim in the response)
///   16     4    payload_bytes (<= kMaxPayloadBytes)
///   20     4    CRC-32 over header bytes [0,20) + payload
///
/// Error taxonomy — every helper fails with a *typed* Status so callers can
/// branch on the failure class instead of parsing messages:
///   * DeadlineExceeded — the caller-supplied poll deadline elapsed before
///     any byte of a frame arrived (an idle socket, or a response that is
///     simply not ready yet).
///   * IOError — the peer vanished: EOF, ECONNRESET, EPIPE, or a frame that
///     *started* but then stalled past the progress timeout (the slow-loris
///     signature) or hit EOF mid-frame (truncation).
///   * InvalidArgument — the bytes arrived but are not a frame: bad magic,
///     unsupported version, oversized payload, or a CRC mismatch.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "temporal/attribute_history.h"
#include "tind/discovery.h"
#include "tind/update.h"

namespace tind::serve {

inline constexpr uint32_t kFrameMagic = 0x444E4954;  // "TIND" on the wire.
inline constexpr uint8_t kWireVersion = 1;
inline constexpr size_t kFrameHeaderBytes = 24;
inline constexpr uint32_t kMaxPayloadBytes = 1u << 20;
/// Upper bound on a discovery window's width: bounds both the response
/// payload and the per-request fan-out into the batch planner.
inline constexpr uint32_t kMaxDiscoveryWindow = 512;

enum class MessageType : uint8_t {
  kPing = 1,
  kSearch = 2,           ///< lhs → all rhs with lhs ⊆ rhs.
  kReverseSearch = 3,    ///< rhs → all lhs with lhs ⊆ rhs.
  kDiscoveryWindow = 4,  ///< all pairs with lhs in [attribute, window_end).
  kApplyDelta = 5,       ///< live ingest: apply a RevisionDelta (epoch swap).
  kSearchStream = 6,     ///< anytime search: partial frame(s) then the final.
  kPong = 17,
  kSearchResult = 18,
  kDiscoveryResult = 19,
  kError = 20,
  kApplyDeltaResult = 21,
  kSearchPartial = 22,  ///< Sound-superset snapshot after a funnel stage.
};

/// True for the six client-initiated types.
bool IsRequestType(MessageType type);

struct FrameHeader {
  uint32_t magic = kFrameMagic;
  uint8_t version = kWireVersion;
  MessageType type = MessageType::kPing;
  uint16_t flags = 0;
  uint64_t request_id = 0;
  uint32_t payload_bytes = 0;
  uint32_t crc32 = 0;
};

struct Frame {
  FrameHeader header;
  std::string payload;
};

/// Serializes a complete frame (header + payload) with the CRC filled in.
std::string EncodeFrame(MessageType type, uint64_t request_id,
                        std::string_view payload);

/// Parses and validates exactly kFrameHeaderBytes of header. Rejects bad
/// magic, unsupported versions, and oversized payloads as InvalidArgument.
Result<FrameHeader> DecodeFrameHeader(std::string_view bytes);

/// Checks the CRC of a received frame given the raw header bytes.
Status VerifyFrameCrc(const FrameHeader& header, std::string_view header_bytes,
                      std::string_view payload);

// ---- Message payloads ----------------------------------------------------

/// Request body shared by kSearch / kReverseSearch / kDiscoveryWindow.
struct SearchRequest {
  AttributeId attribute = 0;   ///< Query attribute; window begin for discovery.
  AttributeId window_end = 0;  ///< Exclusive window end (discovery only).
  double epsilon = 3.0;
  int64_t delta = 7;
  /// Per-request deadline budget; 0 uses the server default. The server
  /// clamps it to its configured maximum.
  uint32_t deadline_ms = 0;
  /// Consent to a degraded (Bloom-superset) answer under overload.
  bool allow_degraded = false;
};
std::string EncodeSearchRequest(const SearchRequest& request);
Result<SearchRequest> DecodeSearchRequest(std::string_view payload);

struct SearchResponse {
  bool degraded = false;  ///< A sound superset, not the exact answer.
  std::vector<AttributeId> ids;
};
std::string EncodeSearchResponse(const SearchResponse& response);
Result<SearchResponse> DecodeSearchResponse(std::string_view payload);

/// kSearchStream request body: a SearchRequest plus the search direction
/// (streaming replaces both kSearch and kReverseSearch). On the wire it is
/// the SearchRequest layout with flags bit 1 carrying `reverse`.
struct SearchStreamRequest {
  SearchRequest base;
  bool reverse = false;
};
std::string EncodeSearchStreamRequest(const SearchStreamRequest& request);
Result<SearchStreamRequest> DecodeSearchStreamRequest(std::string_view payload);

/// kSearchPartial payload: the sound candidate superset after funnel stage
/// `stage` (tind::SearchStage as a u8). One or more of these precede the
/// final kSearchResult frame, all echoing the request id. The exact answer
/// is always a subset of every partial's ids.
struct SearchPartial {
  uint8_t stage = 0;
  std::vector<AttributeId> ids;
};
std::string EncodeSearchPartial(const SearchPartial& partial);
Result<SearchPartial> DecodeSearchPartial(std::string_view payload);

struct DiscoveryResponse {
  bool degraded = false;
  std::vector<TindPair> pairs;
};
std::string EncodeDiscoveryResponse(const DiscoveryResponse& response);
Result<DiscoveryResponse> DecodeDiscoveryResponse(std::string_view payload);

/// kApplyDelta payload: a typed RevisionDelta (tind/update.h), serialized
/// op by op. Per-op layout: u8 kind, then kind-specific fields — append:
/// u32 attribute, u64 timestamp, value list; add: three length-prefixed
/// meta strings (page, table, column) + seeded versions (u32 count, each
/// u64 timestamp + value list); retire: u32 attribute, u64 timestamp.
/// Value lists are u32 count + length-prefixed strings. The whole delta
/// must fit one frame (kMaxPayloadBytes); the encoder does not split.
std::string EncodeApplyDeltaRequest(const RevisionDelta& delta);
Result<RevisionDelta> DecodeApplyDeltaRequest(std::string_view payload);

/// kApplyDeltaResult payload: the new epoch sequence plus the UpdateStats
/// summary so ingest clients can observe patch-vs-rebuild behavior.
struct ApplyDeltaResponse {
  uint64_t sequence = 0;  ///< Epoch sequence now serving (monotonic).
  uint32_t attributes_touched = 0;
  uint32_t attributes_added = 0;
  uint32_t attributes_retired = 0;
  uint32_t versions_appended = 0;
  uint32_t slices_patched = 0;
  uint32_t slices_skipped = 0;
  uint32_t slices_rebuilt = 0;
  uint32_t columns_reset = 0;
};
std::string EncodeApplyDeltaResponse(const ApplyDeltaResponse& response);
Result<ApplyDeltaResponse> DecodeApplyDeltaResponse(std::string_view payload);

/// kError payload: the Status taxonomy crosses the wire as (code, message).
std::string EncodeErrorResponse(const Status& status);
/// Reconstructs the peer's Status. Always non-OK: a malformed payload or an
/// out-of-range code decodes as InvalidArgument/Internal respectively.
Status DecodeErrorResponse(std::string_view payload);

// ---- Sockets -------------------------------------------------------------
// Thin poll-based helpers over non-blocking POSIX TCP sockets. Every
// blocking operation takes a millisecond timeout; -1 never times out.

/// Binds and listens on 127.0.0.1:`port` (0 = ephemeral). SO_REUSEADDR set.
Result<int> ListenTcp(uint16_t port);

/// The locally bound port of a listening socket (for port 0 binds).
Result<uint16_t> LocalPort(int fd);

/// Accepts one connection; DeadlineExceeded when none arrives in time.
Result<int> AcceptConnection(int listen_fd, int timeout_ms);

/// Connects to host:port with TCP_NODELAY; DeadlineExceeded on timeout.
Result<int> ConnectTcp(const std::string& host, uint16_t port, int timeout_ms);

/// Writes all of `bytes`; DeadlineExceeded on timeout, IOError on a dead
/// peer (EPIPE/ECONNRESET are returned, never raised as SIGPIPE).
Status SendAll(int fd, std::string_view bytes, int timeout_ms);

/// EncodeFrame + SendAll.
Status SendFrame(int fd, MessageType type, uint64_t request_id,
                 std::string_view payload, int timeout_ms);

/// Receives one complete frame. `first_byte_timeout_ms` bounds the wait for
/// the frame to *start* (DeadlineExceeded — the socket is merely idle);
/// `progress_timeout_ms` bounds the whole frame once its first byte arrived
/// (IOError "frame stalled" — the slow-loris guard). EOF before the first
/// byte is IOError "connection closed"; EOF mid-frame is IOError
/// "truncated". Malformed bytes are InvalidArgument.
Result<Frame> RecvFrame(int fd, int first_byte_timeout_ms,
                        int progress_timeout_ms);

void CloseFd(int fd);

}  // namespace tind::serve

#endif  // TIND_SERVE_WIRE_H_
