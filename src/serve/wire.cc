#include "serve/wire.h"

#include <bit>
#include <cerrno>
#include <chrono>
#include <concepts>
#include <cstring>
#include <type_traits>

#if defined(__unix__) || defined(__APPLE__)
#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>
#define TIND_SERVE_HAVE_SOCKETS 1
#else
#define TIND_SERVE_HAVE_SOCKETS 0
#endif

#include "common/crc32.h"

namespace tind::serve {

namespace {

// ---- Field vocabulary ------------------------------------------------------
// A message's layout is one `Fields(io, message)` list below. The same list
// encodes (io is a Writer) and decodes (io is a Reader), so the two sides
// cannot drift apart. Fixed-width fields go little-endian byte by byte so
// the wire format is identical across hosts, matching the snapshot format's
// convention.

/// The unsigned integer as wide as T, which carries a fixed-width field
/// (an integer, an enum or an f64) on the wire.
template <typename T>
using Bits = std::conditional_t<
    sizeof(T) == 1, uint8_t,
    std::conditional_t<sizeof(T) == 2, uint16_t,
                       std::conditional_t<sizeof(T) == 4, uint32_t,
                                          uint64_t>>>;

/// Appends fields to `out`. Every field returns true so that a field list
/// reads the same for both directions.
struct Writer {
  std::string out;

  template <typename T>
  bool Fixed(const T& v) {
    const auto bits = std::bit_cast<Bits<T>>(v);
    for (size_t i = 0; i < sizeof(bits); ++i) {
      out.push_back(static_cast<char>(bits >> (8 * i)));
    }
    return true;
  }
  bool String(std::string_view s) {
    Fixed(static_cast<uint32_t>(s.size()));
    out.append(s);
    return true;
  }
  /// One byte whose bit i is the i-th flag.
  template <typename... B>
  bool Flags(const B&... flags) {
    uint8_t byte = 0;
    int bit = 0;
    ((byte |= static_cast<uint8_t>(flags ? 1u << bit : 0u), ++bit), ...);
    return Fixed(byte);
  }
  /// A u32 count, then each item.
  template <typename T, typename Each>
  bool List(const std::vector<T>& items, size_t /*min_bytes*/, Each each) {
    Fixed(static_cast<uint32_t>(items.size()));
    for (const T& item : items) each(item);
    return true;
  }
};

/// Cursor over a payload; every field fails cleanly on short input.
class Reader {
 public:
  explicit Reader(std::string_view bytes) : bytes_(bytes) {}

  template <typename T>
  bool Fixed(T& v) {
    if (bytes_.size() < sizeof(T)) return false;
    Bits<T> bits = 0;
    for (size_t i = sizeof(T); i-- > 0;) {  // Most significant byte first.
      bits = static_cast<Bits<T>>(bits << 8 | static_cast<uint8_t>(bytes_[i]));
    }
    bytes_.remove_prefix(sizeof(T));
    v = std::bit_cast<T>(bits);
    return true;
  }
  bool String(std::string& s) {
    uint32_t length = 0;
    if (!Fixed(length) || bytes_.size() < length) return false;
    s.assign(bytes_.substr(0, length));
    bytes_.remove_prefix(length);
    return true;
  }
  /// Rejects a set bit beyond the flags listed: undefined bits are
  /// reserved, not ignored.
  template <typename... B>
  bool Flags(B&... flags) {
    uint8_t byte = 0;
    if (!Fixed(byte) || (byte >> sizeof...(B)) != 0) return false;
    int bit = 0;
    ((flags = ((byte >> bit++) & 1) != 0), ...);
    return true;
  }
  /// Reads a u32 count and rejects it unless `count` items of at least
  /// `min_bytes` each fit in what remains, so reserve(count) never trusts
  /// the peer.
  template <typename T, typename Each>
  bool List(std::vector<T>& items, size_t min_bytes, Each each) {
    uint32_t count = 0;
    if (!Fixed(count) || count > bytes_.size() / min_bytes) return false;
    items.clear();
    items.reserve(count);
    for (uint32_t i = 0; i < count; ++i) {
      if (!each(items.emplace_back())) return false;
    }
    return true;
  }
  bool empty() const { return bytes_.empty(); }

 private:
  std::string_view bytes_;
};

/// A T that is an M: const when encoding, mutable when decoding.
template <typename T, typename M>
concept Is = std::same_as<std::remove_const_t<T>, M>;

// ---- Field lists, in wire order ------------------------------------------

bool Fields(auto& io, Is<FrameHeader> auto& h) {
  return io.Fixed(h.magic) && io.Fixed(h.version) && io.Fixed(h.type) &&
         io.Fixed(h.flags) && io.Fixed(h.request_id) &&
         io.Fixed(h.payload_bytes) && io.Fixed(h.crc32);
}

/// `more` are flag bits after allow_degraded: the stream request is this
/// layout with `reverse` in bit 1.
bool Fields(auto& io, Is<SearchRequest> auto& r, auto&... more) {
  return io.Fixed(r.attribute) && io.Fixed(r.window_end) &&
         io.Fixed(r.epsilon) && io.Fixed(r.delta) && io.Fixed(r.deadline_ms) &&
         io.Flags(r.allow_degraded, more...);
}

bool Fields(auto& io, Is<SearchStreamRequest> auto& r) {
  return Fields(io, r.base, r.reverse);
}

bool IdList(auto& io, auto& ids) {
  return io.List(ids, 4, [&](auto& id) { return io.Fixed(id); });
}

bool Fields(auto& io, Is<SearchResponse> auto& r) {
  return io.Flags(r.degraded) && IdList(io, r.ids);
}

bool Fields(auto& io, Is<SearchPartial> auto& p) {
  return io.Fixed(p.stage) && IdList(io, p.ids);
}

bool Fields(auto& io, Is<DiscoveryResponse> auto& r) {
  return io.Flags(r.degraded) &&
         io.List(r.pairs, 8, [&](auto& pair) {
           return io.Fixed(pair.lhs) && io.Fixed(pair.rhs);
         });
}

/// A value list: u32 count, then length-prefixed strings (4 bytes minimum).
bool ValueList(auto& io, auto& values) {
  return io.List(values, 4, [&](auto& value) { return io.String(value); });
}

bool Fields(auto& io, Is<RevisionOp> auto& op) {
  if (!io.Fixed(op.kind)) return false;
  switch (op.kind) {
    case RevisionOp::Kind::kAppendVersion:
      return io.Fixed(op.attribute) && io.Fixed(op.timestamp) &&
             ValueList(io, op.values);
    case RevisionOp::Kind::kAddAttribute:
      // A seeded version is at least a timestamp and a value count.
      return io.String(op.meta.page) && io.String(op.meta.table) &&
             io.String(op.meta.column) &&
             io.List(op.versions, 12, [&](auto& version) {
               return io.Fixed(version.first) && ValueList(io, version.second);
             });
    case RevisionOp::Kind::kRetireAttribute:
      return io.Fixed(op.attribute) && io.Fixed(op.timestamp);
  }
  return false;  // A kind byte no op has.
}

bool Fields(auto& io, Is<RevisionDelta> auto& delta) {
  // The smallest op (retire) is 13 bytes: kind, attribute, timestamp.
  return io.List(delta.ops, 13, [&](auto& op) { return Fields(io, op); });
}

bool Fields(auto& io, Is<ApplyDeltaResponse> auto& r) {
  return io.Fixed(r.sequence) && io.Fixed(r.attributes_touched) &&
         io.Fixed(r.attributes_added) && io.Fixed(r.attributes_retired) &&
         io.Fixed(r.versions_appended) && io.Fixed(r.slices_patched) &&
         io.Fixed(r.slices_skipped) && io.Fixed(r.slices_rebuilt) &&
         io.Fixed(r.columns_reset);
}

/// kError payload: the Status taxonomy as (u8 code, message).
struct ErrorPayload {
  StatusCode code = StatusCode::kOk;
  std::string message;
};

bool Fields(auto& io, Is<ErrorPayload> auto& e) {
  return io.Fixed(e.code) && io.String(e.message);
}

template <typename M>
std::string Encode(const M& message) {
  Writer writer;
  Fields(writer, message);
  return std::move(writer.out);
}

/// Decodes `payload` as exactly one M; anything else is "malformed <what>".
template <typename M>
Result<M> Decode(std::string_view payload, const char* what) {
  Reader reader(payload);
  M message;
  if (!Fields(reader, message) || !reader.empty()) {
    return Status::InvalidArgument(std::string("malformed ") + what +
                                   " payload");
  }
  return message;
}

}  // namespace

bool IsRequestType(MessageType type) {
  switch (type) {
    case MessageType::kPing:
    case MessageType::kSearch:
    case MessageType::kReverseSearch:
    case MessageType::kDiscoveryWindow:
    case MessageType::kApplyDelta:
    case MessageType::kSearchStream:
      return true;
    default:
      return false;
  }
}

std::string EncodeFrame(MessageType type, uint64_t request_id,
                        std::string_view payload) {
  const FrameHeader header{
      .type = type,
      .request_id = request_id,
      .payload_bytes = static_cast<uint32_t>(payload.size())};
  Writer writer;
  writer.out.reserve(kFrameHeaderBytes + payload.size());
  Fields(writer, header);
  // The CRC covers header bytes [0, 20) plus the payload; it replaces the
  // zero written for its own field.
  writer.out.resize(kFrameHeaderBytes - 4);
  Crc32 crc;
  crc.Update(writer.out);
  crc.Update(payload);
  writer.Fixed(crc.value());
  writer.out.append(payload);
  return std::move(writer.out);
}

Result<FrameHeader> DecodeFrameHeader(std::string_view bytes) {
  if (bytes.size() != kFrameHeaderBytes) {
    return Status::InvalidArgument("frame header must be " +
                                   std::to_string(kFrameHeaderBytes) +
                                   " bytes, got " +
                                   std::to_string(bytes.size()));
  }
  Reader reader(bytes);
  FrameHeader header;
  Fields(reader, header);  // Cannot run short: the size was checked above.
  if (header.magic != kFrameMagic) {
    return Status::InvalidArgument("bad frame magic");
  }
  if (header.version != kWireVersion) {
    return Status::InvalidArgument("unsupported wire version " +
                                   std::to_string(header.version));
  }
  if (header.flags != 0) {
    return Status::InvalidArgument("reserved frame flags set: " +
                                   std::to_string(header.flags));
  }
  if (header.payload_bytes > kMaxPayloadBytes) {
    return Status::InvalidArgument(
        "frame payload too large: " + std::to_string(header.payload_bytes) +
        " bytes (max " + std::to_string(kMaxPayloadBytes) + ")");
  }
  return header;
}

Status VerifyFrameCrc(const FrameHeader& header, std::string_view header_bytes,
                      std::string_view payload) {
  if (header_bytes.size() != kFrameHeaderBytes) {
    return Status::InvalidArgument("frame header size mismatch");
  }
  Crc32 crc;
  crc.Update(header_bytes.substr(0, kFrameHeaderBytes - 4));
  crc.Update(payload);
  if (crc.value() != header.crc32) {
    return Status::InvalidArgument("frame CRC mismatch");
  }
  return Status::OK();
}

// ---- Message payloads ----------------------------------------------------
// Every public pair is its message's Encode and Decode; no payload has code
// of its own beyond its Fields list.

#define TIND_WIRE_PAYLOAD(M, EncodeName, DecodeName, what)             \
  std::string EncodeName(const M& message) { return Encode(message); } \
  Result<M> DecodeName(std::string_view payload) {                     \
    return Decode<M>(payload, what);                                   \
  }

TIND_WIRE_PAYLOAD(SearchRequest, EncodeSearchRequest, DecodeSearchRequest,
                  "search request")
TIND_WIRE_PAYLOAD(SearchStreamRequest, EncodeSearchStreamRequest,
                  DecodeSearchStreamRequest, "search stream request")
TIND_WIRE_PAYLOAD(SearchResponse, EncodeSearchResponse, DecodeSearchResponse,
                  "search response")
TIND_WIRE_PAYLOAD(SearchPartial, EncodeSearchPartial, DecodeSearchPartial,
                  "search partial")
TIND_WIRE_PAYLOAD(DiscoveryResponse, EncodeDiscoveryResponse,
                  DecodeDiscoveryResponse, "discovery response")
TIND_WIRE_PAYLOAD(RevisionDelta, EncodeApplyDeltaRequest,
                  DecodeApplyDeltaRequest, "apply-delta request")
TIND_WIRE_PAYLOAD(ApplyDeltaResponse, EncodeApplyDeltaResponse,
                  DecodeApplyDeltaResponse, "apply-delta response")

#undef TIND_WIRE_PAYLOAD

std::string EncodeErrorResponse(const Status& status) {
  return Encode(ErrorPayload{status.code(), status.message()});
}

Status DecodeErrorResponse(std::string_view payload) {
  TIND_ASSIGN_OR_RETURN(ErrorPayload error,
                        Decode<ErrorPayload>(payload, "error response"));
  if (error.code == StatusCode::kOk ||
      error.code > StatusCode::kDeadlineExceeded) {
    return Status::Internal("peer sent an error frame with code " +
                            std::to_string(static_cast<int>(error.code)) +
                            ": " + error.message);
  }
  return Status(error.code, std::move(error.message));
}

// ---- Sockets -------------------------------------------------------------

#if TIND_SERVE_HAVE_SOCKETS

namespace {

using Clock = std::chrono::steady_clock;

Status Errno(const std::string& what) {
  return Status::IOError(what + ": " + std::strerror(errno));
}

Status SetNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    return Errno("fcntl(O_NONBLOCK)");
  }
  return Status::OK();
}

/// Remaining milliseconds before `deadline` (>= 0), or -1 for "never".
int RemainingMs(bool has_deadline, Clock::time_point deadline) {
  if (!has_deadline) return -1;
  const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                        deadline - Clock::now())
                        .count();
  return left < 0 ? 0 : static_cast<int>(left);
}

/// Polls `fd` for `events`; OK when ready, DeadlineExceeded on timeout.
Status PollFor(int fd, short events, int timeout_ms) {
  struct pollfd pfd;
  pfd.fd = fd;
  pfd.events = events;
  pfd.revents = 0;
  for (;;) {
    const int rc = ::poll(&pfd, 1, timeout_ms);
    if (rc > 0) return Status::OK();
    if (rc == 0) return Status::DeadlineExceeded("socket poll timed out");
    if (errno != EINTR) return Errno("poll");
  }
}

}  // namespace

void CloseFd(int fd) {
  if (fd >= 0) ::close(fd);
}

Result<int> ListenTcp(uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Errno("socket");
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(fd, reinterpret_cast<struct sockaddr*>(&addr), sizeof(addr)) <
      0) {
    const Status status = Errno("bind 127.0.0.1:" + std::to_string(port));
    CloseFd(fd);
    return status;
  }
  if (::listen(fd, 128) < 0) {
    const Status status = Errno("listen");
    CloseFd(fd);
    return status;
  }
  const Status nb = SetNonBlocking(fd);
  if (!nb.ok()) {
    CloseFd(fd);
    return nb;
  }
  return fd;
}

Result<uint16_t> LocalPort(int fd) {
  struct sockaddr_in addr;
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<struct sockaddr*>(&addr), &len) < 0) {
    return Errno("getsockname");
  }
  return static_cast<uint16_t>(ntohs(addr.sin_port));
}

Result<int> AcceptConnection(int listen_fd, int timeout_ms) {
  TIND_RETURN_IF_ERROR(PollFor(listen_fd, POLLIN, timeout_ms));
  for (;;) {
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd >= 0) {
      const int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      const Status nb = SetNonBlocking(fd);
      if (!nb.ok()) {
        CloseFd(fd);
        return nb;
      }
      return fd;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      // Raced with another accept; treat as a timeout tick.
      return Status::DeadlineExceeded("accept raced");
    }
    return Errno("accept");
  }
}

Result<int> ConnectTcp(const std::string& host, uint16_t port,
                       int timeout_ms) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Errno("socket");
  const Status nb = SetNonBlocking(fd);
  if (!nb.ok()) {
    CloseFd(fd);
    return nb;
  }
  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    CloseFd(fd);
    return Status::InvalidArgument("not an IPv4 address: " + host);
  }
  if (::connect(fd, reinterpret_cast<struct sockaddr*>(&addr), sizeof(addr)) <
      0) {
    if (errno != EINPROGRESS) {
      const Status status = Errno("connect " + host);
      CloseFd(fd);
      return status;
    }
    const Status ready = PollFor(fd, POLLOUT, timeout_ms);
    if (!ready.ok()) {
      CloseFd(fd);
      return ready.IsDeadlineExceeded()
                 ? Status::DeadlineExceeded("connect timed out")
                 : ready;
    }
    int err = 0;
    socklen_t len = sizeof(err);
    if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len) < 0 || err != 0) {
      CloseFd(fd);
      return Status::IOError("connect " + host + ":" + std::to_string(port) +
                             ": " + std::strerror(err != 0 ? err : errno));
    }
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

Status SendAll(int fd, std::string_view bytes, int timeout_ms) {
  const bool has_deadline = timeout_ms >= 0;
  const Clock::time_point deadline =
      Clock::now() + std::chrono::milliseconds(timeout_ms);
  size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n = ::send(fd, bytes.data() + sent, bytes.size() - sent,
#if defined(MSG_NOSIGNAL)
                             MSG_NOSIGNAL
#else
                             0
#endif
    );
    if (n > 0) {
      sent += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      const Status ready =
          PollFor(fd, POLLOUT, RemainingMs(has_deadline, deadline));
      if (!ready.ok()) {
        return ready.IsDeadlineExceeded()
                   ? Status::DeadlineExceeded("send timed out")
                   : ready;
      }
      continue;
    }
    return Status::IOError(std::string("send: ") +
                           (n == 0 ? "connection closed"
                                   : std::strerror(errno)));
  }
  return Status::OK();
}

Status SendFrame(int fd, MessageType type, uint64_t request_id,
                 std::string_view payload, int timeout_ms) {
  return SendAll(fd, EncodeFrame(type, request_id, payload), timeout_ms);
}

Result<Frame> RecvFrame(int fd, int first_byte_timeout_ms,
                        int progress_timeout_ms) {
  // Phase 1: wait for the frame to start. A timeout here is benign — the
  // peer just has nothing to say yet.
  {
    const Status ready = PollFor(fd, POLLIN, first_byte_timeout_ms);
    if (!ready.ok()) return ready;
  }
  // Phase 2: once data is pending, the whole frame must complete within the
  // progress timeout — a peer that trickles bytes (slow loris) is cut off
  // with an IOError, not allowed to pin this reader forever.
  const bool has_deadline = progress_timeout_ms >= 0;
  const Clock::time_point deadline =
      Clock::now() + std::chrono::milliseconds(progress_timeout_ms);
  std::string header_bytes;
  header_bytes.resize(kFrameHeaderBytes);
  size_t got = 0;
  Frame frame;
  bool reading_header = true;
  for (;;) {
    char* buffer = reading_header ? header_bytes.data() : frame.payload.data();
    const size_t want =
        reading_header ? kFrameHeaderBytes : frame.payload.size();
    const ssize_t n = ::recv(fd, buffer + got, want - got, 0);
    if (n > 0) {
      got += static_cast<size_t>(n);
    } else if (n == 0) {
      if (reading_header && got == 0) {
        return Status::IOError("connection closed");
      }
      return Status::IOError("truncated frame: connection closed mid-frame");
    } else if (errno == EINTR) {
      continue;
    } else if (errno == EAGAIN || errno == EWOULDBLOCK) {
      const Status ready =
          PollFor(fd, POLLIN, RemainingMs(has_deadline, deadline));
      if (!ready.ok()) {
        return ready.IsDeadlineExceeded()
                   ? Status::IOError("frame stalled (slow peer)")
                   : ready;
      }
      continue;
    } else {
      return Errno("recv");
    }
    if (got < want) continue;
    if (!reading_header) break;
    // Header complete: validate it and size the payload buffer.
    TIND_ASSIGN_OR_RETURN(frame.header, DecodeFrameHeader(header_bytes));
    frame.payload.resize(frame.header.payload_bytes);
    reading_header = false;
    got = 0;
    if (frame.payload.empty()) break;
  }
  TIND_RETURN_IF_ERROR(
      VerifyFrameCrc(frame.header, header_bytes, frame.payload));
  return frame;
}

#else  // !TIND_SERVE_HAVE_SOCKETS

namespace {
Status NoSockets() {
  return Status::FailedPrecondition(
      "tIND serving requires POSIX sockets on this platform");
}
}  // namespace

void CloseFd(int) {}
Result<int> ListenTcp(uint16_t) { return NoSockets(); }
Result<uint16_t> LocalPort(int) { return NoSockets(); }
Result<int> AcceptConnection(int, int) { return NoSockets(); }
Result<int> ConnectTcp(const std::string&, uint16_t, int) {
  return NoSockets();
}
Status SendAll(int, std::string_view, int) { return NoSockets(); }
Status SendFrame(int, MessageType, uint64_t, std::string_view, int) {
  return NoSockets();
}
Result<Frame> RecvFrame(int, int, int) { return NoSockets(); }

#endif  // TIND_SERVE_HAVE_SOCKETS

}  // namespace tind::serve
