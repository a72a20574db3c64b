#include "serve/wire.h"

#include <cerrno>
#include <chrono>
#include <cstring>

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

// ---- Little-endian scalar packing ----------------------------------------
// Explicit byte-at-a-time packing so the wire format is identical across
// hosts, matching the snapshot format's convention.

void PutU8(std::string* out, uint8_t v) {
  out->push_back(static_cast<char>(v));
}

void PutU16(std::string* out, uint16_t v) {
  PutU8(out, static_cast<uint8_t>(v));
  PutU8(out, static_cast<uint8_t>(v >> 8));
}

void PutU32(std::string* out, uint32_t v) {
  PutU16(out, static_cast<uint16_t>(v));
  PutU16(out, static_cast<uint16_t>(v >> 16));
}

void PutU64(std::string* out, uint64_t v) {
  PutU32(out, static_cast<uint32_t>(v));
  PutU32(out, static_cast<uint32_t>(v >> 32));
}

void PutF64(std::string* out, double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  PutU64(out, bits);
}

/// Cursor over a payload; every Get fails cleanly on short input.
class Reader {
 public:
  explicit Reader(std::string_view bytes) : bytes_(bytes) {}

  bool GetU8(uint8_t* v) {
    if (bytes_.size() < 1) return false;
    *v = static_cast<uint8_t>(bytes_[0]);
    bytes_.remove_prefix(1);
    return true;
  }
  bool GetU16(uint16_t* v) {
    uint8_t lo = 0, hi = 0;
    if (!GetU8(&lo) || !GetU8(&hi)) return false;
    *v = static_cast<uint16_t>(lo | (static_cast<uint16_t>(hi) << 8));
    return true;
  }
  bool GetU32(uint32_t* v) {
    uint16_t lo = 0, hi = 0;
    if (!GetU16(&lo) || !GetU16(&hi)) return false;
    *v = lo | (static_cast<uint32_t>(hi) << 16);
    return true;
  }
  bool GetU64(uint64_t* v) {
    uint32_t lo = 0, hi = 0;
    if (!GetU32(&lo) || !GetU32(&hi)) return false;
    *v = lo | (static_cast<uint64_t>(hi) << 32);
    return true;
  }
  bool GetF64(double* v) {
    uint64_t bits = 0;
    if (!GetU64(&bits)) return false;
    std::memcpy(v, &bits, sizeof(*v));
    return true;
  }
  bool GetBytes(size_t n, std::string_view* out) {
    if (bytes_.size() < n) return false;
    *out = bytes_.substr(0, n);
    bytes_.remove_prefix(n);
    return true;
  }
  /// Reads a u32 element count and rejects it unless `count` elements of
  /// at least `min_bytes` each fit in what remains, so a caller may
  /// reserve(count) without trusting the peer.
  bool GetCount(size_t min_bytes, uint32_t* count) {
    return GetU32(count) && *count <= bytes_.size() / min_bytes;
  }
  bool empty() const { return bytes_.empty(); }

 private:
  std::string_view bytes_;
};

Status Malformed(const std::string& what) {
  return Status::InvalidArgument("malformed " + what + " payload");
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
  std::string out;
  out.reserve(kFrameHeaderBytes + payload.size());
  PutU32(&out, kFrameMagic);
  PutU8(&out, kWireVersion);
  PutU8(&out, static_cast<uint8_t>(type));
  PutU16(&out, 0);  // flags (reserved)
  PutU64(&out, request_id);
  PutU32(&out, static_cast<uint32_t>(payload.size()));
  // CRC over the header-so-far plus the payload; the CRC field itself is
  // not covered (it is appended after).
  Crc32 crc;
  crc.Update(out);
  crc.Update(payload);
  PutU32(&out, crc.value());
  out.append(payload);
  return out;
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
  uint8_t type = 0;
  reader.GetU32(&header.magic);
  reader.GetU8(&header.version);
  reader.GetU8(&type);
  reader.GetU16(&header.flags);
  reader.GetU64(&header.request_id);
  reader.GetU32(&header.payload_bytes);
  reader.GetU32(&header.crc32);
  header.type = static_cast<MessageType>(type);
  if (header.magic != kFrameMagic) {
    return Status::InvalidArgument("bad frame magic");
  }
  if (header.version != kWireVersion) {
    return Status::InvalidArgument("unsupported wire version " +
                                   std::to_string(header.version));
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

std::string EncodeSearchRequest(const SearchRequest& request) {
  std::string out;
  PutU32(&out, request.attribute);
  PutU32(&out, request.window_end);
  PutF64(&out, request.epsilon);
  PutU64(&out, static_cast<uint64_t>(request.delta));
  PutU32(&out, request.deadline_ms);
  PutU8(&out, request.allow_degraded ? 1 : 0);
  return out;
}

Result<SearchRequest> DecodeSearchRequest(std::string_view payload) {
  Reader reader(payload);
  SearchRequest request;
  uint64_t delta_bits = 0;
  uint8_t flags = 0;
  if (!reader.GetU32(&request.attribute) || !reader.GetU32(&request.window_end) ||
      !reader.GetF64(&request.epsilon) || !reader.GetU64(&delta_bits) ||
      !reader.GetU32(&request.deadline_ms) || !reader.GetU8(&flags) ||
      !reader.empty()) {
    return Malformed("search request");
  }
  request.delta = static_cast<int64_t>(delta_bits);
  request.allow_degraded = (flags & 1) != 0;
  return request;
}

std::string EncodeSearchResponse(const SearchResponse& response) {
  std::string out;
  PutU8(&out, response.degraded ? 1 : 0);
  PutU32(&out, static_cast<uint32_t>(response.ids.size()));
  for (AttributeId id : response.ids) PutU32(&out, id);
  return out;
}

Result<SearchResponse> DecodeSearchResponse(std::string_view payload) {
  Reader reader(payload);
  SearchResponse response;
  uint8_t flags = 0;
  uint32_t count = 0;
  if (!reader.GetU8(&flags) || !reader.GetCount(4, &count)) {
    return Malformed("search response");
  }
  response.degraded = (flags & 1) != 0;
  response.ids.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    AttributeId id = 0;
    if (!reader.GetU32(&id)) return Malformed("search response");
    response.ids.push_back(id);
  }
  if (!reader.empty()) return Malformed("search response");
  return response;
}

std::string EncodeSearchStreamRequest(const SearchStreamRequest& request) {
  std::string out;
  PutU32(&out, request.base.attribute);
  PutU32(&out, request.base.window_end);
  PutF64(&out, request.base.epsilon);
  PutU64(&out, static_cast<uint64_t>(request.base.delta));
  PutU32(&out, request.base.deadline_ms);
  uint8_t flags = request.base.allow_degraded ? 1 : 0;
  if (request.reverse) flags |= 2;
  PutU8(&out, flags);
  return out;
}

Result<SearchStreamRequest> DecodeSearchStreamRequest(
    std::string_view payload) {
  Reader reader(payload);
  SearchStreamRequest request;
  uint64_t delta_bits = 0;
  uint8_t flags = 0;
  if (!reader.GetU32(&request.base.attribute) ||
      !reader.GetU32(&request.base.window_end) ||
      !reader.GetF64(&request.base.epsilon) || !reader.GetU64(&delta_bits) ||
      !reader.GetU32(&request.base.deadline_ms) || !reader.GetU8(&flags) ||
      !reader.empty()) {
    return Malformed("search stream request");
  }
  request.base.delta = static_cast<int64_t>(delta_bits);
  request.base.allow_degraded = (flags & 1) != 0;
  request.reverse = (flags & 2) != 0;
  return request;
}

std::string EncodeSearchPartial(const SearchPartial& partial) {
  std::string out;
  PutU8(&out, partial.stage);
  PutU32(&out, static_cast<uint32_t>(partial.ids.size()));
  for (AttributeId id : partial.ids) PutU32(&out, id);
  return out;
}

Result<SearchPartial> DecodeSearchPartial(std::string_view payload) {
  Reader reader(payload);
  SearchPartial partial;
  uint32_t count = 0;
  if (!reader.GetU8(&partial.stage) || !reader.GetCount(4, &count)) {
    return Malformed("search partial");
  }
  partial.ids.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    AttributeId id = 0;
    if (!reader.GetU32(&id)) return Malformed("search partial");
    partial.ids.push_back(id);
  }
  if (!reader.empty()) return Malformed("search partial");
  return partial;
}

std::string EncodeDiscoveryResponse(const DiscoveryResponse& response) {
  std::string out;
  PutU8(&out, response.degraded ? 1 : 0);
  PutU32(&out, static_cast<uint32_t>(response.pairs.size()));
  for (const TindPair& pair : response.pairs) {
    PutU32(&out, pair.lhs);
    PutU32(&out, pair.rhs);
  }
  return out;
}

Result<DiscoveryResponse> DecodeDiscoveryResponse(std::string_view payload) {
  Reader reader(payload);
  DiscoveryResponse response;
  uint8_t flags = 0;
  uint32_t count = 0;
  if (!reader.GetU8(&flags) || !reader.GetCount(8, &count)) {
    return Malformed("discovery response");
  }
  response.degraded = (flags & 1) != 0;
  response.pairs.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    TindPair pair{0, 0};
    if (!reader.GetU32(&pair.lhs) || !reader.GetU32(&pair.rhs)) {
      return Malformed("discovery response");
    }
    response.pairs.push_back(pair);
  }
  if (!reader.empty()) return Malformed("discovery response");
  return response;
}

namespace {

void PutString(std::string* out, std::string_view s) {
  PutU32(out, static_cast<uint32_t>(s.size()));
  out->append(s);
}

bool GetString(Reader* reader, std::string* out) {
  uint32_t length = 0;
  std::string_view bytes;
  if (!reader->GetU32(&length) || !reader->GetBytes(length, &bytes)) {
    return false;
  }
  out->assign(bytes);
  return true;
}

void PutValueList(std::string* out, const std::vector<std::string>& values) {
  PutU32(out, static_cast<uint32_t>(values.size()));
  for (const std::string& v : values) PutString(out, v);
}

bool GetValueList(Reader* reader, std::vector<std::string>* out) {
  uint32_t count = 0;
  if (!reader->GetCount(4, &count)) return false;  // u32 length per value.
  out->clear();
  out->reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    std::string value;
    if (!GetString(reader, &value)) return false;
    out->push_back(std::move(value));
  }
  return true;
}

}  // namespace

std::string EncodeApplyDeltaRequest(const RevisionDelta& delta) {
  std::string out;
  PutU32(&out, static_cast<uint32_t>(delta.ops.size()));
  for (const RevisionOp& op : delta.ops) {
    PutU8(&out, static_cast<uint8_t>(op.kind));
    switch (op.kind) {
      case RevisionOp::Kind::kAppendVersion:
        PutU32(&out, op.attribute);
        PutU64(&out, static_cast<uint64_t>(op.timestamp));
        PutValueList(&out, op.values);
        break;
      case RevisionOp::Kind::kAddAttribute:
        PutString(&out, op.meta.page);
        PutString(&out, op.meta.table);
        PutString(&out, op.meta.column);
        PutU32(&out, static_cast<uint32_t>(op.versions.size()));
        for (const auto& [t, values] : op.versions) {
          PutU64(&out, static_cast<uint64_t>(t));
          PutValueList(&out, values);
        }
        break;
      case RevisionOp::Kind::kRetireAttribute:
        PutU32(&out, op.attribute);
        PutU64(&out, static_cast<uint64_t>(op.timestamp));
        break;
    }
  }
  return out;
}

Result<RevisionDelta> DecodeApplyDeltaRequest(std::string_view payload) {
  Reader reader(payload);
  RevisionDelta delta;
  uint32_t num_ops = 0;
  // The smallest op (retire) is 13 bytes: kind, attribute, timestamp.
  if (!reader.GetCount(13, &num_ops)) {
    return Malformed("apply-delta request");
  }
  delta.ops.reserve(num_ops);
  for (uint32_t i = 0; i < num_ops; ++i) {
    uint8_t kind = 0;
    if (!reader.GetU8(&kind)) return Malformed("apply-delta request");
    RevisionOp op;
    uint64_t timestamp_bits = 0;
    switch (kind) {
      case static_cast<uint8_t>(RevisionOp::Kind::kAppendVersion):
        op.kind = RevisionOp::Kind::kAppendVersion;
        if (!reader.GetU32(&op.attribute) || !reader.GetU64(&timestamp_bits) ||
            !GetValueList(&reader, &op.values)) {
          return Malformed("apply-delta request");
        }
        op.timestamp = static_cast<Timestamp>(timestamp_bits);
        break;
      case static_cast<uint8_t>(RevisionOp::Kind::kAddAttribute): {
        op.kind = RevisionOp::Kind::kAddAttribute;
        uint32_t num_versions = 0;
        if (!GetString(&reader, &op.meta.page) ||
            !GetString(&reader, &op.meta.table) ||
            !GetString(&reader, &op.meta.column) ||
            !reader.GetCount(12, &num_versions)) {  // Timestamp + count.
          return Malformed("apply-delta request");
        }
        op.versions.reserve(num_versions);
        for (uint32_t v = 0; v < num_versions; ++v) {
          std::vector<std::string> values;
          if (!reader.GetU64(&timestamp_bits) ||
              !GetValueList(&reader, &values)) {
            return Malformed("apply-delta request");
          }
          op.versions.emplace_back(static_cast<Timestamp>(timestamp_bits),
                                   std::move(values));
        }
        break;
      }
      case static_cast<uint8_t>(RevisionOp::Kind::kRetireAttribute):
        op.kind = RevisionOp::Kind::kRetireAttribute;
        if (!reader.GetU32(&op.attribute) || !reader.GetU64(&timestamp_bits)) {
          return Malformed("apply-delta request");
        }
        op.timestamp = static_cast<Timestamp>(timestamp_bits);
        break;
      default:
        return Malformed("apply-delta request");
    }
    delta.ops.push_back(std::move(op));
  }
  if (!reader.empty()) return Malformed("apply-delta request");
  return delta;
}

std::string EncodeApplyDeltaResponse(const ApplyDeltaResponse& response) {
  std::string out;
  PutU64(&out, response.sequence);
  PutU32(&out, response.attributes_touched);
  PutU32(&out, response.attributes_added);
  PutU32(&out, response.attributes_retired);
  PutU32(&out, response.versions_appended);
  PutU32(&out, response.slices_patched);
  PutU32(&out, response.slices_skipped);
  PutU32(&out, response.slices_rebuilt);
  PutU32(&out, response.columns_reset);
  return out;
}

Result<ApplyDeltaResponse> DecodeApplyDeltaResponse(std::string_view payload) {
  Reader reader(payload);
  ApplyDeltaResponse response;
  if (!reader.GetU64(&response.sequence) ||
      !reader.GetU32(&response.attributes_touched) ||
      !reader.GetU32(&response.attributes_added) ||
      !reader.GetU32(&response.attributes_retired) ||
      !reader.GetU32(&response.versions_appended) ||
      !reader.GetU32(&response.slices_patched) ||
      !reader.GetU32(&response.slices_skipped) ||
      !reader.GetU32(&response.slices_rebuilt) ||
      !reader.GetU32(&response.columns_reset) || !reader.empty()) {
    return Malformed("apply-delta response");
  }
  return response;
}

std::string EncodeErrorResponse(const Status& status) {
  std::string out;
  PutU8(&out, static_cast<uint8_t>(status.code()));
  const std::string& message = status.message();
  PutU32(&out, static_cast<uint32_t>(message.size()));
  out.append(message);
  return out;
}

Status DecodeErrorResponse(std::string_view payload) {
  Reader reader(payload);
  uint8_t code = 0;
  uint32_t length = 0;
  std::string_view message;
  if (!reader.GetU8(&code) || !reader.GetU32(&length) ||
      !reader.GetBytes(length, &message) || !reader.empty()) {
    return Malformed("error response");
  }
  const StatusCode status_code = static_cast<StatusCode>(code);
  if (status_code == StatusCode::kOk ||
      status_code > StatusCode::kDeadlineExceeded) {
    return Status::Internal("peer sent an error frame with code " +
                            std::to_string(code) + ": " +
                            std::string(message));
  }
  return Status(status_code, std::string(message));
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
  std::string payload;
  bool reading_header = true;
  for (;;) {
    char* buffer = reading_header ? header_bytes.data() : payload.data();
    const size_t want =
        reading_header ? kFrameHeaderBytes : payload.size();
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
    Frame probe;
    TIND_ASSIGN_OR_RETURN(probe.header, DecodeFrameHeader(header_bytes));
    payload.resize(probe.header.payload_bytes);
    reading_header = false;
    got = 0;
    if (payload.empty()) break;
  }
  Frame frame;
  TIND_ASSIGN_OR_RETURN(frame.header, DecodeFrameHeader(header_bytes));
  TIND_RETURN_IF_ERROR(VerifyFrameCrc(frame.header, header_bytes, payload));
  frame.payload = std::move(payload);
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
