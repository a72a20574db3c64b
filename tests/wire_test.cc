#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "serve/wire.h"
#include "tind/update.h"

/// \file wire_test.cc
/// The serving wire protocol: frame encode/decode round-trips, corruption
/// rejection (bad magic, version, oversize, CRC bit flips), payload codec
/// round-trips, and the socket helpers' typed error taxonomy (idle
/// DeadlineExceeded vs slow-loris/truncation IOError).

namespace tind::serve {
namespace {

TEST(WireFrameTest, HeaderRoundTrip) {
  const std::string frame = EncodeFrame(MessageType::kSearch, 42, "payload");
  ASSERT_EQ(frame.size(), kFrameHeaderBytes + 7);
  auto header = DecodeFrameHeader(
      std::string_view(frame).substr(0, kFrameHeaderBytes));
  ASSERT_TRUE(header.ok()) << header.status().ToString();
  EXPECT_EQ(header->magic, kFrameMagic);
  EXPECT_EQ(header->version, kWireVersion);
  EXPECT_EQ(header->type, MessageType::kSearch);
  EXPECT_EQ(header->request_id, 42u);
  EXPECT_EQ(header->payload_bytes, 7u);
  EXPECT_TRUE(VerifyFrameCrc(*header,
                             std::string_view(frame).substr(0,
                                                            kFrameHeaderBytes),
                             "payload")
                  .ok());
}

TEST(WireFrameTest, MagicOnTheWireIsAscii) {
  const std::string frame = EncodeFrame(MessageType::kPing, 0, "");
  EXPECT_EQ(frame.substr(0, 4), "TIND");
}

TEST(WireFrameTest, RejectsBadMagicVersionAndOversize) {
  std::string frame = EncodeFrame(MessageType::kPing, 1, "");
  std::string bad_magic = frame;
  bad_magic[0] = 'X';
  EXPECT_TRUE(DecodeFrameHeader(std::string_view(bad_magic)
                                    .substr(0, kFrameHeaderBytes))
                  .status()
                  .IsInvalidArgument());
  std::string bad_version = frame;
  bad_version[4] = 9;
  EXPECT_TRUE(DecodeFrameHeader(std::string_view(bad_version)
                                    .substr(0, kFrameHeaderBytes))
                  .status()
                  .IsInvalidArgument());
  std::string oversize = frame;
  oversize[16] = '\xff';
  oversize[17] = '\xff';
  oversize[18] = '\xff';
  oversize[19] = '\x7f';
  EXPECT_TRUE(DecodeFrameHeader(std::string_view(oversize)
                                    .substr(0, kFrameHeaderBytes))
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(DecodeFrameHeader("short").status().IsInvalidArgument());
}

TEST(WireFrameTest, EveryBitFlipFailsTheCrc) {
  const std::string frame = EncodeFrame(MessageType::kSearch, 7, "abc");
  for (size_t bit = 0; bit < frame.size() * 8; ++bit) {
    std::string flipped = frame;
    flipped[bit / 8] = static_cast<char>(flipped[bit / 8] ^ (1 << (bit % 8)));
    const std::string_view header_bytes =
        std::string_view(flipped).substr(0, kFrameHeaderBytes);
    auto header = DecodeFrameHeader(header_bytes);
    if (!header.ok()) continue;  // Structural rejection is fine too.
    const Status crc = VerifyFrameCrc(
        *header, header_bytes,
        std::string_view(flipped).substr(kFrameHeaderBytes));
    EXPECT_FALSE(crc.ok()) << "undetected bit flip at " << bit;
  }
}

TEST(WirePayloadTest, SearchRequestRoundTrip) {
  SearchRequest request;
  request.attribute = 17;
  request.window_end = 25;
  request.epsilon = 2.75;
  request.delta = -3;
  request.deadline_ms = 150;
  request.allow_degraded = true;
  auto decoded = DecodeSearchRequest(EncodeSearchRequest(request));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->attribute, 17u);
  EXPECT_EQ(decoded->window_end, 25u);
  EXPECT_DOUBLE_EQ(decoded->epsilon, 2.75);
  EXPECT_EQ(decoded->delta, -3);
  EXPECT_EQ(decoded->deadline_ms, 150u);
  EXPECT_TRUE(decoded->allow_degraded);
  // Truncated and over-long payloads are both malformed.
  const std::string bytes = EncodeSearchRequest(request);
  EXPECT_TRUE(DecodeSearchRequest(bytes.substr(0, bytes.size() - 1))
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(DecodeSearchRequest(bytes + "x").status().IsInvalidArgument());
}

TEST(WirePayloadTest, SearchResponseRoundTrip) {
  SearchResponse response;
  response.degraded = true;
  response.ids = {1, 5, 9, 100000};
  auto decoded = DecodeSearchResponse(EncodeSearchResponse(response));
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(decoded->degraded);
  EXPECT_EQ(decoded->ids, response.ids);
  // A count that promises more ids than the payload carries is malformed.
  std::string bytes = EncodeSearchResponse(response);
  bytes.resize(bytes.size() - 2);
  EXPECT_TRUE(DecodeSearchResponse(bytes).status().IsInvalidArgument());
}

TEST(WirePayloadTest, DiscoveryResponseRoundTrip) {
  DiscoveryResponse response;
  response.pairs = {{1, 2}, {1, 7}, {3, 4}};
  auto decoded = DecodeDiscoveryResponse(EncodeDiscoveryResponse(response));
  ASSERT_TRUE(decoded.ok());
  EXPECT_FALSE(decoded->degraded);
  EXPECT_EQ(decoded->pairs, response.pairs);
}

TEST(WirePayloadTest, ErrorResponseCarriesTheStatusTaxonomy) {
  const std::vector<Status> statuses = {
      Status::InvalidArgument("bad attribute"),
      Status::ResourceExhausted("overloaded: queue full"),
      Status::OutOfMemory("overloaded: budget"),
      Status::DeadlineExceeded("too slow"),
      Status::NotFound("no such thing"),
  };
  for (const Status& status : statuses) {
    const Status decoded = DecodeErrorResponse(EncodeErrorResponse(status));
    EXPECT_EQ(decoded.code(), status.code()) << status.ToString();
    EXPECT_EQ(decoded.message(), status.message());
  }
  EXPECT_TRUE(DecodeErrorResponse("x").IsInvalidArgument());
}

/// Four 0xFF bytes: the largest u32 count a peer can claim.
const std::string kHugeCount(4, '\xff');

template <typename Decode>
void ExpectMalformedWithoutThrowing(Decode decode, const std::string& payload,
                                    const std::string& what) {
  bool invalid = false;
  EXPECT_NO_THROW(invalid = decode(payload).status().IsInvalidArgument())
      << what;
  EXPECT_TRUE(invalid) << what;
}

TEST(WirePayloadTest, HugeCountsAreMalformedWithoutAllocating) {
  // Every count is checked against the bytes that remain before anything is
  // reserved, so a tiny payload claiming 2^32-1 elements is malformed, not
  // an allocation failure.
  const auto delta = [](std::string_view p) {
    return DecodeApplyDeltaRequest(p);
  };
  ExpectMalformedWithoutThrowing(delta, kHugeCount, "op count");

  RevisionDelta append;
  append.ops.emplace_back();
  append.ops[0].attribute = 3;
  std::string huge_values = EncodeApplyDeltaRequest(append);
  huge_values.replace(huge_values.size() - 4, 4, kHugeCount);
  ExpectMalformedWithoutThrowing(delta, huge_values, "value count");

  RevisionDelta add;
  add.ops.emplace_back();
  add.ops[0].kind = RevisionOp::Kind::kAddAttribute;
  std::string huge_versions = EncodeApplyDeltaRequest(add);
  huge_versions.replace(huge_versions.size() - 4, 4, kHugeCount);
  ExpectMalformedWithoutThrowing(delta, huge_versions, "version count");

  ExpectMalformedWithoutThrowing(
      [](std::string_view p) { return DecodeSearchResponse(p); },
      std::string(1, '\0') + kHugeCount, "search response ids");
  ExpectMalformedWithoutThrowing(
      [](std::string_view p) { return DecodeSearchPartial(p); },
      std::string(1, '\0') + kHugeCount, "partial ids");
  ExpectMalformedWithoutThrowing(
      [](std::string_view p) { return DecodeDiscoveryResponse(p); },
      std::string(1, '\0') + kHugeCount, "discovery pairs");
}

#if defined(__unix__) || defined(__APPLE__)

class WireSocketTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto listen_fd = ListenTcp(0);
    ASSERT_TRUE(listen_fd.ok()) << listen_fd.status().ToString();
    listen_fd_ = *listen_fd;
    auto port = LocalPort(listen_fd_);
    ASSERT_TRUE(port.ok());
    auto client = ConnectTcp("127.0.0.1", *port, 1000);
    ASSERT_TRUE(client.ok()) << client.status().ToString();
    client_fd_ = *client;
    auto server = AcceptConnection(listen_fd_, 1000);
    ASSERT_TRUE(server.ok()) << server.status().ToString();
    server_fd_ = *server;
  }

  void TearDown() override {
    CloseFd(client_fd_);
    CloseFd(server_fd_);
    CloseFd(listen_fd_);
  }

  int listen_fd_ = -1;
  int client_fd_ = -1;
  int server_fd_ = -1;
};

TEST_F(WireSocketTest, FrameRoundTripOverTcp) {
  ASSERT_TRUE(
      SendFrame(client_fd_, MessageType::kSearch, 99, "hello", 1000).ok());
  auto frame = RecvFrame(server_fd_, 1000, 1000);
  ASSERT_TRUE(frame.ok()) << frame.status().ToString();
  EXPECT_EQ(frame->header.type, MessageType::kSearch);
  EXPECT_EQ(frame->header.request_id, 99u);
  EXPECT_EQ(frame->payload, "hello");
}

TEST_F(WireSocketTest, IdleSocketIsDeadlineExceeded) {
  const auto frame = RecvFrame(server_fd_, 30, 1000);
  EXPECT_TRUE(frame.status().IsDeadlineExceeded())
      << frame.status().ToString();
}

TEST_F(WireSocketTest, SlowLorisIsAnIOError) {
  // Send only 5 bytes of a frame, then stall: the progress timeout must
  // cut the receiver loose with an IOError, not let it wait forever.
  const std::string frame = EncodeFrame(MessageType::kSearch, 1, "abc");
  ASSERT_TRUE(SendAll(client_fd_, std::string_view(frame).substr(0, 5), 1000)
                  .ok());
  const auto received = RecvFrame(server_fd_, 1000, 50);
  EXPECT_TRUE(received.status().IsIOError()) << received.status().ToString();
  EXPECT_NE(received.status().message().find("stalled"), std::string::npos);
}

TEST_F(WireSocketTest, TruncatedFrameIsAnIOError) {
  const std::string frame = EncodeFrame(MessageType::kSearch, 1, "abcdef");
  ASSERT_TRUE(SendAll(client_fd_, std::string_view(frame).substr(0, 10), 1000)
                  .ok());
  CloseFd(client_fd_);
  client_fd_ = -1;
  const auto received = RecvFrame(server_fd_, 1000, 1000);
  EXPECT_TRUE(received.status().IsIOError()) << received.status().ToString();
}

TEST_F(WireSocketTest, CleanEofIsConnectionClosed) {
  CloseFd(client_fd_);
  client_fd_ = -1;
  const auto received = RecvFrame(server_fd_, 1000, 1000);
  ASSERT_TRUE(received.status().IsIOError());
  EXPECT_NE(received.status().message().find("connection closed"),
            std::string::npos);
}

TEST_F(WireSocketTest, CorruptFrameOverTcpIsInvalidArgument) {
  std::string frame = EncodeFrame(MessageType::kSearch, 5, "payload");
  frame[kFrameHeaderBytes + 2] ^= 0x10;  // Flip a payload bit.
  ASSERT_TRUE(SendAll(client_fd_, frame, 1000).ok());
  const auto received = RecvFrame(server_fd_, 1000, 1000);
  EXPECT_TRUE(received.status().IsInvalidArgument())
      << received.status().ToString();
}

#endif  // defined(__unix__) || defined(__APPLE__)

}  // namespace
}  // namespace tind::serve
