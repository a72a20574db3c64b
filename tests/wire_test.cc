#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "serve/wire.h"
#include "tind/update.h"

/// \file wire_test.cc
/// The serving wire protocol: frame encode/decode round-trips, corruption
/// rejection (bad magic, version, reserved flags, oversize, CRC bit flips),
/// payload codec round-trips, undefined flag bits, the pinned bytes of every
/// encoder, and the socket helpers' typed error taxonomy (idle
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

TEST(WireFrameTest, RejectsReservedHeaderFlags) {
  // Header bytes [6, 8) are the reserved flags u16; every encoder writes 0.
  for (const size_t at : {6, 7}) {
    std::string frame = EncodeFrame(MessageType::kPing, 1, "");
    frame[at] = 1;
    EXPECT_TRUE(DecodeFrameHeader(std::string_view(frame)
                                      .substr(0, kFrameHeaderBytes))
                    .status()
                    .IsInvalidArgument())
        << "flags byte " << at;
  }
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

std::string Hex(std::string_view bytes) {
  static const char kDigits[] = "0123456789abcdef";
  std::string out;
  for (const char c : bytes) {
    out.push_back(kDigits[static_cast<uint8_t>(c) >> 4]);
    out.push_back(kDigits[static_cast<uint8_t>(c) & 15]);
  }
  return out;
}

TEST(WireGoldenTest, EveryEncoderMatchesPinnedBytes) {
  // Round trips cannot catch a layout change made on both sides at once;
  // these strings pin the bytes every encoder puts on the wire.
  SearchRequest request;
  request.attribute = 17;
  request.window_end = 25;
  request.epsilon = 2.75;
  request.delta = -3;
  request.deadline_ms = 150;
  request.allow_degraded = true;
  SearchStreamRequest forward;
  forward.base = request;
  SearchStreamRequest reverse;
  reverse.reverse = true;

  SearchResponse response;
  response.degraded = true;
  response.ids = {1, 5, 9, 100000};
  SearchPartial partial;
  partial.stage = 2;
  partial.ids = {2, 3};
  DiscoveryResponse discovery;
  discovery.pairs = {{1, 2}, {3, 70000}};

  RevisionDelta delta;
  RevisionOp append;
  append.attribute = 7;
  append.timestamp = -5;
  append.values = {"Berlin", ""};
  delta.ops.push_back(append);
  RevisionOp add;
  add.kind = RevisionOp::Kind::kAddAttribute;
  add.meta = {"P", "t", "c"};
  add.versions = {{0, {"Rome"}}, {12, {}}};
  delta.ops.push_back(add);
  RevisionOp retire;
  retire.kind = RevisionOp::Kind::kRetireAttribute;
  retire.attribute = 2;
  retire.timestamp = 99;
  delta.ops.push_back(retire);

  ApplyDeltaResponse applied;
  applied.sequence = 0x123456789ull;
  applied.attributes_touched = 1;
  applied.attributes_added = 2;
  applied.attributes_retired = 3;
  applied.versions_appended = 4;
  applied.slices_patched = 5;
  applied.slices_skipped = 6;
  applied.slices_rebuilt = 7;
  applied.columns_reset = 8;

  const std::vector<std::pair<std::string, std::string>> cases = {
      {EncodeSearchRequest(SearchRequest{}),
       "0000000000000000000000000000084007000000000000000000000000"},
      {EncodeSearchRequest(request),
       "11000000190000000000000000000640fdffffffffffffff9600000001"},
      {EncodeSearchStreamRequest(forward),
       "11000000190000000000000000000640fdffffffffffffff9600000001"},
      {EncodeSearchStreamRequest(reverse),
       "0000000000000000000000000000084007000000000000000000000002"},
      {EncodeSearchResponse(response),
       "0104000000010000000500000009000000a0860100"},
      {EncodeSearchPartial(partial), "02020000000200000003000000"},
      {EncodeDiscoveryResponse(discovery),
       "000200000001000000020000000300000070110100"},
      {EncodeApplyDeltaRequest(delta),
       "03000000"
       "0007000000fbffffffffffffff02000000060000004265726c696e00000000"
       "01010000005001000000740100000063"
       "0200000000000000000000000100000004000000526f6d65"
       "0c0000000000000000000000"
       "02020000006300000000000000"},
      {EncodeApplyDeltaResponse(applied),
       "8967452301000000"
       "0100000002000000030000000400000005000000060000000700000008000000"},
      {EncodeErrorResponse(Status::NotFound("gone")), "0204000000676f6e65"},
      {EncodeFrame(MessageType::kSearchPartial, 0x0102030405060708ull, "ab"),
       "54494e4401160000080706050403020102000000736449986162"},
  };
  for (size_t i = 0; i < cases.size(); ++i) {
    EXPECT_EQ(Hex(cases[i].first), cases[i].second) << "case " << i;
  }
}

TEST(WirePayloadTest, UndefinedFlagBitsAreRejected) {
  // A flag byte carries only the bits its message defines; any other bit
  // is reserved, so a peer setting one is rejected rather than ignored.
  std::string search = EncodeSearchRequest(SearchRequest{});
  search.back() = 2;  // The stream request's `reverse` bit.
  EXPECT_TRUE(DecodeSearchRequest(search).status().IsInvalidArgument());

  SearchStreamRequest stream;
  stream.base.allow_degraded = true;
  stream.reverse = true;
  std::string stream_bytes = EncodeSearchStreamRequest(stream);
  ASSERT_TRUE(DecodeSearchStreamRequest(stream_bytes).ok());
  stream_bytes.back() |= 4;
  EXPECT_TRUE(
      DecodeSearchStreamRequest(stream_bytes).status().IsInvalidArgument());

  for (const char flags : {'\x02', '\x80'}) {
    std::string response = EncodeSearchResponse(SearchResponse{});
    response[0] = flags;
    EXPECT_TRUE(DecodeSearchResponse(response).status().IsInvalidArgument());
    std::string discovery = EncodeDiscoveryResponse(DiscoveryResponse{});
    discovery[0] = flags;
    EXPECT_TRUE(
        DecodeDiscoveryResponse(discovery).status().IsInvalidArgument());
  }
}

TEST(WirePayloadTest, CountsAdmitListsOfTheSmallestItems) {
  // A list's count is bounded by the smallest item it can hold: a retire op
  // (13 bytes), a seeded version with no values (12), an empty string (4).
  // A bound taken from a larger item would reject these valid deltas.
  RevisionDelta retires;
  for (AttributeId a = 0; a < 3; ++a) {
    RevisionOp op;
    op.kind = RevisionOp::Kind::kRetireAttribute;
    op.attribute = a;
    retires.ops.push_back(op);
  }
  RevisionOp add;
  add.kind = RevisionOp::Kind::kAddAttribute;
  add.versions = {{1, {}}, {2, {}}};
  RevisionOp append;
  append.values = {"", ""};
  for (const RevisionDelta& delta :
       {retires, RevisionDelta{{add}}, RevisionDelta{{append}}}) {
    const std::string bytes = EncodeApplyDeltaRequest(delta);
    auto decoded = DecodeApplyDeltaRequest(bytes);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_EQ(EncodeApplyDeltaRequest(*decoded), bytes);
  }
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
