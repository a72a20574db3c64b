#include <gtest/gtest.h>

#include <cstdint>
#include <exception>
#include <functional>
#include <random>
#include <string>
#include <string_view>
#include <vector>

#include "serve/wire.h"
#include "tind/update.h"

/// \file wire_mutation_test.cc
/// Seeded mutation test of every wire decoder. Seeds are the outputs of the
/// matching Encode* functions; each is mutated by bit flips, truncations,
/// splices with another seed, length-field tampering and byte insertions.
/// For every mutant:
///  * the decoder returns (never throws), and a rejection is a typed
///    InvalidArgument;
///  * an accepted payload round-trips: decode → encode → decode succeeds and
///    re-encodes to the same bytes.
/// Fixed seeds keep it deterministic; it runs in well under a second, so the
/// sanitizer builds run it as an ordinary ctest.

namespace tind::serve {
namespace {

constexpr size_t kMutantsPerSeed = 1500;

/// Decodes a payload; on success stores the re-encoding of the decoded value.
using DecodeFn = std::function<Status(std::string_view, std::string*)>;

struct Codec {
  std::string name;
  DecodeFn decode;
  std::vector<std::string> seeds;
};

template <typename Decode, typename Encode>
DecodeFn Wrap(Decode decode, Encode encode) {
  return [decode, encode](std::string_view payload, std::string* out) {
    auto decoded = decode(payload);
    if (!decoded.ok()) return decoded.status();
    *out = encode(*decoded);
    return Status::OK();
  };
}

Status DecodeFrame(std::string_view bytes, std::string* out) {
  if (bytes.size() < kFrameHeaderBytes) {
    return Status::InvalidArgument("short frame");
  }
  const std::string_view header_bytes = bytes.substr(0, kFrameHeaderBytes);
  const std::string_view payload = bytes.substr(kFrameHeaderBytes);
  TIND_ASSIGN_OR_RETURN(FrameHeader header, DecodeFrameHeader(header_bytes));
  if (payload.size() != header.payload_bytes) {
    return Status::InvalidArgument("payload length mismatch");
  }
  TIND_RETURN_IF_ERROR(VerifyFrameCrc(header, header_bytes, payload));
  *out = EncodeFrame(header.type, header.request_id, payload);
  return Status::OK();
}

RevisionDelta SeedDelta() {
  RevisionDelta delta;
  RevisionOp append;
  append.attribute = 7;
  append.timestamp = 40;
  append.values = {"Berlin", "Paris", ""};
  delta.ops.push_back(append);
  RevisionOp add;
  add.kind = RevisionOp::Kind::kAddAttribute;
  add.meta.page = "Capitals";
  add.meta.table = "t0";
  add.meta.column = "city";
  add.versions = {{0, {"Rome"}}, {12, {"Rome", "Oslo"}}};
  delta.ops.push_back(add);
  RevisionOp retire;
  retire.kind = RevisionOp::Kind::kRetireAttribute;
  retire.attribute = 2;
  retire.timestamp = 99;
  delta.ops.push_back(retire);
  return delta;
}

std::vector<Codec> AllCodecs() {
  std::vector<Codec> codecs;

  SearchRequest request;
  request.attribute = 17;
  request.window_end = 25;
  request.epsilon = 2.75;
  request.delta = 7;
  request.deadline_ms = 150;
  request.allow_degraded = true;
  codecs.push_back({"search request",
                    Wrap(DecodeSearchRequest, EncodeSearchRequest),
                    {EncodeSearchRequest(request),
                     EncodeSearchRequest(SearchRequest{})}});

  SearchStreamRequest stream;
  stream.base = request;
  stream.reverse = true;
  codecs.push_back({"search stream request",
                    Wrap(DecodeSearchStreamRequest, EncodeSearchStreamRequest),
                    {EncodeSearchStreamRequest(stream)}});

  SearchResponse response;
  response.degraded = true;
  response.ids = {1, 5, 9, 100000};
  codecs.push_back({"search response",
                    Wrap(DecodeSearchResponse, EncodeSearchResponse),
                    {EncodeSearchResponse(response),
                     EncodeSearchResponse(SearchResponse{})}});

  SearchPartial partial;
  partial.stage = 0;
  partial.ids = {2, 3, 5, 7, 11};
  codecs.push_back({"search partial",
                    Wrap(DecodeSearchPartial, EncodeSearchPartial),
                    {EncodeSearchPartial(partial)}});

  DiscoveryResponse discovery;
  discovery.pairs = {{1, 2}, {1, 7}, {3, 4}};
  codecs.push_back({"discovery response",
                    Wrap(DecodeDiscoveryResponse, EncodeDiscoveryResponse),
                    {EncodeDiscoveryResponse(discovery)}});

  codecs.push_back({"apply-delta request",
                    Wrap(DecodeApplyDeltaRequest, EncodeApplyDeltaRequest),
                    {EncodeApplyDeltaRequest(SeedDelta()),
                     EncodeApplyDeltaRequest(RevisionDelta{})}});

  ApplyDeltaResponse applied;
  applied.sequence = 3;
  applied.attributes_touched = 4;
  applied.slices_patched = 2;
  codecs.push_back({"apply-delta response",
                    Wrap(DecodeApplyDeltaResponse, EncodeApplyDeltaResponse),
                    {EncodeApplyDeltaResponse(applied)}});

  // An error payload always decodes to some Status; the round trip is over
  // that Status.
  codecs.push_back(
      {"error response",
       [](std::string_view payload, std::string* out) {
         *out = EncodeErrorResponse(DecodeErrorResponse(payload));
         return Status::OK();
       },
       {EncodeErrorResponse(Status::DeadlineExceeded("too slow")),
        EncodeErrorResponse(Status::InvalidArgument(""))}});

  codecs.push_back(
      {"frame",
       DecodeFrame,
       {EncodeFrame(MessageType::kSearch, 42, EncodeSearchRequest(request)),
        EncodeFrame(MessageType::kPing, 1, "")}});
  return codecs;
}

/// One mutation of `seed`, drawn from `rng`; `others` supplies splice donors.
std::string Mutate(const std::string& seed,
                   const std::vector<std::string>& others,
                   std::mt19937_64& rng) {
  std::string m = seed;
  const auto pick = [&rng](size_t n) { return n == 0 ? 0 : rng() % n; };
  switch (rng() % 5) {
    case 0: {  // Flip one to three bits.
      if (m.empty()) break;
      const size_t flips = 1 + pick(3);
      for (size_t i = 0; i < flips; ++i) {
        m[pick(m.size())] ^= static_cast<char>(1u << pick(8));
      }
      break;
    }
    case 1:  // Truncate.
      m.resize(pick(m.size() + 1));
      break;
    case 2: {  // Splice a prefix of this seed onto a suffix of another.
      const std::string& donor = others[pick(others.size())];
      m = m.substr(0, pick(m.size() + 1)) +
          donor.substr(pick(donor.size() + 1));
      break;
    }
    case 3: {  // Overwrite four bytes with a hostile length.
      if (m.size() < 4) break;
      static constexpr uint32_t kLengths[] = {0xFFFFFFFFu, 0x80000000u,
                                              0x7FFFFFFFu, 0x00010000u,
                                              0x00000100u, 0u};
      uint32_t v = kLengths[pick(std::size(kLengths))];
      if (rng() % 4 == 0) v = static_cast<uint32_t>(m.size() + pick(16));
      const size_t at = pick(m.size() - 3);
      for (size_t i = 0; i < 4; ++i) {
        m[at + i] = static_cast<char>(v >> (8 * i));
      }
      break;
    }
    default: {  // Insert one to four random bytes.
      const size_t n = 1 + pick(4);
      std::string bytes;
      for (size_t i = 0; i < n; ++i) bytes.push_back(static_cast<char>(rng()));
      m.insert(pick(m.size() + 1), bytes);
      break;
    }
  }
  return m;
}

std::string Hex(std::string_view bytes) {
  static const char kDigits[] = "0123456789abcdef";
  std::string out;
  for (const char c : bytes.substr(0, 64)) {
    out.push_back(kDigits[static_cast<uint8_t>(c) >> 4]);
    out.push_back(kDigits[static_cast<uint8_t>(c) & 15]);
  }
  return bytes.size() > 64 ? out + "..." : out;
}

/// Checks one payload; returns an empty string or what went wrong.
std::string Check(const Codec& codec, std::string_view payload,
                  bool* accepted) {
  std::string encoded;
  Status status;
  try {
    status = codec.decode(payload, &encoded);
  } catch (const std::exception& e) {
    return std::string("decoder threw ") + e.what();
  }
  *accepted = status.ok();
  if (!status.ok()) {
    return status.IsInvalidArgument() ? "" : "untyped rejection " +
                                                 status.ToString();
  }
  std::string reencoded;
  Status again;
  try {
    again = codec.decode(encoded, &reencoded);
  } catch (const std::exception& e) {
    return std::string("re-decode threw ") + e.what();
  }
  if (!again.ok()) return "re-encoding rejected: " + again.ToString();
  if (reencoded != encoded) return "round trip changed the bytes";
  return "";
}

TEST(WireMutationTest, EveryDecoderReturnsTypedStatusAndRoundTrips) {
  for (const Codec& codec : AllCodecs()) {
    SCOPED_TRACE(codec.name);
    std::mt19937_64 rng(0x7D1Du);
    size_t accepted_mutants = 0;
    size_t failures = 0;
    for (const std::string& seed : codec.seeds) {
      bool accepted = false;
      EXPECT_EQ(Check(codec, seed, &accepted), "") << Hex(seed);
      EXPECT_TRUE(accepted) << "unmutated seed rejected: " << Hex(seed);
      for (size_t i = 0; i < kMutantsPerSeed && failures < 5; ++i) {
        const std::string mutant = Mutate(seed, codec.seeds, rng);
        const std::string problem = Check(codec, mutant, &accepted);
        if (!problem.empty()) {
          ++failures;
          ADD_FAILURE() << problem << " on " << Hex(mutant);
        }
        if (accepted) ++accepted_mutants;
      }
    }
    // Some mutants must survive decoding, or the round trip is untested.
    EXPECT_GT(accepted_mutants, 0u);
  }
}

}  // namespace
}  // namespace tind::serve
