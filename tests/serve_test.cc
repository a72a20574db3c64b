#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/fault_injection.h"
#include "obs/metrics.h"
#include "scenario/mutate.h"
#include "serve/client.h"
#include "serve/load.h"
#include "serve/server.h"
#include "serve/wire.h"
#include "temporal/weights.h"
#include "tind/discovery.h"
#include "tind/index.h"
#include "tind/progressive.h"
#include "tind/update.h"
#include "wiki/generator.h"

/// \file serve_test.cc
/// End-to-end contracts of the tIND query service: served answers are
/// bit-identical to direct TindIndex calls; overload is shed with typed
/// errors; consenting requests degrade to flagged supersets under
/// watermark pressure; queue-expired deadlines surface as DeadlineExceeded;
/// requests that queue behind a running group form the next dispatch; the
/// client's retry/backoff machinery converges; and Shutdown() drains
/// in-flight work before tearing down.

namespace tind::serve {
namespace {

#if defined(__unix__) || defined(__APPLE__)

/// Deadline-based wait for an asynchronous server-side condition. A fixed
/// spin count flakes under scheduler jitter; a wall-clock deadline does not.
bool WaitUntil(const std::function<bool()>& ready,
               std::chrono::milliseconds deadline =
                   std::chrono::milliseconds(10000)) {
  const auto until = std::chrono::steady_clock::now() + deadline;
  while (!ready()) {
    if (std::chrono::steady_clock::now() >= until) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

class ServeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    wiki::GeneratorOptions gen;
    gen.seed = 31;
    gen.num_days = 120;
    gen.num_families = 3;
    gen.num_noise_attributes = 14;
    gen.num_drifter_attributes = 6;
    gen.num_catchall_attributes = 2;
    gen.shared_vocabulary = 100;
    gen.entities_per_family_pool = 60;
    auto generated = wiki::WikiGenerator(gen).GenerateDataset();
    ASSERT_TRUE(generated.ok()) << generated.status().ToString();
    corpus_ = std::make_unique<wiki::GeneratedDataset>(std::move(*generated));
    weight_ = std::make_unique<ConstantWeight>(
        corpus_->dataset.domain().num_timestamps());
    auto built = TindIndex::Build(corpus_->dataset, BuildOptions());
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    index_ = std::move(*built);
  }

  void TearDown() override {
    FaultInjector::Global().Reset();
    obs::MetricsRegistry::Global().set_enabled(false);
  }

  /// Every dispatched group then pauses after its probe (a stream after its
  /// partial frame) long enough for a short deadline, a client timeout or
  /// more arrivals to land there.
  void ArmGroupPause() {
    ASSERT_TRUE(
        FaultInjector::Global().Configure("serve/group_pause=1", 1).ok());
  }

  /// Waits until the armed group pause holds the first dispatched group.
  static bool WaitUntilGroupHeld() {
    return WaitUntil(
        [] { return FaultInjector::Global().fired("serve/group_pause") >= 1; });
  }

  TindIndexOptions BuildOptions() const {
    TindIndexOptions opts;
    opts.bloom_bits = 512;
    opts.num_hashes = 2;
    opts.num_slices = 4;
    opts.delta = 7;
    opts.epsilon = 3.0;
    opts.build_reverse_index = true;
    opts.reverse_slices = 2;
    opts.weight = weight_.get();
    return opts;
  }

  TindParams Params() const { return TindParams{3.0, 7, weight_.get()}; }

  std::unique_ptr<TindServer> StartServer(ServerOptions options) {
    auto server =
        std::make_unique<TindServer>(*index_, Params(), options);
    const Status started = server->Start();
    EXPECT_TRUE(started.ok()) << started.ToString();
    return server;
  }

  ClientOptions ClientFor(const TindServer& server) const {
    ClientOptions options;
    options.port = server.port();
    options.epsilon = 3.0;
    options.delta = 7;
    options.max_attempts = 1;
    return options;
  }

  std::unique_ptr<wiki::GeneratedDataset> corpus_;
  std::unique_ptr<ConstantWeight> weight_;
  std::unique_ptr<TindIndex> index_;
};

TEST_F(ServeTest, ServedAnswersMatchDirectIndexCalls) {
  auto server = StartServer(ServerOptions{});
  TindClient client(ClientFor(*server));
  ASSERT_TRUE(client.Ping().ok());
  const size_t n = corpus_->dataset.size();
  const TindParams params = Params();
  for (size_t q = 0; q < n; ++q) {
    const AttributeId attr = static_cast<AttributeId>(q);
    const auto& history = corpus_->dataset.attribute(attr);
    auto reply = client.Search(attr);
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    EXPECT_FALSE(reply->degraded);
    EXPECT_EQ(reply->ids, index_->Search(history, params)) << "q=" << q;
    auto reverse = client.ReverseSearch(attr);
    ASSERT_TRUE(reverse.ok()) << reverse.status().ToString();
    EXPECT_EQ(reverse->ids, index_->ReverseSearch(history, params))
        << "q=" << q;
  }
  server->Shutdown();
  const auto counters = server->counters();
  EXPECT_EQ(counters.completed, 2 * n);
  EXPECT_EQ(counters.shed, 0u);
  EXPECT_EQ(counters.protocol_errors, 0u);
}

TEST_F(ServeTest, DiscoveryWindowMatchesAllPairsDiscovery) {
  auto server = StartServer(ServerOptions{});
  TindClient client(ClientFor(*server));
  const size_t n = corpus_->dataset.size();
  const AllPairsResult all = DiscoverAllTinds(*index_, Params());
  std::vector<TindPair> served;
  // Cover [0, n) in a few windows; concatenation must equal the full
  // discovery pair set (both are (lhs, rhs)-sorted).
  const AttributeId step = 7;
  for (AttributeId lo = 0; lo < n; lo += step) {
    const AttributeId hi =
        std::min<AttributeId>(static_cast<AttributeId>(n), lo + step);
    auto reply = client.DiscoveryWindow(lo, hi);
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    served.insert(served.end(), reply->pairs.begin(), reply->pairs.end());
  }
  EXPECT_EQ(served, all.pairs);
}

TEST_F(ServeTest, InvalidRequestsAreTypedAndNotRetried) {
  auto server = StartServer(ServerOptions{});
  TindClient client(ClientFor(*server));
  const auto bad_attr = client.Search(
      static_cast<AttributeId>(corpus_->dataset.size() + 10));
  EXPECT_TRUE(bad_attr.status().IsInvalidArgument())
      << bad_attr.status().ToString();
  const auto bad_window = client.DiscoveryWindow(5, 5);
  EXPECT_TRUE(bad_window.status().IsInvalidArgument());
  const auto huge_window = client.DiscoveryWindow(
      0, static_cast<AttributeId>(kMaxDiscoveryWindow + 2));
  EXPECT_TRUE(huge_window.status().IsInvalidArgument());
  EXPECT_EQ(client.counters().retries, 0u);
}

TEST_F(ServeTest, FullQueueShedsWithTypedOverloadAndClientRetries) {
  ServerOptions options;
  options.max_inflight = 0;  // Every request is over the bound.
  auto server = StartServer(options);
  ClientOptions client_options = ClientFor(*server);
  client_options.max_attempts = 3;
  client_options.backoff.initial_us = 100;
  client_options.backoff.max_us = 1000;
  TindClient client(client_options);
  const auto reply = client.Search(0);
  ASSERT_TRUE(reply.status().IsResourceExhausted())
      << reply.status().ToString();
  EXPECT_NE(reply.status().message().find("overloaded"), std::string::npos);
  EXPECT_EQ(client.counters().retries, 2u);  // All attempts were shed.
  EXPECT_GE(server->counters().shed, 3u);
}

TEST_F(ServeTest, ClientRetriesQueriesButNeverApplyDelta) {
  // A listening socket nobody serves: the kernel completes every connect
  // and no reply ever comes, so each attempt times out as a transport error.
  auto listener = ListenTcp(0);
  ASSERT_TRUE(listener.ok()) << listener.status().ToString();
  auto port = LocalPort(*listener);
  ASSERT_TRUE(port.ok());
  ClientOptions options;
  options.port = *port;
  options.response_timeout_ms = 50;
  options.max_attempts = 3;
  options.backoff.initial_us = 100;
  options.backoff.max_us = 1000;
  {
    TindClient client(options);
    const Status status = client.ApplyDelta(RevisionDelta{}).status();
    EXPECT_TRUE(status.IsIOError()) << status.ToString();
    EXPECT_EQ(client.counters().attempts, 1u);  // Not idempotent.
    EXPECT_EQ(client.counters().retries, 0u);
  }
  {
    TindClient client(options);
    const Status status = client.Search(0).status();
    EXPECT_TRUE(status.IsIOError()) << status.ToString();
    EXPECT_EQ(client.counters().attempts, 3u);
    EXPECT_EQ(client.counters().retries, 2u);
  }
  CloseFd(*listener);
}

TEST_F(ServeTest, MemoryBudgetShedsAsOutOfMemory) {
  MemoryBudget budget(64);  // Far below one request's admission cost.
  ServerOptions options;
  options.memory = &budget;
  auto server = StartServer(options);
  TindClient client(ClientFor(*server));
  const auto reply = client.Search(0);
  ASSERT_TRUE(reply.status().IsOutOfMemory()) << reply.status().ToString();
  EXPECT_EQ(server->counters().shed, 1u);
  EXPECT_EQ(budget.used(), 0u);  // Reservation released on rejection.
}

TEST_F(ServeTest, WatermarkDegradesConsentingRequestsToSupersets) {
  ServerOptions options;
  options.degrade_watermark = 0;  // Every dispatch window is "overloaded".
  auto server = StartServer(options);
  ClientOptions degraded_options = ClientFor(*server);
  degraded_options.allow_degraded = true;
  TindClient degraded_client(degraded_options);
  TindClient strict_client(ClientFor(*server));
  const TindParams params = Params();
  for (AttributeId attr = 0;
       attr < std::min<size_t>(corpus_->dataset.size(), 8); ++attr) {
    const auto exact = index_->Search(corpus_->dataset.attribute(attr), params);
    auto soft = degraded_client.Search(attr);
    ASSERT_TRUE(soft.ok()) << soft.status().ToString();
    EXPECT_TRUE(soft->degraded);
    // Sound superset: every exact answer is present.
    const std::set<AttributeId> ids(soft->ids.begin(), soft->ids.end());
    for (const AttributeId id : exact) EXPECT_TRUE(ids.count(id)) << id;
    // A client that did not consent still gets the exact answer.
    auto hard = strict_client.Search(attr);
    ASSERT_TRUE(hard.ok());
    EXPECT_FALSE(hard->degraded);
    EXPECT_EQ(hard->ids, exact);
  }
  EXPECT_GT(server->counters().degraded, 0u);
}

TEST_F(ServeTest, QueueExpiredDeadlineIsDeadlineExceeded) {
  auto server = StartServer(ServerOptions{});
  ClientOptions client_options = ClientFor(*server);
  client_options.deadline_ms = 1;
  TindClient client(client_options);
  // Saturate the single batcher with a wide discovery window so a trailing
  // 1 ms request expires in the queue behind it. Raw frames: the client
  // API would wait for each response in turn.
  auto fd = ConnectTcp("127.0.0.1", server->port(), 1000);
  ASSERT_TRUE(fd.ok());
  SearchRequest wide;
  wide.attribute = 0;
  wide.window_end = static_cast<AttributeId>(
      std::min<size_t>(corpus_->dataset.size(), kMaxDiscoveryWindow));
  wide.epsilon = 3.0;
  wide.delta = 7;
  for (uint64_t id = 1; id <= 4; ++id) {
    ASSERT_TRUE(SendFrame(*fd, MessageType::kDiscoveryWindow, id,
                          EncodeSearchRequest(wide), 1000)
                    .ok());
  }
  const auto reply = client.Search(0);
  // Depending on scheduling the tiny-deadline request may still complete;
  // accept either a typed deadline error or a successful answer, but it
  // must never hang (the test itself is the hang detector).
  if (!reply.ok()) {
    EXPECT_TRUE(reply.status().IsDeadlineExceeded())
        << reply.status().ToString();
  }
  // Drain the raw connection: all four wide requests must terminate.
  size_t terminal = 0;
  while (terminal < 4) {
    auto frame = RecvFrame(*fd, 5000, 5000);
    ASSERT_TRUE(frame.ok()) << frame.status().ToString();
    ASSERT_TRUE(frame->header.type == MessageType::kDiscoveryResult ||
                frame->header.type == MessageType::kError);
    ++terminal;
  }
  CloseFd(*fd);
}

TEST_F(ServeTest, MalformedFramesGetTypedErrorsAndServerSurvives) {
  auto server = StartServer(ServerOptions{});
  // Garbage bytes: the server answers with an InvalidArgument error frame
  // and drops the connection.
  auto fd = ConnectTcp("127.0.0.1", server->port(), 1000);
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(SendAll(*fd, "this is not a frame, not even close....", 1000)
                  .ok());
  auto error_frame = RecvFrame(*fd, 2000, 2000);
  ASSERT_TRUE(error_frame.ok()) << error_frame.status().ToString();
  EXPECT_EQ(error_frame->header.type, MessageType::kError);
  EXPECT_TRUE(DecodeErrorResponse(error_frame->payload).IsInvalidArgument());
  CloseFd(*fd);
  // A bit-flipped CRC likewise.
  auto fd2 = ConnectTcp("127.0.0.1", server->port(), 1000);
  ASSERT_TRUE(fd2.ok());
  std::string frame = EncodeFrame(MessageType::kSearch, 9,
                                  EncodeSearchRequest(SearchRequest{}));
  frame[kFrameHeaderBytes] ^= 0x01;
  ASSERT_TRUE(SendAll(*fd2, frame, 1000).ok());
  auto crc_error = RecvFrame(*fd2, 2000, 2000);
  ASSERT_TRUE(crc_error.ok());
  EXPECT_EQ(crc_error->header.type, MessageType::kError);
  CloseFd(*fd2);
  // The server still answers healthy clients afterwards.
  TindClient client(ClientFor(*server));
  EXPECT_TRUE(client.Search(0).ok());
  EXPECT_GE(server->counters().protocol_errors, 2u);
}

TEST_F(ServeTest, HostileApplyDeltaFrameLeavesEveryServerServing) {
  // A 4-byte delta payload claiming 2^32-1 ops: a non-ingest server refuses
  // it before decoding, an ingest server rejects it as malformed; neither
  // may go down.
  for (const bool ingest : {false, true}) {
    ServerOptions options;
    options.allow_ingest = ingest;
    auto server = StartServer(options);
    auto fd = ConnectTcp("127.0.0.1", server->port(), 1000);
    ASSERT_TRUE(fd.ok());
    ASSERT_TRUE(SendFrame(*fd, MessageType::kApplyDelta, 5,
                          std::string(4, '\xff'), 1000)
                    .ok());
    auto error_frame = RecvFrame(*fd, 2000, 2000);
    ASSERT_TRUE(error_frame.ok()) << error_frame.status().ToString();
    EXPECT_EQ(error_frame->header.type, MessageType::kError);
    const Status status = DecodeErrorResponse(error_frame->payload);
    EXPECT_TRUE(ingest ? status.IsInvalidArgument()
                       : status.IsFailedPrecondition())
        << status.ToString();
    CloseFd(*fd);
    TindClient client(ClientFor(*server));
    auto reply = client.Search(0);
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    EXPECT_EQ(reply->ids,
              index_->Search(corpus_->dataset.attribute(0), Params()));
    server->Shutdown();
    EXPECT_EQ(server->counters().deltas_applied, 0u);
  }
}

TEST_F(ServeTest, ProtocolErrorsMatchTheRegistry) {
  const obs::Counter* registry =
      obs::MetricsRegistry::Global().GetCounter("serve/protocol_errors");
  const uint64_t before = registry->value();
  ServerOptions options;
  options.allow_ingest = true;
  auto server = StartServer(options);
  const auto send_malformed = [&](MessageType type,
                                  const std::string& payload) {
    auto fd = ConnectTcp("127.0.0.1", server->port(), 1000);
    ASSERT_TRUE(fd.ok());
    ASSERT_TRUE(SendFrame(*fd, type, 1, payload, 1000).ok());
    auto reply = RecvFrame(*fd, 2000, 2000);
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    EXPECT_EQ(reply->header.type, MessageType::kError);
    CloseFd(*fd);
  };
  SearchRequest out_of_range;
  out_of_range.attribute = 1u << 20;
  SearchRequest bad_window;
  bad_window.attribute = 5;
  bad_window.window_end = 5;
  send_malformed(MessageType::kPong, "");  // Not a request type.
  send_malformed(MessageType::kSearch, "garbage");
  send_malformed(MessageType::kSearchStream, "garbage");
  send_malformed(MessageType::kSearch, EncodeSearchRequest(out_of_range));
  send_malformed(MessageType::kDiscoveryWindow,
                 EncodeSearchRequest(bad_window));
  send_malformed(MessageType::kApplyDelta, "garbage");
  // And bytes that are not a frame at all.
  auto fd = ConnectTcp("127.0.0.1", server->port(), 1000);
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(SendAll(*fd, "this is not a frame, not even close....", 1000)
                  .ok());
  ASSERT_TRUE(RecvFrame(*fd, 2000, 2000).ok());
  CloseFd(*fd);
  server->Shutdown();
  EXPECT_EQ(server->counters().protocol_errors, 7u);
  EXPECT_EQ(registry->value() - before, server->counters().protocol_errors);
}

TEST_F(ServeTest, LatencyPercentilesCountOnlyThisServersRequests) {
  const obs::Histogram* registry =
      obs::MetricsRegistry::Global().GetHistogram("serve/latency_ms");
  const uint64_t before = registry->count();
  auto busy = StartServer(ServerOptions{});
  auto idle = StartServer(ServerOptions{});
  TindClient client(ClientFor(*busy));
  for (AttributeId attr = 0; attr < 5; ++attr) {
    ASSERT_TRUE(client.Search(attr).ok());
  }
  busy->Shutdown();
  idle->Shutdown();
  EXPECT_GT(busy->LatencyPercentileMs(99), 0);
  EXPECT_EQ(idle->LatencyPercentileMs(99), 0);
  // The registry's serve/latency_ms still sees every server's requests.
  EXPECT_EQ(registry->count() - before, busy->counters().completed);
}

TEST_F(ServeTest, SlowLorisConnectionIsCutWithoutHangingTheServer) {
  ServerOptions options;
  options.io_timeout_ms = 100;
  auto server = StartServer(options);
  auto loris = ConnectTcp("127.0.0.1", server->port(), 1000);
  ASSERT_TRUE(loris.ok());
  const std::string frame =
      EncodeFrame(MessageType::kSearch, 1, EncodeSearchRequest({}));
  ASSERT_TRUE(SendAll(*loris, std::string_view(frame).substr(0, 6), 1000)
                  .ok());
  // While the loris dangles, normal traffic keeps flowing.
  TindClient client(ClientFor(*server));
  EXPECT_TRUE(client.Search(0).ok());
  // The server must cut the stalled connection within its io timeout.
  const auto cut = RecvFrame(*loris, 3000, 3000);
  EXPECT_TRUE(cut.status().IsIOError()) << cut.status().ToString();
  CloseFd(*loris);
  EXPECT_GE(server->counters().slow_loris_drops, 1u);
}

TEST_F(ServeTest, ShutdownDrainsInFlightRequests) {
  // The first request's group is held while the rest queue behind it, so
  // Shutdown() starts with work both executing and queued. The deadline
  // outlasts the holds: the drain answers that work rather than expiring it.
  ArmGroupPause();
  ServerOptions options;
  options.default_deadline_ms = 5000;
  auto server = StartServer(options);
  auto fd = ConnectTcp("127.0.0.1", server->port(), 1000);
  ASSERT_TRUE(fd.ok());
  SearchRequest request;
  request.attribute = 0;
  request.epsilon = 3.0;
  request.delta = 7;
  constexpr uint64_t kBurst = 6;
  for (uint64_t id = 1; id <= kBurst; ++id) {
    ASSERT_TRUE(SendFrame(*fd, MessageType::kSearch, id,
                          EncodeSearchRequest(request), 1000)
                    .ok());
    if (id == 1 && !TIND_FAULT_INJECTION_DISABLED) {
      ASSERT_TRUE(WaitUntilGroupHeld());
    }
  }
  // Wait for the whole burst to be admitted: the drain guarantee covers
  // admitted requests, not bytes still sitting in the kernel's buffers.
  ASSERT_TRUE(
      WaitUntil([&] { return server->counters().accepted >= kBurst; }));
  ASSERT_EQ(server->counters().accepted, kBurst);
  server->Shutdown();  // Must drain: every queued request gets an answer.
  std::set<uint64_t> answered;
  for (uint64_t i = 0; i < kBurst; ++i) {
    auto frame = RecvFrame(*fd, 2000, 2000);
    ASSERT_TRUE(frame.ok()) << frame.status().ToString();
    ASSERT_TRUE(frame->header.type == MessageType::kSearchResult ||
                frame->header.type == MessageType::kError)
        << static_cast<int>(frame->header.type);
    answered.insert(frame->header.request_id);
  }
  EXPECT_EQ(answered.size(), kBurst);
  CloseFd(*fd);
  const auto counters = server->counters();
  EXPECT_EQ(counters.accepted,
            counters.completed + counters.deadline_exceeded);
}

TEST_F(ServeTest, RequestsQueuedBehindAHeldGroupFormTheNextDispatch) {
  if (TIND_FAULT_INJECTION_DISABLED) GTEST_SKIP() << "fault points off";
  if (TIND_OBS_DISABLED) GTEST_SKIP() << "metrics compiled out";
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  registry.set_enabled(true);  // TearDown disables it again.
  ArmGroupPause();
  ServerOptions options;
  options.default_deadline_ms = 5000;  // Outlasts the holds.
  auto server = StartServer(options);
  auto fd = ConnectTcp("127.0.0.1", server->port(), 1000);
  ASSERT_TRUE(fd.ok());
  const auto send_search = [&](uint64_t id) {
    SearchRequest request;
    request.attribute = static_cast<AttributeId>(id - 1);
    request.epsilon = 3.0;
    request.delta = 7;
    return SendFrame(*fd, MessageType::kSearch, id,
                     EncodeSearchRequest(request), 1000);
  };
  // An idle batcher dispatches the first request alone, at once.
  ASSERT_TRUE(send_search(1).ok());
  ASSERT_TRUE(WaitUntilGroupHeld());
  const obs::Histogram* sizes = registry.GetHistogram("serve/batch_size");
  const uint64_t dispatches_before = sizes->count();
  const double requests_before = sizes->sum();
  // Everything that arrives while that group is held is the next group.
  constexpr uint64_t kFollowers = 8;
  for (uint64_t id = 2; id <= 1 + kFollowers; ++id) {
    ASSERT_TRUE(send_search(id).ok());
  }
  for (uint64_t i = 0; i < 1 + kFollowers; ++i) {
    auto frame = RecvFrame(*fd, 5000, 5000);
    ASSERT_TRUE(frame.ok()) << frame.status().ToString();
    ASSERT_EQ(frame->header.type, MessageType::kSearchResult);
    auto reply = DecodeSearchResponse(frame->payload);
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    const auto attr = static_cast<AttributeId>(frame->header.request_id - 1);
    EXPECT_EQ(reply->ids,
              index_->Search(corpus_->dataset.attribute(attr), Params()));
  }
  CloseFd(*fd);
  EXPECT_EQ(sizes->count() - dispatches_before, 1u);
  EXPECT_EQ(sizes->sum() - requests_before, static_cast<double>(kFollowers));
  server->Shutdown();
  EXPECT_EQ(server->counters().completed, 1 + kFollowers);
}

TEST_F(ServeTest, IngestDisabledRejectsApplyDeltaAsFailedPrecondition) {
  auto server = StartServer(ServerOptions{});  // allow_ingest defaults off.
  TindClient client(ClientFor(*server));
  scenario::MutationSpec spec;
  spec.num_ops = 4;
  const RevisionDelta delta =
      scenario::MutateCorpus(corpus_->dataset, 3, spec);
  const auto reply = client.ApplyDelta(delta);
  EXPECT_TRUE(reply.status().IsFailedPrecondition())
      << reply.status().ToString();
  EXPECT_EQ(server->counters().deltas_applied, 0u);
  EXPECT_EQ(server->epoch_sequence(), 0u);
  // The refusal must not poison the connection for queries.
  EXPECT_TRUE(client.Search(0).ok());
}

TEST_F(ServeTest, LiveIngestFlipsServedAnswersToThePostDeltaIndex) {
  ServerOptions options;
  options.allow_ingest = true;
  auto server = StartServer(options);
  TindClient client(ClientFor(*server));

  scenario::MutationSpec spec;
  spec.num_ops = 12;
  const RevisionDelta delta =
      scenario::MutateCorpus(corpus_->dataset, 17, spec);
  auto oracle = ApplyDeltaToDataset(corpus_->dataset, delta);
  ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();
  ASSERT_GT(oracle->dataset->size(), corpus_->dataset.size())
      << "delta added no attribute; pick another seed";
  auto rebuilt = TindIndex::Build(*oracle->dataset, BuildOptions());
  ASSERT_TRUE(rebuilt.ok()) << rebuilt.status().ToString();

  // Pre-delta the first added id does not exist on the server.
  const AttributeId first_added =
      static_cast<AttributeId>(corpus_->dataset.size());
  EXPECT_TRUE(client.Search(first_added).status().IsInvalidArgument());

  auto applied = client.ApplyDelta(delta);
  ASSERT_TRUE(applied.ok()) << applied.status().ToString();
  EXPECT_EQ(applied->sequence, 1u);
  EXPECT_EQ(applied->versions_appended + applied->attributes_added +
                applied->attributes_retired,
            spec.num_ops);
  EXPECT_EQ(applied->slices_rebuilt, 0u);
  EXPECT_EQ(server->epoch_sequence(), 1u);
  EXPECT_EQ(server->counters().deltas_applied, 1u);

  // Post-delta every served answer — including for the new ids — must match
  // a fresh Build over the mutated corpus.
  const TindParams params = Params();
  for (size_t q = 0; q < oracle->dataset->size(); ++q) {
    const AttributeId attr = static_cast<AttributeId>(q);
    const auto& history = oracle->dataset->attribute(attr);
    auto reply = client.Search(attr);
    ASSERT_TRUE(reply.ok()) << "q=" << q << ": " << reply.status().ToString();
    EXPECT_EQ(reply->ids, (*rebuilt)->Search(history, params)) << "q=" << q;
    auto reverse = client.ReverseSearch(attr);
    ASSERT_TRUE(reverse.ok()) << reverse.status().ToString();
    EXPECT_EQ(reverse->ids, (*rebuilt)->ReverseSearch(history, params))
        << "q=" << q;
  }
  server->Shutdown();
  // Exactly one protocol error: the deliberate pre-delta out-of-range probe.
  EXPECT_EQ(server->counters().protocol_errors, 1u);
}

TEST_F(ServeTest, OpenLoopLoadAccountsForEveryRequest) {
  auto server = StartServer(ServerOptions{});
  LoadOptions load;
  load.client = ClientFor(*server);
  load.client.max_attempts = 3;
  load.qps = 120;
  load.duration_s = 0.5;
  load.workers = 2;
  load.reverse_fraction = 0.3;
  load.discovery_fraction = 0.1;
  load.num_attributes = corpus_->dataset.size();
  load.seed = 5;
  const LoadReport report = RunOpenLoopLoad(load);
  EXPECT_GT(report.offered, 0u);
  EXPECT_TRUE(report.AllAccounted())
      << report.ToJson().Dump(2);
  EXPECT_GT(report.ok, 0u);
  server->Shutdown();
}

// ---- Streaming (anytime) op ---------------------------------------------

TEST_F(ServeTest, StreamedAnswersMatchDirectIndexCallsWithSoundPartials) {
  auto server = StartServer(ServerOptions{});
  TindClient client(ClientFor(*server));
  const TindParams params = Params();
  const size_t n = corpus_->dataset.size();
  for (size_t q = 0; q < n; ++q) {
    const AttributeId attr = static_cast<AttributeId>(q);
    const auto& history = corpus_->dataset.attribute(attr);
    for (const bool reverse : {false, true}) {
      StreamReply reply;
      const Status status = reverse ? client.ReverseSearchStream(attr, &reply)
                                    : client.SearchStream(attr, &reply);
      ASSERT_TRUE(status.ok()) << status.ToString();
      const auto exact = reverse ? index_->ReverseSearch(history, params)
                                 : index_->Search(history, params);
      EXPECT_FALSE(reply.degraded) << "q=" << q;
      EXPECT_EQ(reply.ids, exact) << "q=" << q << " reverse=" << reverse;
      // Exactly one partial preceded the final frame, and it is a sound
      // superset of the exact answer.
      ASSERT_TRUE(reply.got_partial) << "q=" << q;
      EXPECT_EQ(reply.partial_stage,
                static_cast<uint8_t>(SearchStage::kProbe));
      const std::set<AttributeId> partial(reply.partial_ids.begin(),
                                          reply.partial_ids.end());
      for (const AttributeId id : exact) {
        EXPECT_TRUE(partial.count(id)) << "q=" << q << " id=" << id;
      }
      EXPECT_LE(reply.ttfr_ms, reply.total_ms) << "q=" << q;
    }
  }
  server->Shutdown();
  EXPECT_EQ(server->counters().completed, 2 * n);
  EXPECT_EQ(server->counters().degraded, 0u);
}

TEST_F(ServeTest, StreamDeadlineDegradesToBestStageWithConsent) {
  if (TIND_FAULT_INJECTION_DISABLED) GTEST_SKIP() << "fault points off";
  // The group pause holds the funnel between the partial and the final
  // frame long enough for the 50 ms deadline to fire deterministically
  // mid-stream.
  ArmGroupPause();
  auto server = StartServer(ServerOptions{});
  ClientOptions client_options = ClientFor(*server);
  client_options.deadline_ms = 50;
  client_options.allow_degraded = true;
  TindClient client(client_options);
  StreamReply reply;
  const Status status = client.SearchStream(0, &reply);
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_TRUE(reply.got_partial);
  EXPECT_TRUE(reply.degraded);
  // The degraded final is the best completed stage's superset: still sound.
  const auto exact = index_->Search(corpus_->dataset.attribute(0), Params());
  const std::set<AttributeId> ids(reply.ids.begin(), reply.ids.end());
  for (const AttributeId id : exact) EXPECT_TRUE(ids.count(id)) << id;
  EXPECT_TRUE(WaitUntil([&] { return server->counters().degraded >= 1; }));
  server->Shutdown();
}

TEST_F(ServeTest, StreamDeadlineWithoutConsentErrorsAfterPartial) {
  if (TIND_FAULT_INJECTION_DISABLED) GTEST_SKIP() << "fault points off";
  ArmGroupPause();
  auto server = StartServer(ServerOptions{});
  ClientOptions client_options = ClientFor(*server);
  client_options.deadline_ms = 50;  // No degraded consent.
  TindClient client(client_options);
  StreamReply reply;
  const Status status = client.SearchStream(0, &reply);
  EXPECT_TRUE(status.IsDeadlineExceeded()) << status.ToString();
  // The partial frame arrived before the deadline killed the funnel — the
  // caller still holds a usable superset (the whole point of the op).
  EXPECT_TRUE(reply.got_partial);
  const auto exact = index_->Search(corpus_->dataset.attribute(0), Params());
  const std::set<AttributeId> partial(reply.partial_ids.begin(),
                                      reply.partial_ids.end());
  for (const AttributeId id : exact) EXPECT_TRUE(partial.count(id)) << id;
  EXPECT_TRUE(
      WaitUntil([&] { return server->counters().deadline_exceeded >= 1; }));

  // A client timeout after the partial is a transport error, and the
  // stream is not retried: the caller keeps the superset it holds.
  ClientOptions impatient_options = ClientFor(*server);
  impatient_options.response_timeout_ms = 100;
  impatient_options.max_attempts = 3;
  TindClient impatient(impatient_options);
  StreamReply timed_out;
  const Status timeout_status = impatient.SearchStream(0, &timed_out);
  EXPECT_TRUE(timeout_status.IsIOError()) << timeout_status.ToString();
  EXPECT_TRUE(timed_out.got_partial);
  EXPECT_EQ(impatient.counters().attempts, 1u);
  EXPECT_EQ(impatient.counters().retries, 0u);
  server->Shutdown();
}

TEST_F(ServeTest, StreamUnderWatermarkDegradesLikeBatchRequests) {
  ServerOptions options;
  options.degrade_watermark = 0;  // Every dispatch window is "overloaded".
  auto server = StartServer(options);
  ClientOptions client_options = ClientFor(*server);
  client_options.allow_degraded = true;
  TindClient client(client_options);
  StreamReply reply;
  const Status status = client.SearchStream(0, &reply);
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_TRUE(reply.got_partial);
  EXPECT_TRUE(reply.degraded);
  const auto exact = index_->Search(corpus_->dataset.attribute(0), Params());
  const std::set<AttributeId> ids(reply.ids.begin(), reply.ids.end());
  for (const AttributeId id : exact) EXPECT_TRUE(ids.count(id)) << id;
  server->Shutdown();
}

TEST_F(ServeTest, MalformedStreamRequestIsTypedErrorAndServerSurvives) {
  auto server = StartServer(ServerOptions{});
  auto fd = ConnectTcp("127.0.0.1", server->port(), 1000);
  ASSERT_TRUE(fd.ok());
  // A syntactically valid frame whose payload is not a stream request.
  ASSERT_TRUE(SendFrame(*fd, MessageType::kSearchStream, 3,
                        "garbage stream payload", 1000)
                  .ok());
  auto error_frame = RecvFrame(*fd, 2000, 2000);
  ASSERT_TRUE(error_frame.ok()) << error_frame.status().ToString();
  EXPECT_EQ(error_frame->header.type, MessageType::kError);
  EXPECT_TRUE(DecodeErrorResponse(error_frame->payload).IsInvalidArgument());
  CloseFd(*fd);
  // Out-of-range attribute over the real codec path.
  TindClient client(ClientFor(*server));
  StreamReply reply;
  const Status status =
      client.SearchStream(static_cast<AttributeId>(1u << 20), &reply);
  EXPECT_TRUE(status.IsInvalidArgument()) << status.ToString();
  EXPECT_FALSE(reply.got_partial);
  // The server still answers healthy streams afterwards.
  StreamReply healthy;
  EXPECT_TRUE(client.SearchStream(0, &healthy).ok());
  EXPECT_GE(server->counters().protocol_errors, 2u);
  server->Shutdown();
}

TEST_F(ServeTest, LoadDriverStreamsReportTimeToFirstResult) {
  auto server = StartServer(ServerOptions{});
  LoadOptions load;
  load.client = ClientFor(*server);
  load.client.max_attempts = 3;
  load.qps = 120;
  load.duration_s = 0.5;
  load.workers = 2;
  load.reverse_fraction = 0.3;
  load.stream_fraction = 1.0;  // Every query over the streaming op.
  load.hot_fraction = 0.8;     // Exercise the Zipf hot-set picker too.
  load.hot_set_fraction = 0.1;
  load.num_attributes = corpus_->dataset.size();
  load.seed = 5;
  const LoadReport report = RunOpenLoopLoad(load);
  EXPECT_GT(report.offered, 0u);
  EXPECT_TRUE(report.AllAccounted()) << report.ToJson().Dump(2);
  EXPECT_GT(report.ok, 0u);
  EXPECT_EQ(report.streams, report.offered);
  EXPECT_GE(report.stream_partials, report.ok);
  EXPECT_GT(report.ttfr_p50_ms, 0.0);
  EXPECT_LE(report.ttfr_p50_ms, report.max_ms + 1e-9)
      << report.ToJson().Dump(2);
  server->Shutdown();
}

#endif  // defined(__unix__) || defined(__APPLE__)

}  // namespace
}  // namespace tind::serve
