// `perfbench_tool load`: the benchmark's own pipelined open-loop load
// generator for serve-8k and ingest-8k, plus their output checks.
//
//   perfbench_tool load --workload=serve-8k|ingest-8k --dir=<input dir>
//       --port=P --seed=N --seconds=S --trace=0|1
//       --server_pid=<pid> [--spans=<file> --server_metrics=<file>]
//
// One process, at most two connections to the server, at most two threads:
// one event loop sends and receives on the read connections (ppoll between
// sends), and ingest-8k adds one delta applier on the second connection.
// Requests are sent on a seeded Poisson schedule whether or not earlier ones
// have been answered, replies are matched by request id, and latency runs
// from each request's scheduled send time, so a stall in the server or in the
// generator shows in every request it delays. Every request ends in exactly
// one outcome: answered, shed, deadline exceeded, error, or hung (no answer
// within the drain timeout).
//
// serve-8k: --seconds at 1,500 req/s (90% of requests on a Zipf-ranked 2%
// hot set, 25% reverse, 10% streamed), then a capacity search over the same
// mix; every answer is compared with direct in-process Search /
// ReverseSearch on the same snapshot. Afterwards delta applies run one at a
// time (apply latency on a mmap-loaded index).
// ingest-8k: --seconds at 1,500 uniform req/s on one connection while the
// second applies the cached delta chain at 4 per second; then a capacity
// search runs.
// On both, every apply must answer with the next epoch sequence, and after
// the applies the final epoch is compared, through forward, reverse and
// streamed searches, with a fresh Build over the mirrored
// ApplyDeltaToDataset chain.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <thread>

#include <poll.h>
#include <signal.h>
#include <unordered_map>

#include "common/rng.h"
#include "perfbench.h"
#include "serve/wire.h"
#include "wiki/corpus_io.h"

namespace tind::perfbench {
namespace {

using serve::MessageType;

constexpr double kFixedRate = 1500;
constexpr double kApplyPerSecond = 4;
/// Latency limit of the capacity search. On these corpora single queries
/// of the few catch-all attributes take 10-45 ms, so p99 already sits at
/// 30-45 ms at low load and a 50 ms limit flipped between steps at random;
/// at 100 ms the limit falls on the steep part of the curve, next to where
/// requests start to be shed.
constexpr double kCapacityP99Ms = 100;
constexpr double kCapacityStepSeconds = 1.0;
constexpr size_t kServeWarmupApplies = 4;
constexpr size_t kServeApplies = 16;
/// Deadline every request carries. The server's 200 ms default turned
/// short host stalls (vCPU steal bursts next to a delta apply) into failed
/// requests; latency above 200 ms still shows in p99.
constexpr uint32_t kRequestDeadlineMs = 1000;
constexpr int kIoTimeoutMs = 5000;

enum Kind : uint8_t { kForward = 0, kReverse = 1, kStreamForward = 2,
                      kStreamReverse = 3 };
enum Outcome : uint8_t { kPending = 0, kAnswered, kShed, kDeadline, kError,
                         kHung };

struct Request {
  Clock::time_point due, sent, first_frame, done;
  AttributeId attribute = 0;
  uint8_t kind = kForward;
  uint8_t outcome = kPending;
  bool degraded = false;
  std::vector<AttributeId> ids;
  std::vector<std::vector<AttributeId>> partials;

  bool reverse() const { return kind == kReverse || kind == kStreamReverse; }
  bool stream() const { return kind >= kStreamForward; }
  double LatencyMs() const {
    return std::chrono::duration<double, std::milli>(done - due).count();
  }
};

/// The traffic mix of one workload: a probability per (attribute, kind).
struct Mix {
  std::vector<double> attribute_p;  ///< Sums to 1 over attribute ids.
  double kind_p[4] = {};            ///< Indexed by Kind.

  Mix(size_t n, double hot_fraction, double stream_fraction) {
    // The hot set of scenario::BuildTrafficPlan: a seeded shuffle ranks the
    // attributes, the 2% prefix is the hot set, Zipf(1.0) within it.
    Rng rng(kCorpusSeed ^ 0xB10C7AFF1CULL);
    std::vector<AttributeId> ranked(n);
    for (size_t i = 0; i < n; ++i) ranked[i] = static_cast<AttributeId>(i);
    rng.Shuffle(&ranked);
    attribute_p.assign(n, (1.0 - hot_fraction) / static_cast<double>(n));
    const size_t hot = std::max<size_t>(1, static_cast<size_t>(0.02 * static_cast<double>(n)));
    double harmonic = 0;
    for (size_t r = 1; r <= hot; ++r) harmonic += 1.0 / static_cast<double>(r);
    for (size_t r = 0; r < hot && hot_fraction > 0; ++r) {
      attribute_p[ranked[r]] += hot_fraction / (static_cast<double>(r + 1) * harmonic);
    }
    const double rev = 0.25;
    kind_p[kForward] = (1 - stream_fraction) * (1 - rev);
    kind_p[kReverse] = (1 - stream_fraction) * rev;
    kind_p[kStreamForward] = stream_fraction * (1 - rev);
    kind_p[kStreamReverse] = stream_fraction * rev;
  }

  /// `n` requests whose (attribute, kind) counts follow the mix as closely
  /// as whole numbers allow (systematic sampling with a seeded offset over
  /// the categories in id order), in seeded random order. Independent draws
  /// would let the few very expensive attributes appear a varying number of
  /// times per run, which then dominates the tail.
  std::vector<std::unique_ptr<Request>> Quota(size_t n, Rng* rng) const {
    std::vector<std::unique_ptr<Request>> out;
    out.reserve(n);
    const double offset = rng->UniformDouble();
    double cum = 0;
    for (size_t a = 0; a < attribute_p.size(); ++a) {
      for (uint8_t kind = 0; kind < 4; ++kind) {
        const double next = cum + static_cast<double>(n) * attribute_p[a] * kind_p[kind];
        const auto count = static_cast<size_t>(std::floor(next + offset) -
                                               std::floor(cum + offset));
        cum = next;
        for (size_t i = 0; i < count && out.size() < n; ++i) {
          auto r = std::make_unique<Request>();
          r->attribute = static_cast<AttributeId>(a);
          r->kind = kind;
          out.push_back(std::move(r));
        }
      }
    }
    while (!out.empty() && out.size() < n) {  // Floating-point slack.
      const Request& copy = *out[rng->Uniform(out.size())];
      auto r = std::make_unique<Request>();
      r->attribute = copy.attribute;
      r->kind = copy.kind;
      out.push_back(std::move(r));
    }
    rng->Shuffle(&out);
    return out;
  }
};

/// One open-loop phase over 1-2 connections.
struct PhaseResult {
  std::vector<std::unique_ptr<Request>> requests;
  Clock::time_point start;
  double scheduled_s = 0;  ///< Due time of the last request.
  double sent_s = 0;       ///< Send time of the last request.
  size_t answered = 0, shed = 0, deadline = 0, error = 0, hung = 0;
  std::vector<double> lag_ms;

  size_t failed() const { return shed + deadline + error + hung; }
  double achieved_over_offered() const {
    return sent_s <= 0 ? 0 : std::min(1.0, scheduled_s / sent_s);
  }
  std::vector<double> Latencies() const {
    std::vector<double> out;
    for (const auto& r : requests) {
      if (r->outcome == kAnswered) out.push_back(r->LatencyMs());
    }
    return out;
  }
  double P99Ms() const { return Percentile(Latencies(), 99); }
};

/// Reads one frame from a readable connection and records it against its
/// request. Returns false when the connection is lost.
bool ReceiveOne(int fd, uint32_t phase_tag, PhaseResult* phase,
                size_t* finished) {
  auto frame = serve::RecvFrame(fd, 0, kIoTimeoutMs);
  if (!frame.ok()) return frame.status().IsDeadlineExceeded();
  const uint64_t id = frame->header.request_id;
  const size_t index = static_cast<size_t>(id & 0xffffffffu);
  // Replies of an earlier phase (matched by the tag in the id's high half)
  // are dropped.
  if ((id >> 32) != phase_tag || index >= phase->requests.size()) return true;
  Request& r = *phase->requests[index];
  if (r.outcome != kPending) return true;
  const auto now = Clock::now();
  switch (frame->header.type) {
    case MessageType::kSearchPartial: {
      auto partial = serve::DecodeSearchPartial(frame->payload);
      if (r.partials.empty()) r.first_frame = now;
      if (partial.ok()) {
        r.partials.push_back(std::move(partial->ids));
        return true;
      }
      r.outcome = kError;
      break;
    }
    case MessageType::kSearchResult: {
      auto response = serve::DecodeSearchResponse(frame->payload);
      if (response.ok()) {
        r.ids = std::move(response->ids);
        r.degraded = response->degraded;
      }
      r.outcome = response.ok() ? kAnswered : kError;
      break;
    }
    case MessageType::kError: {
      const Status st = serve::DecodeErrorResponse(frame->payload);
      r.outcome = st.IsResourceExhausted() || st.IsOutOfMemory() ? kShed
                  : st.IsDeadlineExceeded()                      ? kDeadline
                                                                 : kError;
      break;
    }
    default:
      r.outcome = kError;
  }
  r.done = now;
  ++*finished;
  return true;
}

/// Waits until `until` for a reply on any of `fds` and reads what arrived.
void Poll(const std::vector<int>& fds, Clock::time_point until,
          uint32_t phase_tag, PhaseResult* phase, size_t* finished,
          std::vector<bool>* lost) {
  std::vector<pollfd> pfds;
  for (int fd : fds) pfds.push_back({fd, POLLIN, 0});
  const auto wait = std::max(Clock::duration::zero(), until - Clock::now());
  const auto ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(wait).count();
  const timespec timeout{static_cast<time_t>(ns / 1000000000),
                         static_cast<long>(ns % 1000000000)};
  if (ppoll(pfds.data(), pfds.size(), &timeout, nullptr) <= 0) return;
  for (size_t i = 0; i < pfds.size(); ++i) {
    if ((*lost)[i] || pfds[i].revents == 0) continue;
    if (!ReceiveOne(fds[i], phase_tag, phase, finished)) (*lost)[i] = true;
  }
}

std::string RequestFrame(const Request& r) {
  serve::SearchRequest req;
  req.attribute = r.attribute;
  req.epsilon = kEpsilon;
  req.delta = kDelta;
  req.deadline_ms = kRequestDeadlineMs;
  if (!r.stream()) return serve::EncodeSearchRequest(req);
  serve::SearchStreamRequest stream;
  stream.base = req;
  stream.reverse = r.reverse();
  return serve::EncodeSearchStreamRequest(stream);
}

MessageType RequestType(const Request& r) {
  if (r.stream()) return MessageType::kSearchStream;
  return r.reverse() ? MessageType::kReverseSearch : MessageType::kSearch;
}

/// Runs one phase on a single thread: sends a Poisson schedule of `seconds`
/// at `rate` (or, with closed_count > 0, that many requests one at a time)
/// round-robin over `fds`, reading replies between sends, until every
/// request has an outcome or `drain_s` has passed after the last send.
PhaseResult RunPhase(const std::vector<int>& fds, uint32_t phase_tag,
                     const Mix& mix, Rng* rng, double rate, double seconds,
                     size_t closed_count, double drain_s) {
  PhaseResult phase;
  std::vector<double> due_s;
  double t = 0;
  while (closed_count > 0 ? due_s.size() < closed_count : true) {
    if (closed_count == 0) {
      t += -std::log(1.0 - rng->UniformDouble()) / rate;
      if (t > seconds) break;
    }
    due_s.push_back(t);
  }
  phase.requests = mix.Quota(due_s.size(), rng);

  size_t finished = 0;
  std::vector<bool> lost(fds.size(), false);
  phase.start = Clock::now();
  const size_t n = phase.requests.size();
  for (size_t i = 0; i < n; ++i) {
    Request& r = *phase.requests[i];
    r.due = closed_count > 0
                ? Clock::now()
                : phase.start + std::chrono::duration_cast<Clock::duration>(
                                    std::chrono::duration<double>(due_s[i]));
    while (Clock::now() < r.due) {
      Poll(fds, r.due, phase_tag, &phase, &finished, &lost);
    }
    const uint64_t id = (static_cast<uint64_t>(phase_tag) << 32) | i;
    r.sent = Clock::now();
    if (!serve::SendFrame(fds[i % fds.size()], RequestType(r), id,
                          RequestFrame(r), kIoTimeoutMs)
             .ok()) {
      r.done = Clock::now();
      r.outcome = kError;
      ++finished;
    }
    phase.lag_ms.push_back(
        std::chrono::duration<double, std::milli>(r.sent - r.due).count());
    while (closed_count > 0 && r.outcome == kPending &&
           SecondsSince(r.sent) < drain_s) {
      Poll(fds, r.sent + std::chrono::seconds(1), phase_tag, &phase, &finished,
           &lost);
    }
  }
  if (n > 0) {
    phase.scheduled_s =
        std::chrono::duration<double>(phase.requests.back()->due - phase.start)
            .count();
    phase.sent_s =
        std::chrono::duration<double>(phase.requests.back()->sent - phase.start)
            .count();
  }
  const auto drain_end =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(drain_s));
  while (finished < n && Clock::now() < drain_end) {
    Poll(fds, drain_end, phase_tag, &phase, &finished, &lost);
  }
  for (auto& r : phase.requests) {
    switch (r->outcome) {
      case kAnswered: ++phase.answered; break;
      case kShed: ++phase.shed; break;
      case kDeadline: ++phase.deadline; break;
      case kError: ++phase.error; break;
      default:
        r->outcome = kHung;
        ++phase.hung;
    }
  }
  return phase;
}

/// Exact answers from an in-process index, cached per (direction, id).
class Oracle {
 public:
  Oracle(const TindIndex& index, const TindParams& params)
      : index_(index), params_(params) {}

  const std::vector<AttributeId>& Answer(AttributeId id, bool reverse) {
    const uint64_t key = (static_cast<uint64_t>(id) << 1) | (reverse ? 1 : 0);
    auto it = cache_.find(key);
    if (it != cache_.end()) return it->second;
    QueryStats stats;
    const AttributeHistory& q = index_.dataset().attribute(id);
    auto result = reverse ? index_.ReverseSearch(q, params_, &stats)
                          : index_.Search(q, params_, &stats);
    funnel_.Add(stats);
    return cache_.emplace(key, std::move(result)).first->second;
  }
  const FunnelTotals& funnel() const { return funnel_; }
  const TindIndex& index() const { return index_; }

 private:
  const TindIndex& index_;
  TindParams params_;
  std::unordered_map<uint64_t, std::vector<AttributeId>> cache_;
  FunnelTotals funnel_;
};

/// Checks every answered request of a phase against the oracle; returns the
/// number of wrong answers (reported through `report`).
size_t CheckAnswers(const PhaseResult& phase, Oracle* oracle, Report* report) {
  size_t wrong = 0;
  for (const auto& rp : phase.requests) {
    const Request& r = *rp;
    if (r.outcome != kAnswered) continue;
    const auto& exact = oracle->Answer(r.attribute, r.reverse());
    bool ok = !r.degraded && r.ids == exact;
    if (r.stream()) {
      ok = ok && !r.partials.empty();
      for (auto partial : r.partials) {
        std::sort(partial.begin(), partial.end());
        ok = ok && std::includes(partial.begin(), partial.end(), exact.begin(),
                                 exact.end());
      }
    }
    if (!ok) {
      ++wrong;
      report->Fail(std::string(r.stream() ? "streamed " : "") +
                   (r.reverse() ? "reverse " : "forward ") + "answer for " +
                   std::to_string(r.attribute) + " differs from the index");
    }
  }
  return wrong;
}

/// The highest offered rate at which no more than 1% of requests miss the
/// latency limit (p99 <= limit; a failed request counts as a miss, and a
/// growing backlog shows as misses). Rates climb a 15% ladder until a step
/// misses more than 1%; the crossing is interpolated between that step and
/// the one below it, in log rate, so the result is not quantized to the
/// ladder.
double CapacitySearch(const std::vector<int>& fds, uint32_t* phase_tag,
                      const Mix& mix, Rng* rng, Oracle* oracle,
                      Report* report) {
  constexpr double kMissLimit = 0.01, kRatio = 1.15;
  auto miss_share = [&](double rate) {
    const PhaseResult p = RunPhase(fds, ++*phase_tag, mix, rng, rate,
                                   kCapacityStepSeconds, 0, 2.0);
    CheckAnswers(p, oracle, report);
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    size_t misses = p.failed();
    for (double ms : p.Latencies()) misses += ms > kCapacityP99Ms ? 1 : 0;
    const double share =
        p.achieved_over_offered() < 0.99
            ? 1.0
            : static_cast<double>(misses) /
                  std::max<double>(1, static_cast<double>(p.requests.size()));
    std::fprintf(stderr,
                 "perfbench: capacity step %.0f req/s: p99 %.2f ms failed %zu "
                 "miss share %.4f\n",
                 rate, p.P99Ms(), p.failed(), share);
    return share;
  };
  double rate = 2000, below = 0;
  double share = miss_share(rate);
  if (share > kMissLimit) return rate * kMissLimit / share;
  while (rate < 64000) {
    below = share;
    rate *= kRatio;
    share = miss_share(rate);
    if (share > kMissLimit) {
      const double t = (kMissLimit - below) / (share - below);
      return rate / kRatio * std::pow(kRatio, t);
    }
  }
  return rate;
}

struct ApplyLog {
  std::vector<double> rtt_ms;
  size_t attempted = 0, failed = 0;
  double columns_reset = 0, slices_patched = 0;
  std::string error;  ///< Why the chain stopped; empty if it did not.
};

/// Applies deltas [first, ...) on `fd`, one every 1/per_second seconds
/// (per_second <= 0: back to back) until `stop` or the deltas run out. The
/// server starts at epoch 0, so delta j (0-based) must answer with epoch
/// sequence j + 1; j + 1 is also the request id, and frames with another id
/// (late replies to reads sent on the same connection) are skipped.
void ApplyLoop(int fd, const std::vector<std::string>* payloads, size_t first,
               size_t max_count, double per_second,
               const std::atomic<bool>* stop, ApplyLog* log, SpanLog* spans) {
  const auto start = Clock::now();
  for (size_t i = 0; i < max_count && first + i < payloads->size(); ++i) {
    if (per_second > 0) {
      std::this_thread::sleep_until(
          start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(i / per_second)));
    }
    if (stop->load()) break;
    ++log->attempted;
    const uint64_t id = first + i + 1;
    const auto t0 = Clock::now();
    const auto reply_by = t0 + std::chrono::seconds(30);
    const Status sent = serve::SendFrame(fd, MessageType::kApplyDelta, id,
                                         (*payloads)[first + i], kIoTimeoutMs);
    Result<serve::Frame> frame =
        sent.ok() ? Status::Internal("no reply") : sent;
    while (sent.ok()) {
      const auto wait = std::chrono::duration_cast<std::chrono::milliseconds>(
          reply_by - Clock::now());
      frame = serve::RecvFrame(
          fd, static_cast<int>(std::max<int64_t>(1, wait.count())),
          kIoTimeoutMs);
      if (!frame.ok() || frame->header.request_id == id ||
          Clock::now() >= reply_by) {
        break;
      }
    }
    const auto t1 = Clock::now();
    std::string error;
    if (!frame.ok()) {
      error = frame.status().ToString();
    } else if (frame->header.request_id != id) {
      error = "no reply within 30 s";
    } else if (frame->header.type != MessageType::kApplyDeltaResult) {
      error = serve::DecodeErrorResponse(frame->payload).ToString();
    } else if (auto response = serve::DecodeApplyDeltaResponse(frame->payload);
               !response.ok()) {
      error = response.status().ToString();
    } else if (response->sequence != id) {
      error = "server epoch " + std::to_string(response->sequence) +
              " after " + std::to_string(id) + " applies";
    } else {
      log->rtt_ms.push_back(
          std::chrono::duration<double, std::milli>(t1 - t0).count());
      log->columns_reset += response->columns_reset;
      log->slices_patched += response->slices_patched;
      if (spans != nullptr) spans->Add("apply", t0, t1, -1, id);
      continue;
    }
    ++log->failed;
    log->error = "delta " + std::to_string(first + i) + " apply: " + error;
    break;  // The chain cannot continue past a failed delta.
  }
}

/// The dataset after deltas [0, count) applied in order with
/// ApplyDeltaToDataset: the mirror of the server's epoch chain.
Result<std::shared_ptr<const Dataset>> MirrorChain(
    std::shared_ptr<const Dataset> base,
    const std::vector<RevisionDelta>& deltas, size_t count) {
  for (size_t i = 0; i < count; ++i) {
    TIND_ASSIGN_OR_RETURN(DeltaApplication applied,
                          ApplyDeltaToDataset(*base, deltas[i]));
    base = std::move(applied.dataset);
  }
  return base;
}

/// Compares the server's epoch after deltas [0, applied) with `oracle`, a
/// fresh Build over the mirrored chain: 400 requests, half of them streamed,
/// a quarter reverse, sent one at a time. A quarter go to attributes the
/// deltas touched, a quarter to the attributes the fresh index finds
/// included in those (a touched attribute shows up in their forward
/// answers), the rest to any attribute. Returns the phase (its streams give
/// ingest-8k's TTFR).
PhaseResult CheckEpoch(int fd, uint32_t* phase_tag, Rng* rng, Oracle* oracle,
                       const std::vector<RevisionDelta>& deltas,
                       size_t applied, Report* report) {
  auto sort_unique = [](std::vector<AttributeId>* v) {
    std::sort(v->begin(), v->end());
    v->erase(std::unique(v->begin(), v->end()), v->end());
  };
  std::vector<AttributeId> touched, included;
  for (size_t i = 0; i < applied; ++i) {
    for (const RevisionOp& op : deltas[i].ops) {
      if (op.attribute != kInvalidAttributeId) touched.push_back(op.attribute);
    }
  }
  sort_unique(&touched);
  for (AttributeId id : touched) {
    const auto& lhs = oracle->Answer(id, /*reverse=*/true);
    included.insert(included.end(), lhs.begin(), lhs.end());
  }
  sort_unique(&included);
  const size_t n = oracle->index().dataset().size();
  Mix mix(n, 0.0, 0.5);
  for (double& share : mix.attribute_p) share = 0;
  double rest = 1.0;
  for (const auto* group : {&touched, &included}) {
    if (group->empty()) continue;
    for (AttributeId id : *group) {
      mix.attribute_p[id] += 0.25 / static_cast<double>(group->size());
    }
    rest -= 0.25;
  }
  for (double& share : mix.attribute_p) share += rest / static_cast<double>(n);
  PhaseResult p = RunPhase({fd}, ++*phase_tag, mix, rng, 0, 0, 400, 5.0);
  report->attempted += p.requests.size();
  report->failed += p.failed() + CheckAnswers(p, oracle, report);
  return p;
}

/// Latency percentiles are taken per window of the phase and the median
/// over the windows is reported: a burst of vCPU steal then spoils one
/// window instead of shifting the whole run. Each window still holds a few
/// thousand requests, so its p99 has at least ten samples beyond it.
constexpr int kWindows = 10;

double WindowedPercentile(const PhaseResult& phase,
                          const std::vector<std::pair<double, double>>& samples,
                          double p) {
  std::vector<std::vector<double>> windows(kWindows);
  const double width = std::max(phase.scheduled_s, 1e-9) / kWindows;
  for (const auto& [due_s, value] : samples) {
    windows[std::min(kWindows - 1, static_cast<int>(due_s / width))].push_back(value);
  }
  std::vector<double> per_window;
  for (auto& w : windows) {
    if (!w.empty()) per_window.push_back(Percentile(std::move(w), p));
  }
  return Percentile(std::move(per_window), 50);
}

void ExportPhase(const PhaseResult& phase, Report* report) {
  auto& m = report->metrics;
  std::vector<std::pair<double, double>> latency, ttfr;
  for (const auto& r : phase.requests) {
    const double due_s =
        std::chrono::duration<double>(r->due - phase.start).count();
    if (r->outcome == kAnswered) latency.emplace_back(due_s, r->LatencyMs());
    if (r->stream() && !r->partials.empty()) {
      ttfr.emplace_back(due_s, std::chrono::duration<double, std::milli>(
                                   r->first_frame - r->due)
                                   .count());
    }
  }
  m["p50_ms"] = WindowedPercentile(phase, latency, 50);
  m["p99_ms"] = WindowedPercentile(phase, latency, 99);
  if (!ttfr.empty()) m["ttfr_p50_ms"] = WindowedPercentile(phase, ttfr, 50);
  m["discovery_qps"] = static_cast<double>(phase.answered) /
                       std::max(phase.scheduled_s, 1e-9);
  m["gen.lag_p99_ms"] = Percentile(phase.lag_ms, 99);
  m["gen.achieved_over_offered"] = phase.achieved_over_offered();
  report->attempted += phase.requests.size();
  report->failed += phase.failed();
  std::fprintf(stderr,
               "perfbench: phase %zu requests: answered %zu shed %zu "
               "deadline %zu error %zu hung %zu\n",
               phase.requests.size(), phase.answered, phase.shed,
               phase.deadline, phase.error, phase.hung);
}

/// Per-request wire cost: encode + decode of the phase's own request and
/// response frames.
double CodecMicrosPerRequest(const PhaseResult& phase) {
  size_t n = 0;
  const auto t0 = Clock::now();
  for (const auto& r : phase.requests) {
    if (r->outcome != kAnswered) continue;
    const std::string req = serve::EncodeFrame(RequestType(*r), n, RequestFrame(*r));
    auto req_header =
        serve::DecodeFrameHeader(std::string_view(req).substr(0, serve::kFrameHeaderBytes));
    const std::string_view req_payload =
        std::string_view(req).substr(serve::kFrameHeaderBytes);
    bool ok = req_header.ok() &&
              serve::VerifyFrameCrc(
                  *req_header,
                  std::string_view(req).substr(0, serve::kFrameHeaderBytes),
                  req_payload)
                  .ok();
    ok = ok && (r->stream() ? serve::DecodeSearchStreamRequest(req_payload).ok()
                            : serve::DecodeSearchRequest(req_payload).ok());
    serve::SearchResponse response;
    response.ids = r->ids;
    const std::string resp =
        serve::EncodeFrame(MessageType::kSearchResult, n,
                           serve::EncodeSearchResponse(response));
    auto resp_header =
        serve::DecodeFrameHeader(std::string_view(resp).substr(0, serve::kFrameHeaderBytes));
    const std::string_view resp_payload =
        std::string_view(resp).substr(serve::kFrameHeaderBytes);
    ok = ok && resp_header.ok() &&
         serve::VerifyFrameCrc(*resp_header,
                               std::string_view(resp).substr(0, serve::kFrameHeaderBytes),
                               resp_payload)
             .ok() &&
         serve::DecodeSearchResponse(resp_payload).ok();
    if (!ok) return -1;
    ++n;
  }
  return n == 0 ? 0
                : std::chrono::duration<double, std::micro>(Clock::now() - t0)
                          .count() /
                      static_cast<double>(n);
}

/// In-process BatchSearch replay of the phase's own requests, cut into
/// batches of 1..64: ms per batch at each size, for run.py to read at the
/// server's observed mean batch size.
void ReplayBatches(const TindIndex& index, const TindParams& params,
                   const PhaseResult& phase, Report* report) {
  const size_t n = std::min<size_t>(2048, phase.requests.size());
  for (size_t size = 1; size <= 64; size *= 2) {
    double total_ms = 0;
    size_t batches = 0;
    for (size_t begin = 0; begin + size <= n; begin += size, ++batches) {
      std::vector<const AttributeHistory*> fwd, rev;
      for (size_t i = begin; i < begin + size; ++i) {
        const Request& r = *phase.requests[i];
        (r.reverse() ? rev : fwd).push_back(&index.dataset().attribute(r.attribute));
      }
      const auto t0 = Clock::now();
      if (!fwd.empty()) index.BatchSearch(fwd, params);
      if (!rev.empty()) index.BatchReverseSearch(rev, params);
      total_ms +=
          std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
    }
    report->metrics["replay.ms_per_batch." + std::to_string(size)] =
        total_ms / static_cast<double>(std::max<size_t>(1, batches));
  }
}

}  // namespace

int RunLoad(const Flags& flags) {
  const std::string workload = flags.GetString("workload", "");
  const std::string dir = flags.GetString("dir", "");
  const uint16_t port = static_cast<uint16_t>(flags.GetInt("port", 0));
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 1));
  const double seconds = flags.GetDouble("seconds", 10);
  const bool trace = flags.GetInt("trace", 0) != 0;
  const bool serve_mode = workload == "serve-8k";
  if (!serve_mode && workload != "ingest-8k") {
    std::fprintf(stderr, "perfbench load: unknown workload '%s'\n",
                 workload.c_str());
    return 2;
  }
  Report report;
  SpanLog spans(trace);
  auto& m = report.metrics;
  ResetRegistry(false);

  // ---- Inputs and the in-process reference index (untimed). ----
  const auto t_read = Clock::now();
  auto base = std::make_shared<Dataset>(ReadCorpusOrDie(dir + "/corpus.tsv"));
  m["wiki.read_s"] = SecondsSince(t_read);
  const ConstantWeight weight(base->domain().num_timestamps());
  const TindParams params{kEpsilon, kDelta, &weight};
  std::vector<std::string> payloads;
  auto deltas_or = ReadDeltaFile(dir + "/deltas.bin", &payloads);
  if (!deltas_or.ok()) {
    std::fprintf(stderr, "deltas: %s\n", deltas_or.status().ToString().c_str());
    return 1;
  }
  std::vector<std::shared_ptr<const Dataset>> mirrors;
  std::unique_ptr<TindIndex> reference;
  if (serve_mode) {
    SnapshotLoadOptions load;
    load.weight = &weight;
    const auto t0 = Clock::now();
    auto loaded = TindIndex::LoadSnapshot(*base, dir + "/index.tsnap", load);
    if (!loaded.ok()) {
      std::fprintf(stderr, "snapshot: %s\n", loaded.status().ToString().c_str());
      return 1;
    }
    m["snapshot.load_s"] = SecondsSince(t0);
    reference = std::move(*loaded);
  }

  std::vector<int> fds;
  for (int i = 0; i < 2; ++i) {
    auto fd = serve::ConnectTcp("127.0.0.1", port, 5000);
    if (!fd.ok()) {
      std::fprintf(stderr, "connect: %s\n", fd.status().ToString().c_str());
      return 1;
    }
    fds.push_back(*fd);
  }

  Rng rng(seed ^ 0x10AD6E7ULL);
  uint32_t phase_tag = 0;
  const Mix mix(base->size(), serve_mode ? 0.9 : 0.0, serve_mode ? 0.1 : 0.0);
  const int server_pid = static_cast<int>(flags.GetInt("server_pid", 0));
  const double server_cpu0 = ProcessCpuSeconds(server_pid);
  const CpuTimes cpu0 = ReadCpuTimes();
  ApplyLog applies;
  PhaseResult fixed;
  if (serve_mode) {
    fixed = RunPhase(fds, ++phase_tag, mix, &rng, kFixedRate, seconds, 0, 5.0);
  } else {
    std::atomic<bool> stop{false};
    std::thread applier(ApplyLoop, fds[1], &payloads, 0, payloads.size(),
                        kApplyPerSecond, &stop, &applies,
                        trace ? &spans : nullptr);
    fixed = RunPhase({fds[0]}, ++phase_tag, mix, &rng, kFixedRate, seconds, 0,
                     5.0);
    stop.store(true);
    applier.join();
    m["update.busy_share"] = [&] {
      double busy = 0;
      for (double ms : applies.rtt_ms) busy += ms;
      return busy / 1e3 / std::max(seconds, 1e-9);
    }();
  }
  m["host.steal_share"] = StealShare(cpu0, ReadCpuTimes());
  m["cpu_us_per_query"] = (ProcessCpuSeconds(server_pid) - server_cpu0) * 1e6 /
                          std::max<double>(1, static_cast<double>(fixed.answered));
  ExportPhase(fixed, &report);
  // Traced: the server's own counters and registry as of the end of the
  // fixed-rate phase (the host process writes them on SIGUSR1).
  const std::string server_metrics = flags.GetString("server_metrics", "");
  if (trace && server_pid > 0 && !server_metrics.empty()) {
    std::remove(server_metrics.c_str());
    kill(static_cast<pid_t>(server_pid), SIGUSR1);
    const auto t0 = Clock::now();
    while (std::ifstream(server_metrics).fail() && SecondsSince(t0) < 5) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }
  if (trace) {
    for (size_t i = 0; i < fixed.requests.size(); ++i) {
      const Request& r = *fixed.requests[i];
      const int64_t span = spans.Add("request", r.due, r.done, -1, i);
      spans.Add("request.send_lag", r.due, r.sent, span, i);
    }
  }

  // ---- Ingest: the final epoch against a fresh Build of the mirror. ----
  // The ingest check runs before the capacity search, whose answers are then
  // checked against the same build.
  auto build_mirror = [&](size_t applied) -> std::unique_ptr<TindIndex> {
    auto mirror = MirrorChain(base, *deltas_or, applied);
    auto fresh = mirror.ok()
                     ? TindIndex::Build(**mirror, DefaultIndexOptions(&weight))
                     : Result<std::unique_ptr<TindIndex>>(mirror.status());
    if (!fresh.ok()) {
      std::fprintf(stderr, "mirror: %s\n", fresh.status().ToString().c_str());
      return nullptr;
    }
    // The index borrows its dataset; keep the mirror alive beside it.
    mirrors.push_back(std::move(*mirror));
    return std::move(*fresh);
  };
  if (!serve_mode) {
    reference = build_mirror(applies.rtt_ms.size());
    if (reference == nullptr) return 1;
    if (trace) {
      // The server's applies, replayed in process on a built base with the
      // registry on.
      const auto t0 = Clock::now();
      auto built = TindIndex::Build(*base, DefaultIndexOptions(&weight));
      m["index.build_s"] = SecondsSince(t0);
      ResetRegistry(true);
      UpdateResult chained;  // Empty until the first apply.
      for (size_t i = 0; built.ok() && i < applies.rtt_ms.size(); ++i) {
        auto updated = IndexUpdater::ApplyDelta(
            chained.index != nullptr ? *chained.index : **built,
            (*deltas_or)[i]);
        if (!updated.ok()) break;
        chained = std::move(*updated);
      }
      ExportRegistryUpdateSplit(&report);
    }
  }
  m["index.matrix_mb"] =
      static_cast<double>(reference->MemoryUsageBytes()) / (1 << 20);
  if (trace) ResetRegistry(true);
  Oracle oracle(*reference, params);
  if (serve_mode) {
    report.failed += CheckAnswers(fixed, &oracle, &report);
  } else {
    // The first frames of the check's streams give ingest-8k's TTFR.
    const PhaseResult checked =
        CheckEpoch(fds[0], &phase_tag, &rng, &oracle, *deltas_or,
                   applies.rtt_ms.size(), &report);
    std::vector<double> ttfr;
    for (const auto& r : checked.requests) {
      if (!r->partials.empty()) {
        ttfr.push_back(std::chrono::duration<double, std::milli>(
                           r->first_frame - r->due)
                           .count());
      }
    }
    m["ttfr_p50_ms"] = Percentile(ttfr, 50);
  }
  if (trace) {
    ExportRegistryProbeRows(&report);
    oracle.funnel().Export(&report);
    m["wire.codec_us_per_req"] = CodecMicrosPerRequest(fixed);
    ReplayBatches(*reference, params, fixed, &report);
  }

  // ---- Capacity search (same mix as the fixed phase, reads only). ----
  // The probe traffic is drawn from a fixed seed, not from --seed: which of
  // the few expensive attributes a one-second step happens to contain
  // decided pass or fail far more than the server did.
  Rng probe_rng(kCorpusSeed ^ 0xCA9AC17EULL);
  m["capacity_qps"] =
      CapacitySearch(fds, &phase_tag, mix, &probe_rng, &oracle, &report);

  // ---- Serve: apply latency on the mmap-loaded index, one at a time. ----
  // The first applies materialize the mapped planes and grow the heap; they
  // run untimed. Then the final epoch is checked as on ingest-8k.
  if (serve_mode) {
    std::atomic<bool> stop{false};
    ApplyLog warmup;
    ApplyLoop(fds[1], &payloads, 0, kServeWarmupApplies, 0, &stop, &warmup,
              nullptr);
    applies.attempted += warmup.attempted;
    applies.failed += warmup.failed;
    applies.error = warmup.error;
    if (warmup.failed == 0) {
      ApplyLoop(fds[1], &payloads, kServeWarmupApplies, kServeApplies, 0,
                &stop, &applies, trace ? &spans : nullptr);
    }
    const size_t applied = warmup.rtt_ms.size() + applies.rtt_ms.size();
    const std::unique_ptr<TindIndex> fresh = build_mirror(applied);
    if (fresh == nullptr) return 1;
    Oracle final_oracle(*fresh, params);
    CheckEpoch(fds[0], &phase_tag, &rng, &final_oracle, *deltas_or, applied,
               &report);
  }
  report.attempted += applies.attempted;
  report.failed += applies.failed;
  if (!applies.error.empty()) report.Fail(applies.error);
  m["apply_p50_ms"] = Percentile(applies.rtt_ms, 50);
  m["apply_p90_ms"] = Percentile(applies.rtt_ms, 90);
  if (trace) {
    const double n =
        std::max<double>(1, static_cast<double>(applies.rtt_ms.size()));
    m["update.columns_reset_per_delta"] = applies.columns_reset / n;
    m["update.slices_patched_per_delta"] = applies.slices_patched / n;
  }
  for (int fd : fds) serve::CloseFd(fd);

  const std::string spans_path = flags.GetString("spans", "");
  if (trace && !spans_path.empty() && !spans.WriteJsonLines(spans_path)) {
    report.Fail("cannot write spans to " + spans_path);
  }
  std::printf("%s\n", report.ToJsonLine().c_str());
  return 0;
}

}  // namespace tind::perfbench
