#include "serve/load.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <mutex>
#include <thread>

#include <memory>

#include "common/rng.h"
#include "obs/latency.h"

namespace tind::serve {

namespace {

using Clock = std::chrono::steady_clock;

struct WorkerTally {
  uint64_t ok = 0;
  uint64_t degraded = 0;
  uint64_t shed = 0;
  uint64_t deadline_exceeded = 0;
  uint64_t transport_errors = 0;
  uint64_t other_errors = 0;
  uint64_t streams = 0;
  uint64_t stream_partials = 0;
  std::vector<double> latencies_ms;  ///< Terminal-outcome latencies.
  std::vector<double> ttfr_ms;       ///< Streaming first-partial latencies.
};

}  // namespace

bool LoadReport::AllAccounted() const {
  return offered == ok + shed + deadline_exceeded + transport_errors +
                        other_errors;
}

obs::JsonValue LoadReport::ToJson() const {
  obs::JsonValue v = obs::JsonValue::Object();
  v.Set("offered", obs::JsonValue(offered));
  v.Set("ok", obs::JsonValue(ok));
  v.Set("degraded", obs::JsonValue(degraded));
  v.Set("shed", obs::JsonValue(shed));
  v.Set("deadline_exceeded", obs::JsonValue(deadline_exceeded));
  v.Set("transport_errors", obs::JsonValue(transport_errors));
  v.Set("other_errors", obs::JsonValue(other_errors));
  v.Set("retries", obs::JsonValue(retries));
  v.Set("reconnects", obs::JsonValue(reconnects));
  v.Set("achieved_qps", obs::JsonValue(achieved_qps));
  v.Set("p50_ms", obs::JsonValue(p50_ms));
  v.Set("p95_ms", obs::JsonValue(p95_ms));
  v.Set("p99_ms", obs::JsonValue(p99_ms));
  v.Set("max_ms", obs::JsonValue(max_ms));
  v.Set("streams", obs::JsonValue(streams));
  v.Set("stream_partials", obs::JsonValue(stream_partials));
  v.Set("ttfr_p50_ms", obs::JsonValue(ttfr_p50_ms));
  v.Set("ttfr_p95_ms", obs::JsonValue(ttfr_p95_ms));
  v.Set("ttfr_p99_ms", obs::JsonValue(ttfr_p99_ms));
  v.Set("ttfr_max_ms", obs::JsonValue(ttfr_max_ms));
  v.Set("all_accounted", obs::JsonValue(AllAccounted()));
  return v;
}

LoadReport RunOpenLoopLoad(const LoadOptions& options) {
  // Pre-compute the Poisson arrival schedule so workers only look up their
  // next slot (keeps the hot path allocation- and lock-free).
  Rng rng(options.seed);
  std::vector<double> arrivals_s;
  double t = 0;
  const double rate = std::max(1e-6, options.qps);
  while (t < options.duration_s) {
    // Inverse-CDF exponential inter-arrival; clamp u away from 0.
    const double u = std::max(1e-12, rng.UniformDouble());
    t += -std::log(u) / rate;
    if (t < options.duration_s) arrivals_s.push_back(t);
  }

  const size_t workers = std::max<size_t>(1, options.workers);
  std::vector<WorkerTally> tallies(workers);
  std::vector<TindClient::Counters> client_counters(workers);
  const Clock::time_point start =
      Clock::now() + std::chrono::milliseconds(20);

  // Hot/cold skew: the same seeded-shuffle-plus-Zipf-prefix construction as
  // scenario::BuildTrafficPlan, so a --scenario traffic model replays with
  // the same skew here as in the offline harness. Shared read-only across
  // workers.
  std::vector<AttributeId> ranked(options.num_attributes);
  for (size_t i = 0; i < options.num_attributes; ++i) {
    ranked[i] = static_cast<AttributeId>(i);
  }
  std::unique_ptr<ZipfSampler> hot_zipf;
  size_t hot_set_size = 0;
  if (options.hot_fraction > 0.0 && options.num_attributes > 0) {
    Rng hot_rng(options.seed ^ 0xB10C7AFF1CULL);
    hot_rng.Shuffle(&ranked);
    hot_set_size = std::max<size_t>(
        1, static_cast<size_t>(static_cast<double>(options.num_attributes) *
                               options.hot_set_fraction));
    hot_zipf = std::make_unique<ZipfSampler>(hot_set_size, 1.0);
  }

  auto worker_fn = [&](size_t w) {
    TindClient client(options.client);
    Rng pick(options.seed ^ (0x9e3779b97f4a7c15ULL * (w + 1)));
    WorkerTally& tally = tallies[w];
    for (size_t i = w; i < arrivals_s.size(); i += workers) {
      const Clock::time_point scheduled =
          start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(arrivals_s[i]));
      std::this_thread::sleep_until(scheduled);
      AttributeId attr;
      if (hot_zipf != nullptr && pick.Bernoulli(options.hot_fraction)) {
        attr = ranked[hot_zipf->Sample(&pick)];
      } else {
        attr = static_cast<AttributeId>(
            pick.Uniform(static_cast<uint64_t>(options.num_attributes)));
      }
      const double kind = pick.UniformDouble();
      const bool reverse = kind >= options.discovery_fraction &&
                           kind < options.discovery_fraction +
                                      options.reverse_fraction;
      const bool streamed = kind >= options.discovery_fraction &&
                            pick.UniformDouble() < options.stream_fraction;
      Result<QueryReply> reply = Status::Internal("unreached");
      if (streamed) {
        StreamReply stream;
        const Status status = reverse
                                  ? client.ReverseSearchStream(attr, &stream)
                                  : client.SearchStream(attr, &stream);
        ++tally.streams;
        if (stream.got_partial) {
          ++tally.stream_partials;
          tally.ttfr_ms.push_back(stream.ttfr_ms);
        }
        if (status.ok()) {
          QueryReply converted;
          converted.ids = std::move(stream.ids);
          converted.degraded = stream.degraded;
          reply = std::move(converted);
        } else {
          reply = status;
        }
      } else if (kind < options.discovery_fraction) {
        const AttributeId end = static_cast<AttributeId>(std::min<uint64_t>(
            options.num_attributes, attr + options.discovery_window));
        reply = end > attr ? client.DiscoveryWindow(attr, end)
                           : client.Search(attr);
      } else if (reverse) {
        reply = client.ReverseSearch(attr);
      } else {
        reply = client.Search(attr);
      }
      // Open-loop latency: measured from the *scheduled* arrival, so time
      // spent queued behind a saturated server is charged to the server.
      const double latency_ms =
          std::chrono::duration<double, std::milli>(Clock::now() - scheduled)
              .count();
      if (reply.ok()) {
        ++tally.ok;
        if (reply->degraded) ++tally.degraded;
        tally.latencies_ms.push_back(latency_ms);
      } else if (reply.status().IsResourceExhausted() ||
                 reply.status().IsOutOfMemory()) {
        ++tally.shed;
      } else if (reply.status().IsDeadlineExceeded()) {
        ++tally.deadline_exceeded;
      } else if (reply.status().IsIOError()) {
        ++tally.transport_errors;
      } else {
        ++tally.other_errors;
      }
    }
    client_counters[w] = client.counters();
  };

  std::vector<std::thread> threads;
  threads.reserve(workers);
  const Clock::time_point wall_start = Clock::now();
  for (size_t w = 0; w < workers; ++w) {
    threads.emplace_back(worker_fn, w);
  }
  for (std::thread& thread : threads) thread.join();
  const double wall_s =
      std::chrono::duration<double>(Clock::now() - wall_start).count();

  LoadReport report;
  report.offered = arrivals_s.size();
  std::vector<double> latencies;
  std::vector<double> ttfrs;
  for (WorkerTally& tally : tallies) {
    report.ok += tally.ok;
    report.degraded += tally.degraded;
    report.shed += tally.shed;
    report.deadline_exceeded += tally.deadline_exceeded;
    report.transport_errors += tally.transport_errors;
    report.other_errors += tally.other_errors;
    report.streams += tally.streams;
    report.stream_partials += tally.stream_partials;
    latencies.insert(latencies.end(), tally.latencies_ms.begin(),
                     tally.latencies_ms.end());
    ttfrs.insert(ttfrs.end(), tally.ttfr_ms.begin(), tally.ttfr_ms.end());
  }
  for (const TindClient::Counters& c : client_counters) {
    report.retries += c.retries;
    report.reconnects += c.reconnects;
  }
  const obs::LatencySummary latency = obs::LatencySummary::FromSamples(latencies);
  report.p50_ms = latency.p50;
  report.p95_ms = latency.p95;
  report.p99_ms = latency.p99;
  report.max_ms = latency.max;
  const obs::LatencySummary ttfr = obs::LatencySummary::FromSamples(ttfrs);
  report.ttfr_p50_ms = ttfr.p50;
  report.ttfr_p95_ms = ttfr.p95;
  report.ttfr_p99_ms = ttfr.p99;
  report.ttfr_max_ms = ttfr.max;
  report.achieved_qps =
      wall_s > 0 ? static_cast<double>(report.ok) / wall_s : 0;
  return report;
}

SweepResult RunQpsSweep(const LoadOptions& base,
                        const std::vector<double>& qps_ladder) {
  SweepResult sweep;
  for (const double qps : qps_ladder) {
    LoadOptions point_options = base;
    point_options.qps = qps;
    // De-correlate the arrival processes across points.
    point_options.seed = base.seed + static_cast<uint64_t>(sweep.points.size());
    SweepPoint point;
    point.qps = qps;
    point.report = RunOpenLoopLoad(point_options);
    const LoadReport& r = point.report;
    const double shed_fraction =
        r.offered == 0 ? 0
                       : static_cast<double>(r.shed) /
                             static_cast<double>(r.offered);
    if (shed_fraction < 0.01 && r.AllAccounted() && qps > sweep.knee_qps) {
      sweep.knee_qps = qps;
    }
    sweep.points.push_back(std::move(point));
  }
  return sweep;
}

obs::JsonValue SweepToJson(const SweepResult& sweep) {
  obs::JsonValue root = obs::JsonValue::Object();
  obs::JsonValue points = obs::JsonValue::Array();
  uint64_t total_offered = 0;
  uint64_t total_ok = 0;
  uint64_t hung = 0;
  bool all_accounted = true;
  for (const SweepPoint& point : sweep.points) {
    obs::JsonValue entry = point.report.ToJson();
    entry.Set("qps", obs::JsonValue(point.qps));
    points.Append(std::move(entry));
    total_offered += point.report.offered;
    total_ok += point.report.ok;
    all_accounted = all_accounted && point.report.AllAccounted();
    const uint64_t accounted =
        point.report.ok + point.report.shed +
        point.report.deadline_exceeded + point.report.transport_errors +
        point.report.other_errors;
    hung += point.report.offered > accounted
                ? point.report.offered - accounted
                : 0;
  }
  root.Set("points", std::move(points));
  root.Set("knee_qps", obs::JsonValue(sweep.knee_qps));
  root.Set("total_offered", obs::JsonValue(total_offered));
  root.Set("total_ok", obs::JsonValue(total_ok));
  root.Set("all_accounted", obs::JsonValue(all_accounted));
  root.Set("hung_requests", obs::JsonValue(hung));
  return root;
}

}  // namespace tind::serve
