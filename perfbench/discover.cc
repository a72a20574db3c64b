// `perfbench_tool discover`: the discover-40k workload in one process.
//
//   perfbench_tool discover --dir=<input dir> --seed=N --seconds=S
//       --trace=0|1 [--spans=<file>]
//
// Set-up (ReadDatasetFile + TindIndex::Build) runs three times and reports
// the median. One untimed warm-up pass of DiscoverAllTinds follows, then
// rounds until 75% of --seconds has elapsed (3 to 6). A round is one timed
// pass, then the interactive user of the same index: a sample of single
// Search calls (latency), SearchCursor first-stage time, the sample on all
// threads (throughput), and chained IndexUpdater::ApplyDelta calls (update
// latency at this scale). Every pass uses its own ε in [3, 4): weights are
// whole days, so every pass must produce the same pair set as ε = 3 while no
// two passes share an (ε, δ) key. Afterwards the chained index is compared
// with a fresh Build over the mirrored ApplyDeltaToDataset chain.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <thread>

#include "common/hash.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "perfbench.h"
#include "tind/discovery.h"
#include "tind/progressive.h"
#include "tind/validator.h"

namespace tind::perfbench {
namespace {

constexpr size_t kSampleQueries = 1000;
constexpr size_t kParallelRepeats = 4;
constexpr size_t kNaivePairs = 24;
/// The first applies grow the heap by a whole index copy each and run up to
/// twice as slow as the rest; they are applied but not timed.
constexpr size_t kWarmupApplies = 4;
constexpr size_t kAppliesPerRound = 4;
constexpr size_t kMinRounds = 3;
constexpr size_t kMaxRounds = 6;

uint64_t PairDigest(const std::vector<TindPair>& pairs) {
  uint64_t h = HashUint64(pairs.size());
  for (const TindPair& p : pairs) {
    h = HashCombine(h, (static_cast<uint64_t>(p.lhs) << 32) | p.rhs);
  }
  return h;
}

/// The rhs ids of every discovered pair with the given lhs (pairs are sorted).
std::vector<AttributeId> RhsOf(const std::vector<TindPair>& pairs,
                               AttributeId lhs) {
  auto it = std::lower_bound(pairs.begin(), pairs.end(), TindPair{lhs, 0});
  std::vector<AttributeId> out;
  for (; it != pairs.end() && it->lhs == lhs; ++it) out.push_back(it->rhs);
  return out;
}

}  // namespace

int RunDiscover(const Flags& flags) {
  const std::string dir = flags.GetString("dir", "");
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 1));
  const double seconds = flags.GetDouble("seconds", 10);
  const bool trace = flags.GetInt("trace", 0) != 0;
  const size_t threads = std::min<size_t>(
      4, std::max(1u, std::thread::hardware_concurrency()));

  Report report;
  SpanLog spans(trace);
  ResetRegistry(trace);
  auto& m = report.metrics;
  const int64_t root = spans.Begin("discover-40k");

  // ---- Set-up, three times. ----
  std::unique_ptr<Dataset> dataset;
  std::unique_ptr<ConstantWeight> weight;
  std::unique_ptr<TindIndex> index;
  std::vector<double> setup_s, read_s, build_s;
  for (int rep = 0; rep < 3; ++rep) {
    index.reset();
    dataset.reset();
    ScopedSpan setup(&spans, "setup", root);
    const auto t0 = Clock::now();
    {
      ScopedSpan s(&spans, "wiki.read", setup.id());
      dataset = std::make_unique<Dataset>(
          ReadCorpusOrDie(dir + "/corpus.tsv"));
    }
    read_s.push_back(SecondsSince(t0));
    if (weight == nullptr) {
      weight = std::make_unique<ConstantWeight>(
          dataset->domain().num_timestamps());
    }
    const auto t1 = Clock::now();
    {
      ScopedSpan s(&spans, "index.build", setup.id());
      auto built = TindIndex::Build(*dataset, DefaultIndexOptions(weight.get()));
      if (!built.ok()) {
        std::fprintf(stderr, "build: %s\n", built.status().ToString().c_str());
        return 1;
      }
      index = std::move(*built);
    }
    build_s.push_back(SecondsSince(t1));
    setup_s.push_back(SecondsSince(t0));
  }
  m["setup_s"] = Percentile(setup_s, 50);
  m["wiki.read_s"] = Percentile(read_s, 50);
  m["index.build_s"] = Percentile(build_s, 50);
  m["index.matrix_mb"] =
      static_cast<double>(index->MemoryUsageBytes()) / (1 << 20);
  const Dataset& ds = *dataset;
  const size_t ds_size = ds.size();

  ThreadPool pool(threads);
  auto params_for = [&](double eps) {
    return TindParams{eps, kDelta, weight.get()};
  };
  auto run_pass = [&](double eps, ThreadPool* p, const char* name) {
    ScopedSpan s(&spans, name, root);
    return DiscoverAllTinds(*index, params_for(eps), p);
  };

  std::vector<RevisionDelta> deltas;
  {
    auto read = ReadDeltaFile(dir + "/deltas.bin", nullptr);
    if (!read.ok()) {
      std::fprintf(stderr, "deltas: %s\n", read.status().ToString().c_str());
      return 1;
    }
    deltas = std::move(*read);
  }

  // ---- Warm-up pass, and the naive check of its pairs. ----
  const AllPairsResult reference = run_pass(kEpsilon, &pool, "pass.warmup");
  const uint64_t digest = PairDigest(reference.pairs);
  // Peak RSS of the built index plus a full discovery pass, before the
  // applies add a second index copy.
  m["peak_rss_mb"] = PeakRssMb();
  {
    ScopedSpan s(&spans, "check.naive", root);
    Rng rng(seed ^ 0x5EED0F0A1EULL);
    const TindParams params = params_for(kEpsilon);
    const size_t n = std::min(kNaivePairs, reference.pairs.size());
    for (size_t i = 0; i < n; ++i) {
      const TindPair& p = reference.pairs[rng.Uniform(reference.pairs.size())];
      ++report.attempted;
      if (!ValidateTindNaive(ds.attribute(p.lhs), ds.attribute(p.rhs), params,
                             ds.domain())) {
        ++report.failed;
        report.Fail("pair " + std::to_string(p.lhs) + "->" +
                    std::to_string(p.rhs) + " fails ValidateTindNaive");
      }
    }
  }

  // ---- Rounds. ----
  // Each round runs one timed pass, a fresh systematic sample through
  // single Search, SearchCursor and all threads, and a few chained applies;
  // a metric is the median over the rounds (applies: pooled). Spreading every
  // measurement over the whole run keeps a burst of host noise from moving
  // any one metric much.
  const double offset = Rng(seed ^ 0x5A3B1E5ULL).UniformDouble();
  const CpuTimes cpu0 = ReadCpuTimes();
  const auto measure_start = Clock::now();
  std::vector<double> pass_qps, pass_s, pass_cpu_us, p50, p99, ttfr, capacity;
  std::vector<double> apply_ms;
  double columns_reset = 0, slices_patched = 0;
  FunnelTotals funnel;
  UpdateResult current;  // Empty: the built index.
  size_t next_delta = 0, applied = 0;
  auto apply_next = [&](bool timed) {
    if (applied != next_delta || next_delta >= deltas.size()) return;
    const RevisionDelta& delta = deltas[next_delta++];
    const TindIndex& base = current.index != nullptr ? *current.index : *index;
    const auto t0 = Clock::now();
    const int64_t span = spans.Begin("update.apply", root);
    auto updated = IndexUpdater::ApplyDelta(base, delta);
    spans.End(span);
    const double ms =
        std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
    ++report.attempted;
    if (!updated.ok()) {
      ++report.failed;
      report.Fail("ApplyDelta: " + updated.status().ToString());
      return;
    }
    current = std::move(*updated);
    ++applied;
    if (!timed) return;
    apply_ms.push_back(ms);
    columns_reset += static_cast<double>(current.stats.columns_reset);
    slices_patched += static_cast<double>(current.stats.slices_patched);
  };
  for (size_t i = 0; i < kWarmupApplies; ++i) apply_next(false);
  ResetRegistry(trace);
  for (size_t round = 0;
       round < kMinRounds ||
       (SecondsSince(measure_start) < 0.75 * seconds && round < kMaxRounds);
       ++round) {
    const double eps = kEpsilon + static_cast<double>(round + 1) / 32.0;
    const auto t_pass = Clock::now();
    const double cpu_pass = ProcessCpuSeconds();
    const AllPairsResult r = run_pass(eps, &pool, "pass");
    pass_s.push_back(SecondsSince(t_pass));
    pass_cpu_us.push_back((ProcessCpuSeconds() - cpu_pass) * 1e6 /
                          static_cast<double>(r.num_queries));
    pass_qps.push_back(static_cast<double>(r.num_queries) / pass_s.back());
    ++report.attempted;
    if (PairDigest(r.pairs) != digest) {
      ++report.failed;
      report.Fail("pass at eps=" + std::to_string(eps) +
                  " pair digest differs from eps=3");
    }

    // Systematic sample (every n/kSampleQueries-th id from a per-round
    // offset): the few very expensive attributes are contiguous in id
    // order, so every sample holds nearly the same number of them.
    std::vector<AttributeId> sample;
    const double stride =
        static_cast<double>(ds.size()) / static_cast<double>(kSampleQueries);
    const double round_offset = std::fmod(offset + 0.618034 * round, 1.0);
    for (size_t k = 0; k < kSampleQueries; ++k) {
      sample.push_back(static_cast<AttributeId>(
          (static_cast<double>(k) + round_offset) * stride));
    }
    const TindParams sample_params =
        params_for(kEpsilon + 0.5 + static_cast<double>(round) / 64.0);
    std::vector<double> latency_ms, first_ms;
    for (AttributeId q : sample) {
      QueryStats stats;
      const auto t0 = Clock::now();
      const std::vector<AttributeId> got =
          index->Search(ds.attribute(q), sample_params, &stats);
      const auto t1 = Clock::now();
      spans.Add("search", t0, t1, root, q);
      latency_ms.push_back(std::chrono::duration<double, std::milli>(t1 - t0).count());
      funnel.Add(stats);
      ++report.attempted;
      if (got != RhsOf(reference.pairs, q)) {
        ++report.failed;
        report.Fail("Search(" + std::to_string(q) + ") != discovered pairs");
      }
    }
    p50.push_back(Percentile(latency_ms, 50));
    p99.push_back(Percentile(latency_ms, 99));
    for (AttributeId q : sample) {
      const auto t0 = Clock::now();
      SearchCursor cursor(*index, ds.attribute(q), sample_params);
      cursor.Step();
      first_ms.push_back(
          std::chrono::duration<double, std::milli>(Clock::now() - t0).count());
      ++report.attempted;
      if (cursor.RunToCompletion() != RhsOf(reference.pairs, q)) {
        ++report.failed;
        report.Fail("SearchCursor(" + std::to_string(q) + ") != Search");
      }
    }
    ttfr.push_back(Percentile(first_ms, 50));
    {
      ScopedSpan s(&spans, "search.parallel", root);
      std::atomic<size_t> mismatches{0};
      const size_t n = kParallelRepeats * sample.size();
      const auto t0 = Clock::now();
      pool.ParallelFor(0, n, [&](size_t i) {
        const AttributeId q = sample[i % sample.size()];
        if (index->Search(ds.attribute(q), sample_params) !=
            RhsOf(reference.pairs, q)) {
          mismatches.fetch_add(1);
        }
      });
      capacity.push_back(static_cast<double>(n) / SecondsSince(t0));
      report.attempted += n;
      report.failed += mismatches.load();
      if (mismatches.load() != 0) report.Fail("parallel Search mismatches");
    }
    for (size_t i = 0; i < kAppliesPerRound; ++i) apply_next(true);
  }
  m["host.steal_share"] = StealShare(cpu0, ReadCpuTimes());
  m["discovery_qps"] = Percentile(pass_qps, 50);
  m["cpu_us_per_query"] = Percentile(pass_cpu_us, 50);
  m["p50_ms"] = Percentile(p50, 50);
  m["p99_ms"] = Percentile(p99, 50);
  m["ttfr_p50_ms"] = Percentile(ttfr, 50);
  m["capacity_qps"] = Percentile(capacity, 50);
  m["apply_p50_ms"] = Percentile(apply_ms, 50);
  m["apply_p90_ms"] = Percentile(apply_ms, 90);
  if (trace) {
    ExportRegistryProbeRows(&report);
    funnel.Export(&report);
    const auto t0 = Clock::now();
    run_pass(kEpsilon + 30.0 / 32.0, nullptr, "pass.sequential");
    m["pool.speedup"] = SecondsSince(t0) / Percentile(pass_s, 50);
    const double n = std::max<double>(1, static_cast<double>(apply_ms.size()));
    ExportRegistryUpdateSplit(&report);
    m["update.columns_reset_per_delta"] = columns_reset / n;
    m["update.slices_patched_per_delta"] = slices_patched / n;
  }

  // ---- The chained index against a fresh Build of the mirrored chain. ----
  if (applied > 0) {
    ScopedSpan s(&spans, "check.applies", root);
    std::shared_ptr<const Dataset> mirror;
    for (size_t i = 0; i < applied; ++i) {
      auto step = ApplyDeltaToDataset(mirror != nullptr ? *mirror : ds, deltas[i]);
      if (!step.ok()) {
        std::fprintf(stderr, "mirror: %s\n", step.status().ToString().c_str());
        return 1;
      }
      mirror = std::move(step->dataset);
    }
    // Only the chained index is compared from here; the base pair goes, so
    // that at most two 40k indexes are resident.
    index.reset();
    dataset.reset();
    auto fresh = TindIndex::Build(*mirror, DefaultIndexOptions(weight.get()));
    if (!fresh.ok()) {
      std::fprintf(stderr, "build: %s\n", fresh.status().ToString().c_str());
      return 1;
    }
    // Queried forward and reverse: every attribute a delta touched or added,
    // and a seeded sample of the rest. Then forward only: every attribute
    // the fresh index finds included in a touched one, since a touched
    // attribute shows up in those attributes' forward answers. Each index is
    // queried with its own dataset's history of the attribute.
    std::vector<AttributeId> touched;
    for (size_t i = 0; i < applied; ++i) {
      for (const RevisionOp& op : deltas[i].ops) {
        if (op.attribute != kInvalidAttributeId) touched.push_back(op.attribute);
      }
    }
    for (size_t id = ds_size; id < mirror->size(); ++id) {
      touched.push_back(static_cast<AttributeId>(id));
    }
    std::vector<AttributeId> ids = touched;
    Rng rng(seed ^ 0xC4A1BEDULL);
    for (size_t i = 0; i < kSampleQueries; ++i) {
      ids.push_back(static_cast<AttributeId>(rng.Uniform(mirror->size())));
    }
    auto sort_unique = [](std::vector<AttributeId>* v) {
      std::sort(v->begin(), v->end());
      v->erase(std::unique(v->begin(), v->end()), v->end());
    };
    sort_unique(&touched);
    sort_unique(&ids);
    const TindIndex& chained = *current.index;
    const TindIndex& rebuilt = **fresh;
    const TindParams params = params_for(kEpsilon);
    std::vector<std::vector<AttributeId>> included(touched.size());
    std::atomic<size_t> mismatches{0};
    pool.ParallelFor(0, 2 * ids.size(), [&](size_t i) {
      const AttributeId q = ids[i / 2];
      const AttributeHistory& a = chained.dataset().attribute(q);
      const AttributeHistory& b = rebuilt.dataset().attribute(q);
      if (i % 2 == 0) {
        if (chained.Search(a, params) != rebuilt.Search(b, params)) {
          mismatches.fetch_add(1);
        }
        return;
      }
      std::vector<AttributeId> want = rebuilt.ReverseSearch(b, params);
      if (chained.ReverseSearch(a, params) != want) mismatches.fetch_add(1);
      auto t = std::lower_bound(touched.begin(), touched.end(), q);
      if (t != touched.end() && *t == q) {
        included[static_cast<size_t>(t - touched.begin())] = std::move(want);
      }
    });
    std::vector<AttributeId> lhs;
    for (const auto& v : included) lhs.insert(lhs.end(), v.begin(), v.end());
    sort_unique(&lhs);
    pool.ParallelFor(0, lhs.size(), [&](size_t i) {
      const AttributeId q = lhs[i];
      if (chained.Search(chained.dataset().attribute(q), params) !=
          rebuilt.Search(rebuilt.dataset().attribute(q), params)) {
        mismatches.fetch_add(1);
      }
    });
    report.attempted += 2 * ids.size() + lhs.size();
    report.failed += mismatches.load();
    if (mismatches.load() != 0) {
      report.Fail(std::to_string(mismatches.load()) +
                  " answers of the index after " + std::to_string(applied) +
                  " chained applies differ from a fresh Build");
    }
  }
  spans.End(root);
  const std::string spans_path = flags.GetString("spans", "");
  if (trace && !spans_path.empty() && !spans.WriteJsonLines(spans_path)) {
    report.Fail("cannot write spans to " + spans_path);
  }
  std::printf("%s\n", report.ToJsonLine().c_str());
  return 0;
}

}  // namespace tind::perfbench
