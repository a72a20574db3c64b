/// Ablation microbenchmark (design choice from Section 4.3): Algorithm 2's
/// change-point interval sweep vs the naive per-timestamp validator, across
/// history densities and δ values. The speedup grows with the ratio of
/// timestamps to change points — the paper's corpus averages 13 changes
/// over ~2000 daily timestamps, a ~150x sparsity factor. The
/// BM_RecheckCatchAll pair times the exact recheck's subset test on the
/// catch-alls: sorted-list search against the dense membership bitmap.

#include <benchmark/benchmark.h>

#include <map>
#include <memory>

#include "common/rng.h"
#include "temporal/attribute_history.h"
#include "temporal/dataset.h"
#include "tind/validator.h"

namespace tind {
namespace {

AttributeHistory MakeRandomHistory(Rng* rng, const TimeDomain& domain,
                                   size_t versions, size_t cardinality,
                                   AttributeId id) {
  AttributeHistoryBuilder b(id, {}, domain);
  const int64_t n = domain.num_timestamps();
  std::vector<Timestamp> ts;
  for (size_t i = 0; i < versions; ++i) {
    ts.push_back(static_cast<Timestamp>(rng->Uniform(n)));
  }
  std::sort(ts.begin(), ts.end());
  ts.erase(std::unique(ts.begin(), ts.end()), ts.end());
  for (const Timestamp t : ts) {
    std::vector<ValueId> vals;
    for (size_t v = 0; v < cardinality; ++v) {
      vals.push_back(static_cast<ValueId>(rng->Uniform(200)));
    }
    (void)b.AddVersion(t, ValueSet::FromUnsorted(std::move(vals)));
  }
  if (b.num_versions() == 0) (void)b.AddVersion(0, ValueSet{0});
  return std::move(*b.Finish());
}

struct Fixture {
  TimeDomain domain{2000};
  ConstantWeight weight{2000};
  std::vector<AttributeHistory> qs, as;

  explicit Fixture(size_t versions) {
    Rng rng(9 + versions);
    for (int i = 0; i < 16; ++i) {
      qs.push_back(MakeRandomHistory(&rng, domain, versions, 28,
                                     static_cast<AttributeId>(2 * i)));
      as.push_back(MakeRandomHistory(&rng, domain, versions, 28,
                                     static_cast<AttributeId>(2 * i + 1)));
    }
  }
};

Fixture* GetFixture(size_t versions) {
  static std::map<size_t, std::unique_ptr<Fixture>> fixtures;
  auto& f = fixtures[versions];
  if (!f) f = std::make_unique<Fixture>(versions);
  return f.get();
}

void BM_ValidateAlgorithm2(benchmark::State& state) {
  Fixture* f = GetFixture(static_cast<size_t>(state.range(0)));
  const TindParams params{3.0, state.range(1), &f->weight};
  size_t i = 0;
  for (auto _ : state) {
    const size_t j = i++ % f->qs.size();
    benchmark::DoNotOptimize(
        ValidateTind(f->qs[j], f->as[j], params, f->domain));
  }
}
BENCHMARK(BM_ValidateAlgorithm2)
    ->ArgsProduct({{5, 13, 50, 200}, {0, 7, 90}})
    ->ArgNames({"versions", "delta"});

void BM_ValidateNaive(benchmark::State& state) {
  Fixture* f = GetFixture(static_cast<size_t>(state.range(0)));
  const TindParams params{3.0, state.range(1), &f->weight};
  size_t i = 0;
  for (auto _ : state) {
    const size_t j = i++ % f->qs.size();
    benchmark::DoNotOptimize(
        ValidateTindNaive(f->qs[j], f->as[j], params, f->domain));
  }
}
BENCHMARK(BM_ValidateNaive)
    ->ArgsProduct({{5, 13, 50}, {0, 7}})
    ->ArgNames({"versions", "delta"});

void BM_ViolationWeightSweep(benchmark::State& state) {
  // The Fig. 15 grid-search primitive: full violation weight, no early exit.
  Fixture* f = GetFixture(13);
  size_t i = 0;
  for (auto _ : state) {
    const size_t j = i++ % f->qs.size();
    benchmark::DoNotOptimize(ComputeViolationWeight(
        f->qs[j], f->as[j], state.range(0), f->weight, f->domain));
  }
}
BENCHMARK(BM_ViolationWeightSweep)->Arg(0)->Arg(7)->Arg(90)->ArgName("delta");

/// The corpus catch-all shape that dominates discovery's validation time:
/// Q has 16 versions of about 5.5k values over a 5.6k-value universe, and
/// 20 candidates of the same shape. One query validates all 20.
struct CatchAllFixture {
  static constexpr size_t kCandidates = 20;
  TimeDomain domain{2000};
  ConstantWeight weight{2000};
  AttributeHistory q;
  std::vector<AttributeHistory> as;

  static AttributeHistory MakeCatchAll(Rng* rng, const TimeDomain& domain,
                                       AttributeId id) {
    AttributeHistoryBuilder b(id, {}, domain);
    for (Timestamp t = 0; t < 2000; t += 125) {  // 16 versions.
      std::vector<ValueId> vals;
      for (ValueId v = 0; v < 5600; ++v) {
        if (rng->Bernoulli(0.985)) vals.push_back(v);
      }
      (void)b.AddVersion(t, ValueSet::FromUnsorted(std::move(vals)));
    }
    return std::move(*b.Finish());
  }

  CatchAllFixture() {
    Rng rng(77);
    q = MakeCatchAll(&rng, domain, 0);
    for (size_t i = 1; i <= kCandidates; ++i) {
      as.push_back(MakeCatchAll(&rng, domain, static_cast<AttributeId>(i)));
    }
  }
};

CatchAllFixture* GetCatchAllFixture() {
  static CatchAllFixture fixture;
  return &fixture;
}

void BM_ValidateCatchAllPerCandidate(benchmark::State& state) {
  // ValidateTind(q, a) per candidate: the Q side of Algorithm 2 is
  // prepared again for every candidate.
  CatchAllFixture* f = GetCatchAllFixture();
  const TindParams params{3.0, 7, &f->weight};
  for (auto _ : state) {
    for (const AttributeHistory& a : f->as) {
      benchmark::DoNotOptimize(ValidateTind(f->q, a, params, f->domain));
    }
  }
  state.SetItemsProcessed(state.iterations() * CatchAllFixture::kCandidates);
}
BENCHMARK(BM_ValidateCatchAllPerCandidate)->Unit(benchmark::kMillisecond);

void BM_ValidateCatchAllPrepared(benchmark::State& state) {
  // The discovery path: prepare Q once, then validate every candidate.
  CatchAllFixture* f = GetCatchAllFixture();
  const TindParams params{3.0, 7, &f->weight};
  for (auto _ : state) {
    const PreparedQuery prepared(f->q);
    for (const AttributeHistory& a : f->as) {
      benchmark::DoNotOptimize(ValidateTind(prepared, a, params, f->domain));
    }
  }
  state.SetItemsProcessed(state.iterations() * CatchAllFixture::kCandidates);
}
BENCHMARK(BM_ValidateCatchAllPrepared)->Unit(benchmark::kMillisecond);

/// The exact recheck's catch-all shape on discover-40k: 41 catch-alls of
/// about 5k values spread over a 189k-value dictionary, rechecked against
/// every query's required values. The catch-alls share a popular core, and
/// a query's 26 required values are 25 core values and one other value, so
/// the sorted-list test probes all 26 before it decides, as measured over
/// discover-40k's (query, catch-all) pairs.
struct RecheckFixture {
  static constexpr ValueId kDictionary = 188728;
  static constexpr size_t kCatchAlls = 41;
  static constexpr size_t kQueries = 64;
  static constexpr size_t kCore = 4000;
  static constexpr size_t kRequired = 26;
  TimeDomain domain{2000};
  std::vector<AttributeHistory> catch_alls;
  std::vector<ValueSet> required;

  RecheckFixture() {
    Rng rng(41);
    std::vector<ValueId> core;
    for (size_t i = 0; i < kCore; ++i) {
      core.push_back(static_cast<ValueId>(rng.Uniform(kDictionary / 2)));
    }
    for (size_t i = 0; i < kCatchAlls; ++i) {
      std::vector<ValueId> vals = core;
      for (size_t k = 0; k < 1000; ++k) {
        vals.push_back(static_cast<ValueId>(rng.Uniform(kDictionary)));
      }
      AttributeHistoryBuilder b(static_cast<AttributeId>(i), {}, domain);
      (void)b.AddVersion(0, ValueSet::FromUnsorted(std::move(vals)));
      catch_alls.push_back(std::move(*b.Finish()));
    }
    for (size_t q = 0; q < kQueries; ++q) {
      // The core lies in the dictionary's lower half, and the one other
      // value is among a catch-all's largest, so it is probed last.
      std::vector<ValueId> vals;
      for (size_t k = 0; k + 1 < kRequired; ++k) {
        vals.push_back(core[rng.Uniform(kCore)]);
      }
      const AttributeHistory& owner = catch_alls[rng.Uniform(kCatchAlls)];
      const std::vector<ValueId>& owned = owner.AllValues().values();
      vals.push_back(owned[owned.size() - 1 - rng.Uniform(100)]);
      required.push_back(ValueSet::FromUnsorted(std::move(vals)));
    }
  }
};

RecheckFixture* GetRecheckFixture() {
  static RecheckFixture fixture;
  return &fixture;
}

/// Runs every query's recheck over the catch-alls with `holds`; items are
/// queries, and "passes" counts the (query, catch-all) pairs that held.
template <typename Holds>
void RunRecheckCatchAll(benchmark::State& state, Holds holds) {
  RecheckFixture* f = GetRecheckFixture();
  size_t passes = 0;
  for (auto _ : state) {
    passes = 0;
    for (const ValueSet& required : f->required) {
      for (const AttributeHistory& c : f->catch_alls) {
        passes += holds(c, required);
      }
    }
    benchmark::DoNotOptimize(passes);
  }
  state.SetItemsProcessed(state.iterations() * RecheckFixture::kQueries);
  state.counters["passes"] = static_cast<double>(passes);
}

void BM_RecheckCatchAllSorted(benchmark::State& state) {
  // The galloping search through each catch-all's sorted A[T].
  RunRecheckCatchAll(state,
                     [](const AttributeHistory& c, const ValueSet& required) {
                       return required.IsSubsetOf(c.AllValues());
                     });
}
BENCHMARK(BM_RecheckCatchAllSorted);

void BM_RecheckCatchAllDense(benchmark::State& state) {
  // What RecheckStage runs: the catch-alls keep a membership bitmap.
  for (const AttributeHistory& c : GetRecheckFixture()->catch_alls) {
    if (!c.has_dense_membership()) {
      state.SkipWithError("a catch-all has no dense membership bitmap");
      return;
    }
  }
  RunRecheckCatchAll(state,
                     [](const AttributeHistory& c, const ValueSet& required) {
                       return c.HoldsAll(required);
                     });
}
BENCHMARK(BM_RecheckCatchAllDense);

void BM_RequiredValuesStyleVersionScan(benchmark::State& state) {
  // Cost of one full pass over a history's versions (index-build primitive).
  Fixture* f = GetFixture(static_cast<size_t>(state.range(0)));
  size_t i = 0;
  for (auto _ : state) {
    const size_t j = i++ % f->qs.size();
    size_t total = 0;
    f->qs[j].ForEachVersion(
        [&](const ValueSet& v, const Interval&) { total += v.size(); });
    benchmark::DoNotOptimize(total);
  }
}
BENCHMARK(BM_RequiredValuesStyleVersionScan)
    ->Arg(13)
    ->Arg(200)
    ->ArgName("versions");

}  // namespace
}  // namespace tind

BENCHMARK_MAIN();
