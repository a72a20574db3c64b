#include "eval/selfcheck.h"

#include <algorithm>
#include <cstdio>
#include <vector>

#include "common/rng.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "eval/runtime_stats.h"
#include "obs/metrics.h"
#include "scenario/scenario_run.h"
#include "temporal/weights.h"
#include "tind/discovery.h"
#include "tind/index.h"
#include "tind/validator.h"
#include "wiki/generator.h"

namespace tind::eval {

namespace {

/// Mirrors bench::ScaledOptions, reduced: selfcheck corpora are tiny and
/// only need every pruning stage (M_T hit, slice prune, exact recheck,
/// validation accept/reject) to actually fire.
wiki::GeneratorOptions ScaledGeneratorOptions(const SelfCheckOptions& opts) {
  wiki::GeneratorOptions gen;
  gen.seed = opts.seed;
  gen.num_days = opts.num_days;
  gen.num_families = std::max<size_t>(2, opts.target_attributes / 14);
  gen.num_noise_attributes =
      std::max<size_t>(8, opts.target_attributes * 45 / 100);
  gen.num_drifter_attributes =
      std::max<size_t>(4, opts.target_attributes * 18 / 100);
  gen.num_catchall_attributes = 2;
  gen.shared_vocabulary = std::max<size_t>(150, opts.target_attributes / 4);
  gen.entities_per_family_pool = 120;
  return gen;
}

/// Brute-force tIND search oracle: exact validation against every other
/// attribute, no index involved.
std::vector<AttributeId> OracleSearch(const Dataset& dataset,
                                      AttributeId query,
                                      const TindParams& params, bool forward) {
  std::vector<AttributeId> results;
  const AttributeHistory& q = dataset.attribute(query);
  for (size_t c = 0; c < dataset.size(); ++c) {
    const auto id = static_cast<AttributeId>(c);
    if (id == query) continue;
    const AttributeHistory& a = dataset.attribute(id);
    const bool valid = forward
                           ? ValidateTind(q, a, params, dataset.domain())
                           : ValidateTind(a, q, params, dataset.domain());
    if (valid) results.push_back(id);
  }
  return results;
}

std::string IdListToString(const std::vector<AttributeId>& ids) {
  std::string out = "[";
  for (size_t i = 0; i < ids.size() && i < 16; ++i) {
    if (i > 0) out += ",";
    out += std::to_string(ids[i]);
  }
  if (ids.size() > 16) out += ",...";
  return out + "]";
}

/// Collects per-check verdicts and remembers the first failure.
class CheckList {
 public:
  void Record(const std::string& name, bool ok, std::string detail = "") {
    obs::JsonValue check = obs::JsonValue::Object();
    check.Set("name", obs::JsonValue(name));
    check.Set("ok", obs::JsonValue(ok));
    if (!detail.empty()) check.Set("detail", obs::JsonValue(detail));
    checks_.Append(std::move(check));
    if (!ok && first_failure_.empty()) {
      first_failure_ = detail.empty() ? name : name + ": " + detail;
    }
  }

  bool all_ok() const { return first_failure_.empty(); }
  const std::string& first_failure() const { return first_failure_; }
  obs::JsonValue&& TakeJson() { return std::move(checks_); }

 private:
  obs::JsonValue checks_ = obs::JsonValue::Array();
  std::string first_failure_;
};

/// Restores the global registry's enabled flag on scope exit.
class EnabledStateGuard {
 public:
  EnabledStateGuard() : previous_(obs::MetricsRegistry::Global().enabled()) {}
  ~EnabledStateGuard() {
    obs::MetricsRegistry::Global().set_enabled(previous_);
  }

 private:
  bool previous_;
};

}  // namespace

Result<SelfCheckReport> RunSelfCheck(const SelfCheckOptions& options) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  EnabledStateGuard enabled_guard;
  registry.Reset();
  registry.set_enabled(true);

  Stopwatch total;
  CheckList checks;

  // Phase 1: synthetic corpus.
  wiki::GeneratedDataset generated;
  {
    TIND_OBS_SCOPED_TIMER("selfcheck_generate");
    auto result =
        wiki::WikiGenerator(ScaledGeneratorOptions(options)).GenerateDataset();
    TIND_RETURN_IF_ERROR(result.status());
    generated = std::move(*result);
  }
  const Dataset& dataset = generated.dataset;
  if (dataset.size() < 8) {
    return Status::FailedPrecondition(
        "selfcheck corpus too small: " + std::to_string(dataset.size()) +
        " attributes survived generation");
  }
  const ConstantWeight weight(dataset.domain().num_timestamps());
  const TindParams params{options.epsilon, options.delta, &weight};

  // Phase 2: index build (spans "index_build/*" record themselves).
  TindIndexOptions index_options;
  index_options.bloom_bits = options.bloom_bits;
  index_options.num_slices = options.num_slices;
  index_options.delta = options.delta;
  index_options.epsilon = options.epsilon;
  index_options.weight = &weight;
  auto index = TindIndex::Build(dataset, index_options);
  TIND_RETURN_IF_ERROR(index.status());

  // Phase 3: forward + reverse searches against the brute-force oracle.
  // Each forward query runs in both stage orders: the default one and
  // Algorithm 1's.
  Rng rng(options.seed ^ 0x9E3779B97F4A7C15ULL);
  RuntimeStats query_ms;
  for (size_t i = 0; i < options.oracle_queries; ++i) {
    const auto query = static_cast<AttributeId>(rng.Uniform(dataset.size()));
    const std::vector<AttributeId> expected =
        OracleSearch(dataset, query, params, /*forward=*/true);
    for (const QueryPlan plan :
         {QueryPlan::kRecheckFirst, QueryPlan::kPaperOrder}) {
      QueryStats stats;
      const std::vector<AttributeId> found =
          (*index)->Search(dataset.attribute(query), params, plan, &stats);
      const bool paper = stats.plan == QueryPlan::kPaperOrder;
      const std::string suffix =
          (paper ? "(paper_order,q=" : "(q=") + std::to_string(query) + ")";
      if (!paper) query_ms.Add(stats.elapsed_ms);
      checks.Record("forward_search_matches_oracle" + suffix,
                    found == expected,
                    found == expected
                        ? ""
                        : "index " + IdListToString(found) + " != oracle " +
                              IdListToString(expected));
      // The candidate funnel must be monotone in the order the stages ran
      // (QueryStats::plan): every pruning stage only removes candidates.
      const size_t second = paper ? stats.after_slices : stats.after_exact_check;
      const size_t third = paper ? stats.after_exact_check : stats.after_slices;
      checks.Record("candidate_funnel_monotone" + suffix,
                    stats.initial_candidates >= second && second >= third &&
                        third >= stats.num_results);
    }
  }
  for (size_t i = 0; i < std::min<size_t>(options.oracle_queries, 3); ++i) {
    const auto query = static_cast<AttributeId>(rng.Uniform(dataset.size()));
    const std::vector<AttributeId> found =
        (*index)->ReverseSearch(dataset.attribute(query), params);
    const std::vector<AttributeId> expected =
        OracleSearch(dataset, query, params, /*forward=*/false);
    checks.Record(
        "reverse_search_matches_oracle(q=" + std::to_string(query) + ")",
        found == expected,
        found == expected ? ""
                          : "index " + IdListToString(found) + " != oracle " +
                                IdListToString(expected));
  }
  query_ms.PublishTo(&registry, "selfcheck/query_ms");

  // Phase 4: all-pairs discovery; its pair set must agree with per-query
  // searches (it is implemented on top of them, so this catches threading
  // races rather than re-deriving correctness). The per-query searches run
  // in Algorithm 1's order, so the check also compares the two stage orders
  // over every attribute.
  size_t discovered_pairs = 0;
  if (options.run_discovery) {
    TIND_OBS_SCOPED_TIMER("selfcheck_discovery");
    ThreadPool* pool =
        options.use_thread_pool ? DefaultThreadPool() : nullptr;
    const AllPairsResult all_pairs = DiscoverAllTinds(**index, params, pool);
    discovered_pairs = all_pairs.pairs.size();
    size_t expected_pairs = 0;
    for (size_t q = 0; q < dataset.size(); ++q) {
      expected_pairs +=
          (*index)
              ->Search(dataset.attribute(static_cast<AttributeId>(q)), params,
                       QueryPlan::kPaperOrder)
              .size();
    }
    checks.Record("discovery_matches_per_query_searches",
                  discovered_pairs == expected_pairs,
                  std::to_string(discovered_pairs) + " pairs vs " +
                      std::to_string(expected_pairs) + " from serial queries");
    checks.Record("discovery_found_pairs", discovered_pairs > 0,
                  "expected a non-empty tIND set on the synthetic corpus");
  }

  // Phase 5: the metrics themselves — the report is only useful to CI if
  // the per-phase spans and probe counters actually populated. Skipped when
  // the instrumentation is compiled out (TIND_ENABLE_METRICS=OFF): the
  // correctness checks above still ran, there is just nothing to observe.
#if !TIND_OBS_DISABLED
  checks.Record("metric_index_build_span_recorded",
                registry.GetHistogram("span/index_build")->count() == 1);
  checks.Record("metric_m_t_probe_span_recorded",
                registry.GetHistogram("span/search/m_t_probe")->count() > 0);
  checks.Record(
      "metric_slice_prune_span_recorded",
      registry.GetHistogram("span/search/slice_prune")->count() > 0);
  checks.Record("metric_bloom_probes_counted",
                registry.GetCounter("bloom/superset_queries")->value() > 0);
  checks.Record("metric_slice_probes_counted",
                registry.GetCounter("search/slice_probes")->value() > 0);
  checks.Record("metric_validations_counted",
                registry.GetCounter("validate/calls")->value() > 0);
#endif  // !TIND_OBS_DISABLED

  // Phase 6: scenario stage — run a named scenario end to end and gate on
  // its precision/recall floors against the planted ground truth. Placed
  // after the metric checks on purpose: the stage builds a second index,
  // which would otherwise break the span/index_build count assertion.
  obs::JsonValue scenario_row;
  if (!options.scenario.empty()) {
    auto spec = scenario::ResolveScenario(options.scenario);
    checks.Record("scenario_spec_resolves", spec.ok(),
                  spec.ok() ? "" : spec.status().ToString());
    if (spec.ok()) {
      scenario::ScenarioRunOptions run_options;
      run_options.pool =
          options.use_thread_pool ? DefaultThreadPool() : nullptr;
      run_options.run_traffic = false;  // Quality stage, not a perf stage.
      auto run = scenario::RunScenario(*spec, run_options);
      checks.Record("scenario_run_ok", run.ok(),
                    run.ok() ? "" : run.status().ToString());
      if (run.ok()) {
        checks.Record(
            "scenario_has_planted_truth(" + spec->name + ")",
            spec->corpus.cluster_fraction <= 0.0 || run->planted_pairs > 0,
            "cluster_fraction > 0 but no planted pair survived the filters");
        checks.Record("scenario_floors_hold(" + spec->name + ")",
                      run->floors_ok, run->floor_failure);
        scenario_row = std::move(run->json);
      }
    }
  }

  SelfCheckReport report;
  report.ok = checks.all_ok();
  report.failure = checks.first_failure();
  report.num_attributes = dataset.size();
  report.discovered_pairs = discovered_pairs;

  obs::JsonValue root = obs::JsonValue::Object();
  root.Set("ok", obs::JsonValue(report.ok));
  obs::JsonValue corpus = obs::JsonValue::Object();
  corpus.Set("attributes", obs::JsonValue(static_cast<uint64_t>(dataset.size())));
  corpus.Set("days", obs::JsonValue(options.num_days));
  corpus.Set("seed", obs::JsonValue(options.seed));
  corpus.Set("planted_genuine_pairs",
             obs::JsonValue(
                 static_cast<uint64_t>(generated.ground_truth.size())));
  root.Set("corpus", std::move(corpus));
  root.Set("checks", checks.TakeJson());
  if (!scenario_row.is_null()) root.Set("scenario", std::move(scenario_row));
  obs::JsonValue results = obs::JsonValue::Object();
  results.Set("discovered_pairs",
              obs::JsonValue(static_cast<uint64_t>(discovered_pairs)));
  results.Set("elapsed_seconds", obs::JsonValue(total.ElapsedSeconds()));
  root.Set("results", std::move(results));
  root.Set("metrics", registry.ToJson());
  report.json = root.Dump(2);

  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "selfcheck %s: %zu attributes, %zu tIND pairs, %.2fs",
                report.ok ? "OK" : "FAILED", report.num_attributes,
                report.discovered_pairs, total.ElapsedSeconds());
  report.summary = buf;
  return report;
}

}  // namespace tind::eval
