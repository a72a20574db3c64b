/// Quickstart: the Figure-1 scenario in miniature. We hand-build the
/// histories of a handful of Pokémon-flavoured Wikipedia table columns,
/// index them, and run tIND searches to find which tables can extend the
/// entities of the "Game" column — including a case only the δ-relaxation
/// can catch (a delayed update) and one only ε can catch (vandalism that
/// was reverted after two days).

#include <cstdio>
#include <memory>

#include "common/flags.h"
#include "obs/metrics.h"
#include "temporal/dataset.h"
#include "tind/index.h"
#include "tind/validator.h"

using namespace tind;  // NOLINT(build/namespaces) — example brevity.

namespace {

/// Builds one attribute from (day, values) change points.
AttributeHistory MakeAttribute(Dataset* dataset, const std::string& page,
                               const std::string& column,
                               const std::vector<std::pair<Timestamp, std::vector<std::string>>>& versions) {
  AttributeHistoryBuilder builder(
      static_cast<AttributeId>(dataset->size()),
      AttributeMeta{page, "table", column}, dataset->domain());
  for (const auto& [day, values] : versions) {
    std::vector<ValueId> ids;
    for (const auto& v : values) {
      ids.push_back(dataset->mutable_dictionary()->Intern(v));
    }
    const Status st = builder.AddVersion(day, ValueSet::FromUnsorted(ids));
    if (!st.ok()) {
      std::fprintf(stderr, "bad version: %s\n", st.ToString().c_str());
      std::exit(1);
    }
  }
  auto history = builder.Finish();
  if (!history.ok()) std::exit(1);
  return std::move(*history);
}

}  // namespace

int main(int argc, char** argv) {
  // Pass --metrics_json=out.json to capture per-phase spans and probe
  // counters for everything this example does.
  const Flags flags = Flags::Parse(argc, argv);
  const std::string metrics_path = flags.GetString("metrics_json", "");
  if (!metrics_path.empty()) {
    obs::MetricsRegistry::Global().set_enabled(true);
  }
  flags.RejectUnread();

  // 100 daily snapshots.
  Dataset dataset(TimeDomain(100), std::make_shared<ValueDictionary>());

  // (A) The query: games listed in the main series table.
  dataset.Add(MakeAttribute(&dataset, "Pokémon (series)", "Game",
      {{0, {"Red", "Blue", "Yellow"}},
       {40, {"Red", "Blue", "Yellow", "Gold"}},       // Gold announced day 40.
       {70, {"Red", "Blue", "Yellow", "Gold", "TCG"}},// Vandalism: spin-off.
       {72, {"Red", "Blue", "Yellow", "Gold"}}}));    // Reverted 2 days later.

  // (B) Complete list of games — always a superset (strict tIND).
  dataset.Add(MakeAttribute(&dataset, "List of Pokémon video games", "Title",
      {{0, {"Red", "Blue", "Yellow", "Stadium", "Snap"}},
       {40, {"Red", "Blue", "Yellow", "Stadium", "Snap", "Gold"}}}));

  // (D) Games by composer — updated 5 days *late* when Gold appeared.
  dataset.Add(MakeAttribute(&dataset, "Junichi Masuda", "Works",
      {{0, {"Red", "Blue", "Yellow"}},
       {45, {"Red", "Blue", "Yellow", "Gold"}}}));

  // (C) Unrelated table that happens to share a value.
  dataset.Add(MakeAttribute(&dataset, "List of colors", "Name",
      {{0, {"Red", "Blue", "Green", "Cyan"}}}));

  // Build the index: max δ = 7 days, assumed ε = 3 days, w(t) = 1.
  const ConstantWeight weight(dataset.domain().num_timestamps());
  TindIndexOptions options;
  options.bloom_bits = 256;
  options.num_slices = 4;
  options.delta = 7;
  options.epsilon = 3.0;
  options.weight = &weight;
  auto index = TindIndex::Build(dataset, options);
  if (!index.ok()) {
    std::fprintf(stderr, "index build failed: %s\n",
                 index.status().ToString().c_str());
    return 1;
  }

  const AttributeHistory& query = dataset.attribute(0);
  std::printf("query attribute: %s\n\n", query.meta().FullName().c_str());

  const auto show = [&](const char* title, const TindParams& params) {
    QueryStats stats;
    const auto results = (*index)->Search(query, params, &stats);
    std::printf("%s (eps=%.0f, delta=%lld):\n", title, params.epsilon,
                static_cast<long long>(params.delta));
    if (results.empty()) std::printf("  (none)\n");
    for (const AttributeId id : results) {
      std::printf("  -> %s\n", dataset.attribute(id).meta().FullName().c_str());
    }
    std::printf("  [%zu candidates after pruning, %.3f ms]\n\n",
                stats.validations, stats.elapsed_ms);
  };

  // Strict temporal inclusion: only the complete list qualifies... in fact
  // even it fails, because of the 2-day TCG vandalism in the query.
  show("strict tIND search", TindParams{0.0, 0, &weight});

  // ε = 3 days forgives the reverted vandalism.
  show("eps-relaxed search", TindParams{3.0, 0, &weight});

  // δ = 7 days additionally forgives the composer table's 5-day lag.
  show("(eps, delta)-relaxed search", TindParams{3.0, 7, &weight});

  // Exponential decay: emphasize recent history.
  const ExponentialDecayWeight decay(dataset.domain().num_timestamps(), 0.97);
  show("weighted (exp-decay) search", TindParams{1.0, 7, &decay});

  // Direct validation of one pair, both via Algorithm 2 and naively.
  const TindParams params{3.0, 7, &weight};
  const bool valid =
      ValidateTind(query, dataset.attribute(2), params, dataset.domain());
  const double violation = ComputeViolationWeight(
      query, dataset.attribute(2), params.delta, weight, dataset.domain());
  std::printf("Game in Junichi-Masuda/Works: %s (violated weight %.1f of "
              "allowed %.1f)\n",
              valid ? "valid tIND" : "not a tIND", violation, params.epsilon);

  if (!metrics_path.empty() &&
      obs::MetricsRegistry::Global().WriteJsonFile(metrics_path)) {
    std::printf("metrics written to %s\n", metrics_path.c_str());
  }
  return 0;
}
