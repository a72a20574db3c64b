/// Genuine-IND mining (the Section 5.5 use-case): run all-pairs discovery
/// with both the static-snapshot baseline and relaxed tIND discovery, then
/// compare their precision against the planted ground truth — demonstrating
/// the paper's headline result that temporal validity is a much stronger
/// signal of genuineness than single-snapshot validity. Optionally saves
/// the dataset and discovered pairs.
///
/// Flags: --attributes=N --days=N --seed=N --eps=E --delta=D --metrics_json=f
///        --save_dataset=path

#include <cstdio>
#include <set>

#include "baseline/static_ind.h"
#include "common/flags.h"
#include "obs/metrics.h"
#include "common/thread_pool.h"
#include "eval/precision_recall.h"
#include "tind/discovery.h"
#include "tind/index.h"
#include "wiki/corpus_io.h"
#include "wiki/generator.h"

using namespace tind;  // NOLINT(build/namespaces) — example brevity.

int main(int argc, char** argv) {
  const Flags flags = Flags::Parse(argc, argv);
  const std::string metrics_path = flags.GetString("metrics_json", "");
  if (!metrics_path.empty()) {
    obs::MetricsRegistry::Global().set_enabled(true);
  }
  wiki::GeneratorOptions gen_opts;
  gen_opts.seed = static_cast<uint64_t>(flags.GetInt("seed", 5));
  gen_opts.num_days = flags.GetInt("days", 2000);
  const size_t target = static_cast<size_t>(flags.GetInt("attributes", 1500));
  gen_opts.num_families = target / 16;
  gen_opts.num_noise_attributes = target * 7 / 10;
  gen_opts.num_catchall_attributes = 5;
  flags.Declare({"save_dataset", "eps", "delta"});  // Read further down.
  flags.RejectUnread();

  auto generated = wiki::WikiGenerator(gen_opts).GenerateDataset();
  if (!generated.ok()) {
    std::fprintf(stderr, "generation failed\n");
    return 1;
  }
  const Dataset& dataset = generated->dataset;
  const auto truth_ids =
      generated->ground_truth.ToIdPairs(generated->attribute_names);
  const std::set<IdPair> truth(truth_ids.begin(), truth_ids.end());
  std::printf("corpus: %zu attributes, %zu planted genuine inclusions\n",
              dataset.size(), truth.size());

  const std::string save_path = flags.GetString("save_dataset", "");
  if (!save_path.empty()) {
    const Status st = wiki::WriteDatasetFile(dataset, &generated->ground_truth,
                                             save_path);
    std::printf("dataset %s to %s\n", st.ok() ? "saved" : "NOT saved",
                save_path.c_str());
  }

  ThreadPool pool;

  // Baseline: static INDs on the latest snapshot.
  StaticIndOptions static_opts;
  static_opts.bloom_bits = 2048;
  auto static_discovery = StaticIndDiscovery::Build(dataset, static_opts);
  if (!static_discovery.ok()) return 1;
  const AllPairsResult static_inds = (*static_discovery)->AllPairs(&pool);

  // Relaxed tIND discovery.
  const ConstantWeight weight(dataset.domain().num_timestamps());
  const TindParams params{flags.GetDouble("eps", 3.0),
                          flags.GetInt("delta", 7), &weight};
  TindIndexOptions index_opts;
  index_opts.bloom_bits = 2048;
  index_opts.num_slices = 16;
  index_opts.delta = params.delta;
  index_opts.epsilon = params.epsilon;
  index_opts.weight = &weight;
  auto index = TindIndex::Build(dataset, index_opts);
  if (!index.ok()) return 1;
  const AllPairsResult tinds = DiscoverAllTinds(**index, params, &pool);

  const auto report = [&](const char* name, const AllPairsResult& result) {
    std::vector<IdPair> predicted;
    predicted.reserve(result.pairs.size());
    for (const TindPair& p : result.pairs) predicted.push_back({p.lhs, p.rhs});
    const PrecisionRecall pr = ComputePrecisionRecall(predicted, truth);
    std::printf("%-22s %7zu found | precision %5.1f%% | recall %5.1f%% | "
                "%.1fs\n",
                name, result.pairs.size(), 100 * pr.precision, 100 * pr.recall,
                result.elapsed_seconds);
    return pr;
  };
  std::printf("\n%-22s %13s | %-16s | %-13s\n", "method", "", "vs ground truth", "");
  const PrecisionRecall static_pr = report("static (snapshot)", static_inds);
  const PrecisionRecall tind_pr = report("relaxed tIND", tinds);

  if (tind_pr.precision > static_pr.precision) {
    std::printf("\n=> tIND discovery is %.1fx more precise than static "
                "discovery (paper: 50%% vs 11%%)\n",
                tind_pr.precision / std::max(1e-9, static_pr.precision));
  }

  // Show a few of the confirmed genuine inclusions.
  std::printf("\nsample of discovered genuine inclusions:\n");
  size_t shown = 0;
  for (const TindPair& p : tinds.pairs) {
    if (truth.count({p.lhs, p.rhs}) == 0) continue;
    std::printf("  %s  IN  %s\n",
                dataset.attribute(p.lhs).meta().FullName().c_str(),
                dataset.attribute(p.rhs).meta().FullName().c_str());
    if (++shown >= 5) break;
  }
  if (!metrics_path.empty() &&
      obs::MetricsRegistry::Global().WriteJsonFile(metrics_path)) {
    std::printf("metrics written to %s\n", metrics_path.c_str());
  }
  return 0;
}
