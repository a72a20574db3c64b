#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "temporal/weights.h"
#include "tind/index.h"
#include "tind/progressive.h"
#include "wiki/generator.h"

/// \file golden_regression_test.cc
/// Pins the full batch pipeline output on fixed generator corpora to
/// checked-in golden files. Any change to the generator, the index build,
/// the Bloom hashing, or the batch execution path that alters a single
/// result shows up as a readable diff here instead of a silent behavior
/// drift. Two files:
///  * batch_golden_expected.txt — Algorithm 1's stage order
///    (QueryPlan::kPaperOrder) on a small corpus, stepped through the
///    batch pipeline's groups by a SearchCursor;
///  * batch_golden_default_order.txt — BatchSearch / BatchReverseSearch in
///    the default recheck-first order with the slice cost rule, on a
///    corpus with enough Bloom false positives
///    that the recheck, the rule and the slices all have work. Its funnel
///    is written in stage order: probe / recheck / slices / results, then
///    whether the slices ran ("run"), were skipped by the cost rule
///    ("skip") or were unusable ("off"), and the validations run.
///
/// Regenerating the fixtures (after an INTENDED behavior change):
///   TIND_REGEN_GOLDEN=1 ./build/tests/golden_regression_test
/// then inspect the diff of tests/golden/batch_golden_*.txt and commit it
/// together with the change that explains it. The tests fail while
/// regenerating so a stale TIND_REGEN_GOLDEN cannot pass CI.

namespace tind {
namespace {

/// The golden files live in the source tree; TIND_SOURCE_DIR is injected by
/// tests/CMakeLists.txt.
std::string GoldenPath(const std::string& name) {
  return std::string(TIND_SOURCE_DIR) + "/tests/golden/" + name;
}

struct GoldenSetup {
  wiki::GeneratorOptions gen;
  size_t bloom_bits = 512;
  QueryPlan plan = QueryPlan::kPaperOrder;
};

/// Renders one "direction query: rhs,rhs,..." line per query, both
/// directions, with the funnel counters that the differential test proves
/// equal to the looped path — so each file also pins the funnel shape.
std::string RenderGolden(const GoldenSetup& setup) {
  const wiki::GeneratorOptions& gen = setup.gen;
  auto generated = wiki::WikiGenerator(gen).GenerateDataset();
  if (!generated.ok()) std::abort();
  const Dataset& dataset = generated->dataset;

  const ConstantWeight w(dataset.domain().num_timestamps());
  TindIndexOptions opts;
  opts.bloom_bits = setup.bloom_bits;
  opts.num_hashes = 2;
  opts.num_slices = 6;
  opts.delta = 7;
  opts.epsilon = 3.0;
  opts.build_reverse_index = true;
  opts.reverse_slices = 2;
  opts.weight = &w;
  opts.seed = 99;
  auto built = TindIndex::Build(dataset, opts);
  if (!built.ok()) std::abort();
  const TindIndex& index = **built;
  const TindParams params{3.0, 7, &w};
  const bool paper = setup.plan == QueryPlan::kPaperOrder;

  std::vector<const AttributeHistory*> queries;
  for (size_t q = 0; q < dataset.size(); ++q) {
    queries.push_back(&dataset.attribute(static_cast<AttributeId>(q)));
  }
  std::ostringstream out;
  if (paper) {
    out << "# Batch pipeline golden: generator seed " << gen.seed << ", "
        << dataset.size() << " attributes, eps=3 delta=7 const weight.\n";
    out << "# Regenerate: TIND_REGEN_GOLDEN=1 ./golden_regression_test\n";
  } else {
    out << "# Default-order golden: generator seed " << gen.seed << ", "
        << dataset.size() << " attributes, m=" << setup.bloom_bits
        << ", eps=3 delta=7 const weight.\n";
    out << "# funnel=probe/recheck/slices/results slices=run|skip|off "
           "validations=N\n";
    out << "# Regenerate: TIND_REGEN_GOLDEN=1 ./golden_regression_test\n";
  }
  for (const bool forward : {true, false}) {
    std::vector<QueryStats> stats;
    std::vector<std::vector<AttributeId>> results;
    if (paper) {
      std::vector<SearchCursor::Member> members;
      for (const AttributeHistory* query : queries) {
        members.push_back({query, nullptr});
      }
      SearchCursor::Options options;
      options.reverse = !forward;
      options.plan = setup.plan;
      SearchCursor cursor(index, members, params, options);
      while (!cursor.done()) cursor.Step();
      for (size_t q = 0; q < queries.size(); ++q) {
        stats.push_back(cursor.stats(q));
        results.push_back(cursor.results(q));
      }
    } else {
      results = forward ? index.BatchSearch(queries, params, &stats)
                        : index.BatchReverseSearch(queries, params, &stats);
    }
    for (size_t q = 0; q < results.size(); ++q) {
      const QueryStats& s = stats[q];
      out << (forward ? "F" : "R") << " " << q << " funnel=";
      if (paper) {
        out << s.initial_candidates << "/" << s.after_slices << "/"
            << s.after_exact_check << "/" << s.num_results << ":";
      } else {
        out << s.initial_candidates << "/" << s.after_exact_check << "/"
            << s.after_slices << "/" << s.num_results << " slices="
            << (s.used_slices ? "run" : s.plan_skipped_slices ? "skip" : "off")
            << " validations=" << s.validations << ":";
      }
      for (size_t i = 0; i < results[q].size(); ++i) {
        out << (i == 0 ? " " : ",") << results[q][i];
      }
      out << "\n";
    }
  }
  return out.str();
}

/// Compares `actual` with the golden file `name` line by line (or rewrites
/// the file under TIND_REGEN_GOLDEN).
void ExpectMatchesGolden(const std::string& actual, const std::string& name) {
  const std::string path = GoldenPath(name);
  if (std::getenv("TIND_REGEN_GOLDEN") != nullptr) {
    std::ofstream out(path, std::ios::trunc);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << actual;
    out.close();
    FAIL() << "regenerated " << path
           << "; unset TIND_REGEN_GOLDEN and rerun to verify";
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good())
      << "missing golden file " << path
      << " — regenerate with TIND_REGEN_GOLDEN=1 (see file header)";
  std::ostringstream expected;
  expected << in.rdbuf();
  // Line-by-line so a drift points at the exact query.
  std::istringstream actual_lines(actual);
  std::istringstream expected_lines(expected.str());
  std::string a, e;
  size_t line = 0;
  while (true) {
    const bool has_a = static_cast<bool>(std::getline(actual_lines, a));
    const bool has_e = static_cast<bool>(std::getline(expected_lines, e));
    ++line;
    if (!has_a && !has_e) break;
    ASSERT_TRUE(has_a) << "golden has extra line " << line << ": " << e;
    ASSERT_TRUE(has_e) << "output has extra line " << line << ": " << a;
    ASSERT_EQ(a, e) << "golden mismatch at line " << line;
  }
}

TEST(GoldenRegressionTest, BatchPipelineMatchesGoldenFile) {
  GoldenSetup setup;
  setup.gen.seed = 424242;
  setup.gen.num_days = 120;
  setup.gen.num_families = 3;
  setup.gen.num_noise_attributes = 14;
  setup.gen.num_drifter_attributes = 6;
  setup.gen.num_catchall_attributes = 2;
  setup.gen.shared_vocabulary = 100;
  setup.gen.entities_per_family_pool = 60;
  setup.plan = QueryPlan::kPaperOrder;
  ExpectMatchesGolden(RenderGolden(setup), "batch_golden_expected.txt");
}

TEST(GoldenRegressionTest, DefaultOrderMatchesGoldenFile) {
  GoldenSetup setup;
  setup.gen.seed = 515151;
  setup.gen.num_days = 200;
  setup.gen.num_families = 4;
  setup.gen.num_noise_attributes = 24;
  setup.gen.num_drifter_attributes = 8;
  // Catch-alls over nearly all of the shared vocabulary: most noise queries
  // keep more than kSkipSlicesMax of them through the recheck.
  setup.gen.num_catchall_attributes = 14;
  setup.gen.catchall_coverage_min = 0.9;
  setup.gen.catchall_coverage_max = 1.0;
  setup.gen.shared_vocabulary = 120;
  setup.gen.entities_per_family_pool = 60;
  setup.bloom_bits = 128;
  setup.plan = QueryPlan::kRecheckFirst;
  ExpectMatchesGolden(RenderGolden(setup), "batch_golden_default_order.txt");
}

}  // namespace
}  // namespace tind
