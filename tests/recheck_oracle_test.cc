#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "temporal/weights.h"
#include "tind/index.h"
#include "tind/required_values.h"
#include "wiki/generator.h"

/// \file recheck_oracle_test.cc
/// Brute-force oracle for the exact required-values recheck (Algorithm 1,
/// line 16). The M_T and M_R probes have no false negatives, so whatever
/// the Bloom filters let through, the recheck must leave exactly the
/// attributes that pass the exact subset test:
///   forward: the c != Q with R_{ε,w}(Q) ⊆ A[T] of c;
///   reverse: the c != Q with R(c) ⊆ Q[T], R at the build (ε, w).
/// The corpus mixes histories that keep a dense membership bitmap (the
/// catch-alls among them) with ones that search their sorted list, and the
/// external queries add ids past every bitmap.

namespace tind {
namespace {

wiki::GeneratedDataset MakeCorpus(uint64_t seed) {
  wiki::GeneratorOptions gen;
  gen.seed = seed;
  gen.num_days = 200;
  gen.num_families = 4;
  gen.num_noise_attributes = 30;
  gen.num_drifter_attributes = 8;
  gen.num_catchall_attributes = 10;
  gen.catchall_coverage_min = 0.6;
  gen.catchall_coverage_max = 1.0;
  gen.shared_vocabulary = 150;
  gen.entities_per_family_pool = 60;
  auto generated = wiki::WikiGenerator(gen).GenerateDataset();
  if (!generated.ok()) std::abort();
  return std::move(*generated);
}

/// The generated corpus, whose small dictionary leaves every history dense,
/// plus sparse histories: the dictionary is padded to kDictionarySize ids,
/// and each sparse history holds the values of a generated one (so it
/// passes and fails the recheck like it) and one padded id near the top.
constexpr size_t kDictionarySize = 20000;

Dataset MakeMixedDataset(wiki::GeneratedDataset* corpus, uint64_t seed) {
  const Dataset& base = corpus->dataset;
  ValueDictionary* dict = corpus->dataset.mutable_dictionary();
  while (dict->size() < kDictionarySize) {
    dict->Intern("pad " + std::to_string(dict->size()));
  }
  Dataset mixed(base.domain(), base.shared_dictionary());
  for (const AttributeHistory& h : base.attributes()) mixed.Add(h);
  Rng rng(seed);
  for (size_t k = 0; k < 16; ++k) {
    const AttributeHistory& like =
        base.attribute(static_cast<AttributeId>(rng.Uniform(base.size())));
    std::vector<ValueId> ids = like.AllValues().values();
    ids.push_back(static_cast<ValueId>(kDictionarySize - 1 - rng.Uniform(1000)));
    AttributeHistoryBuilder b(static_cast<AttributeId>(mixed.size()),
                              AttributeMeta{"Sparse " + std::to_string(k),
                                            "list", "Token"},
                              base.domain());
    if (!b.AddVersion(like.birth(), ValueSet::FromUnsorted(std::move(ids)))
             .ok()) {
      std::abort();
    }
    mixed.Add(std::move(b.Finish()).ValueOrDie());
  }
  return mixed;
}

/// A copy of `h` outside the dataset whose last version also holds `extra`.
AttributeHistory ExternalCopy(const AttributeHistory& h, const TimeDomain& d,
                              ValueId extra) {
  AttributeHistoryBuilder b(kInvalidAttributeId, h.meta(), d);
  for (size_t v = 0; v < h.num_versions(); ++v) {
    ValueSet values = h.versions()[v];
    if (v + 1 == h.num_versions()) values = values.Union(ValueSet{extra});
    if (!b.AddVersion(h.change_timestamps()[v], std::move(values)).ok()) {
      std::abort();
    }
  }
  return std::move(b.Finish()).ValueOrDie();
}

class RecheckOracleTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RecheckOracleTest, RecheckKeepsExactlyTheSubsetPasses) {
  const uint64_t seed = GetParam();
  wiki::GeneratedDataset corpus = MakeCorpus(seed);
  const Dataset dataset = MakeMixedDataset(&corpus, seed);
  const TimeDomain& domain = dataset.domain();
  const int64_t n_days = domain.num_timestamps();
  const ConstantWeight const_w(n_days);
  const ExponentialDecayWeight decay_w(n_days, 0.98);

  size_t dense = 0;
  size_t catch_alls = 0;
  for (const AttributeHistory& h : dataset.attributes()) {
    dense += h.has_dense_membership();
    if (h.meta().page.rfind("Registry ", 0) == 0) {
      ++catch_alls;
      EXPECT_TRUE(h.has_dense_membership()) << h.meta().FullName();
    }
  }
  ASSERT_GT(catch_alls, 0u);
  ASSERT_GT(dense, catch_alls);
  ASSERT_LT(dense, dataset.size()) << "no history searches its sorted list";

  // Small filters let many Bloom false positives through to the recheck.
  TindIndexOptions opts;
  opts.bloom_bits = 64;
  opts.num_hashes = 2;
  opts.num_slices = 4;
  opts.delta = 7;
  opts.epsilon = 3.0;
  opts.weight = &const_w;
  opts.seed = seed;
  auto built = TindIndex::Build(dataset, opts);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  const TindIndex& index = **built;

  std::vector<AttributeHistory> externals;
  const ValueId past_dictionary =
      static_cast<ValueId>(dataset.dictionary().size() + 1000);
  for (size_t a = 0; a < dataset.size(); a += 7) {
    externals.push_back(ExternalCopy(
        dataset.attribute(static_cast<AttributeId>(a)), domain,
        a % 2 == 0 ? past_dictionary : static_cast<ValueId>(a)));
  }
  std::vector<const AttributeHistory*> queries;
  for (const AttributeHistory& h : dataset.attributes()) queries.push_back(&h);
  for (const AttributeHistory& h : externals) queries.push_back(&h);

  std::vector<ValueSet> build_required;
  for (const AttributeHistory& h : dataset.attributes()) {
    build_required.push_back(ComputeRequiredValues(h, const_w, opts.epsilon));
  }
  const auto is_self = [&](const AttributeHistory* q, size_t c) {
    return q == &dataset.attribute(static_cast<AttributeId>(c));
  };

  size_t forward_checked = 0;
  size_t reverse_checked = 0;
  size_t dropped = 0;
  for (const double epsilon : {0.0, 3.0, 5.0}) {
    for (const WeightFunction* w :
         {static_cast<const WeightFunction*>(&const_w),
          static_cast<const WeightFunction*>(&decay_w)}) {
      const TindParams params{epsilon, 7, w};
      const std::string context = "seed=" + std::to_string(seed) +
                                  " eps=" + std::to_string(epsilon) +
                                  (w == &decay_w ? " decay" : " const");
      std::vector<QueryStats> forward;
      index.BatchSearch(queries, params, &forward);
      std::vector<QueryStats> reverse;
      index.BatchReverseSearch(queries, params, &reverse);
      // The reverse recheck uses the build (ε, w) required values, so it
      // runs only where the M_R prefilter is usable: at ε up to the build
      // ε, whatever the query's weight.
      const bool reverse_usable = epsilon <= opts.epsilon;
      for (size_t q = 0; q < queries.size(); ++q) {
        const AttributeHistory& query = *queries[q];
        const ValueSet required = ComputeRequiredValues(query, *w, epsilon);
        if (!required.empty()) {
          size_t expected = 0;
          for (size_t c = 0; c < dataset.size(); ++c) {
            expected += !is_self(&query, c) &&
                        required.IsSubsetOf(
                            dataset.attribute(static_cast<AttributeId>(c))
                                .AllValues());
          }
          EXPECT_EQ(forward[q].after_exact_check, expected)
              << context << " forward q=" << q;
          dropped += forward[q].initial_candidates - expected;
          ++forward_checked;
        }
        ASSERT_EQ(reverse[q].used_prefilter, reverse_usable) << context;
        if (reverse_usable) {
          size_t expected = 0;
          for (size_t c = 0; c < dataset.size(); ++c) {
            expected += !is_self(&query, c) &&
                        build_required[c].IsSubsetOf(query.AllValues());
          }
          EXPECT_EQ(reverse[q].after_exact_check, expected)
              << context << " reverse q=" << q;
          dropped += reverse[q].initial_candidates - expected;
          ++reverse_checked;
        }
      }
    }
  }
  EXPECT_GT(forward_checked, queries.size());
  EXPECT_GT(reverse_checked, queries.size());
  EXPECT_GT(dropped, 0u) << "the recheck never had a false positive to drop";
}

INSTANTIATE_TEST_SUITE_P(Seeds, RecheckOracleTest,
                         ::testing::Values(3u, 17u, 41u));

}  // namespace
}  // namespace tind
