#ifndef TIND_TEMPORAL_DATASET_H_
#define TIND_TEMPORAL_DATASET_H_

/// \file dataset.h
/// The input of tIND discovery: the set of attributes D (Section 3.1),
/// i.e. a time domain, a shared value dictionary, and one AttributeHistory
/// per attribute. Datasets are built once and then shared read-only across
/// query threads.

#include <memory>
#include <vector>

#include "temporal/attribute_history.h"
#include "temporal/time_domain.h"
#include "temporal/value_dictionary.h"

namespace tind {

/// \brief Summary statistics matching the corpus description of Section 5.1.
struct DatasetStats {
  size_t num_attributes = 0;
  size_t num_distinct_values = 0;
  double avg_changes = 0;             ///< paper: ~13
  double avg_lifetime_years = 0;      ///< paper: ~5.6
  double avg_version_cardinality = 0; ///< paper: ~28
  size_t total_versions = 0;
  size_t memory_bytes = 0;
};

/// \brief A set of attribute histories over one time domain.
class Dataset {
 public:
  Dataset() = default;
  Dataset(TimeDomain domain, std::shared_ptr<ValueDictionary> dictionary)
      : domain_(domain), dictionary_(std::move(dictionary)) {}

  const TimeDomain& domain() const { return domain_; }
  const ValueDictionary& dictionary() const { return *dictionary_; }
  ValueDictionary* mutable_dictionary() { return dictionary_.get(); }
  std::shared_ptr<ValueDictionary> shared_dictionary() const {
    return dictionary_;
  }

  size_t size() const { return attributes_.size(); }
  const AttributeHistory& attribute(AttributeId id) const {
    return attributes_[id];
  }
  /// Mutable history access for the live-ingest path (tind/update.h), which
  /// appends revisions to a *private copy* of the dataset; shared datasets
  /// stay read-only.
  AttributeHistory* mutable_attribute(AttributeId id) {
    return &attributes_[id];
  }
  const std::vector<AttributeHistory>& attributes() const {
    return attributes_;
  }

  /// Reserves room for `n` histories, so that many Add calls do not
  /// reallocate.
  void Reserve(size_t n) { attributes_.reserve(n); }

  /// Appends a history; its id must equal its position.
  void Add(AttributeHistory history) {
    attributes_.push_back(std::move(history));
  }

  /// Computes the Section-5.1-style summary statistics.
  DatasetStats ComputeStats() const;

 private:
  TimeDomain domain_;
  std::shared_ptr<ValueDictionary> dictionary_ =
      std::make_shared<ValueDictionary>();
  std::vector<AttributeHistory> attributes_;
};

}  // namespace tind

#endif  // TIND_TEMPORAL_DATASET_H_
