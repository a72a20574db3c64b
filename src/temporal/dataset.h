#ifndef TIND_TEMPORAL_DATASET_H_
#define TIND_TEMPORAL_DATASET_H_

/// \file dataset.h
/// The input of tIND discovery: the set of attributes D (Section 3.1),
/// i.e. a time domain, a shared value dictionary, and one AttributeHistory
/// per attribute. Datasets are built once and then shared read-only across
/// query threads; a live-ingest epoch is a new dataset that shares the
/// untouched histories and the dictionary's base with the one before it.

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
///
/// Histories are held by shared pointers to immutable objects, so epochs
/// share them: the live-ingest path (tind/update.h) builds the next epoch by
/// copying the pointers and replacing only the histories a delta touches.
class Dataset {
  using HistoryPtrs = std::vector<std::shared_ptr<const AttributeHistory>>;

 public:
  /// The histories in id order, each element a `const AttributeHistory&`.
  class Histories {
   public:
    class Iterator {
     public:
      explicit Iterator(HistoryPtrs::const_iterator it) : it_(it) {}
      const AttributeHistory& operator*() const { return **it_; }
      Iterator& operator++() {
        ++it_;
        return *this;
      }
      bool operator!=(const Iterator& other) const { return it_ != other.it_; }

     private:
      HistoryPtrs::const_iterator it_;
    };

    explicit Histories(const HistoryPtrs& ptrs) : ptrs_(&ptrs) {}
    Iterator begin() const { return Iterator(ptrs_->begin()); }
    Iterator end() const { return Iterator(ptrs_->end()); }

   private:
    const HistoryPtrs* ptrs_;
  };

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
    return *attributes_[id];
  }
  std::shared_ptr<const AttributeHistory> shared_attribute(
      AttributeId id) const {
    return attributes_[id];
  }
  Histories attributes() const { return Histories(attributes_); }

  /// Reserves room for `n` histories, so that many Add calls do not
  /// reallocate.
  void Reserve(size_t n) { attributes_.reserve(n); }

  /// Appends a history; its id must equal its position.
  void Add(AttributeHistory history) {
    Add(std::make_shared<const AttributeHistory>(std::move(history)));
  }
  void Add(std::shared_ptr<const AttributeHistory> history) {
    attributes_.push_back(std::move(history));
  }

  /// Points slot `id` at `history` (same id). Other datasets sharing the
  /// old history keep it: this is how an epoch replaces what a delta
  /// touched without copying the rest.
  void Replace(AttributeId id,
               std::shared_ptr<const AttributeHistory> history) {
    attributes_[id] = std::move(history);
  }

  /// Computes the Section-5.1-style summary statistics.
  DatasetStats ComputeStats() const;

 private:
  TimeDomain domain_;
  std::shared_ptr<ValueDictionary> dictionary_ =
      std::make_shared<ValueDictionary>();
  HistoryPtrs attributes_;
};

}  // namespace tind

#endif  // TIND_TEMPORAL_DATASET_H_
