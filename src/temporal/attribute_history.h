#ifndef TIND_TEMPORAL_ATTRIBUTE_HISTORY_H_
#define TIND_TEMPORAL_ATTRIBUTE_HISTORY_H_

/// \file attribute_history.h
/// The versioned value set of one table attribute: the A[t] of Section 3.1.
/// Histories are change-point encoded — a sorted list of (timestamp, value
/// set) pairs — because Wikipedia attributes change rarely relative to the
/// daily time granularity (the paper's corpus averages 13 changes over 5.6
/// years). A[t] resolves by binary search; timestamps before the first
/// change point (the attribute does not exist yet) resolve to the empty set,
/// which is δ-contained in everything, matching Section 3.1's treatment of
/// unobservable attributes.

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "temporal/time_domain.h"
#include "temporal/value_set.h"

namespace tind {

/// Dense identifier of an attribute within a Dataset.
using AttributeId = uint32_t;

inline constexpr AttributeId kInvalidAttributeId = static_cast<AttributeId>(-1);

/// Provenance of an attribute (page / table / column on Wikipedia).
struct AttributeMeta {
  std::string page;
  std::string table;
  std::string column;

  std::string FullName() const { return page + "/" + table + "/" + column; }
};

/// \brief Immutable change-point-encoded history of one attribute.
///
/// Version i holds in the closed interval
///   [change_timestamps()[i], change_timestamps()[i+1] - 1]
/// and the last version holds until the end of the time domain.
class AttributeHistory {
 public:
  AttributeHistory() = default;

  AttributeId id() const { return id_; }
  const AttributeMeta& meta() const { return meta_; }

  /// Number of distinct versions (the initial non-existent state does not
  /// count). "Five versions" == "four changes" in the paper's phrasing.
  size_t num_versions() const { return versions_.size(); }
  size_t num_changes() const {
    return versions_.empty() ? 0 : versions_.size() - 1;
  }

  /// Timestamp of the first observation; kInvalidTimestamp if empty history.
  Timestamp birth() const {
    return change_timestamps_.empty() ? kInvalidTimestamp
                                      : change_timestamps_.front();
  }

  /// Number of timestamps from birth to the end of the domain.
  int64_t LifetimeTimestamps() const {
    return change_timestamps_.empty() ? 0 : domain_size_ - birth();
  }

  /// Timestamps at which the attribute changed, ascending.
  const std::vector<Timestamp>& change_timestamps() const {
    return change_timestamps_;
  }
  const std::vector<ValueSet>& versions() const { return versions_; }

  /// Index of the version valid at `t`, or -1 if t precedes the birth.
  int64_t VersionIndexAt(Timestamp t) const;

  /// A[t]: the value set valid at `t` (empty before birth).
  const ValueSet& VersionAt(Timestamp t) const;

  /// Indices [first, last] of the versions whose validity intersects the
  /// (domain-clamped) interval `i`; returns {0, -1} if none (interval ends
  /// before the birth).
  std::pair<int64_t, int64_t> VersionRangeInInterval(const Interval& i) const;

  /// The validity interval of version `idx`, clamped to the domain.
  Interval ValidityInterval(int64_t idx) const;

  /// A[I]: the union of all versions valid at any timestamp of `i`
  /// (Section 3.1's interval access, used for δ-containment checks).
  ValueSet UnionInInterval(const Interval& i) const;

  /// A[T]: every value that ever appeared (cached at construction).
  const ValueSet& AllValues() const { return all_values_; }

  /// True iff every value of `values` is in A[T]: exactly
  /// `values.IsSubsetOf(AllValues())`. It tests bits when the history keeps
  /// a dense membership bitmap of A[T] and searches the sorted list
  /// otherwise. The exact recheck asks this of every candidate, and at scale
  /// its candidates are mostly the catch-alls, which all keep the bitmap.
  bool HoldsAll(const ValueSet& values) const;

  /// True iff HoldsAll tests bits: the bitmap over ids [0, max A[T]] costs
  /// at most kDenseMembershipRatio times the bytes of the sorted list.
  bool has_dense_membership() const { return !all_values_bits_.empty(); }
  static constexpr size_t kDenseMembershipRatio = 2;

  /// Median cardinality across versions (corpus filtering, Section 5.1).
  size_t MedianCardinality() const;

  /// Invokes `fn(version, validity_interval)` for every version in order.
  template <typename Fn>
  void ForEachVersion(Fn&& fn) const {
    for (size_t i = 0; i < versions_.size(); ++i) {
      fn(versions_[i], ValidityInterval(static_cast<int64_t>(i)));
    }
  }

  size_t MemoryUsageBytes() const;

  /// Live-ingest append: records that the attribute holds `values` from `t`
  /// onward, with exactly the builder's semantics (increasing order,
  /// same-timestamp overwrite wins, equal-to-previous coalesce) and
  /// recomputes the AllValues() cache. Only the ingest path mutates
  /// histories; queries never observe a history mid-append because the
  /// updater appends to a private clone that no published dataset holds
  /// yet (see tind/update.h).
  Status AppendVersion(Timestamp t, ValueSet values);

 private:
  friend class AttributeHistoryBuilder;

  /// Recomputes A[T] from the versions and, under the size rule of
  /// has_dense_membership(), its bitmap; drops the bitmap otherwise.
  void ComputeAllValues();

  AttributeId id_ = kInvalidAttributeId;
  AttributeMeta meta_;
  int64_t domain_size_ = 0;
  std::vector<Timestamp> change_timestamps_;
  std::vector<ValueSet> versions_;
  ValueSet all_values_;
  /// Bit v is set iff v is in all_values_; empty when the size rule says
  /// no. A cache derived from the versions: snapshots never store it.
  std::vector<uint64_t> all_values_bits_;
};

/// \brief Incrementally assembles an AttributeHistory from observations.
///
/// Observations must arrive in (strictly or non-strictly) increasing
/// timestamp order; consecutive identical value sets are coalesced into one
/// version, and a repeated timestamp overwrites the pending version (the
/// later observation wins, matching daily-aggregation semantics).
class AttributeHistoryBuilder {
 public:
  AttributeHistoryBuilder(AttributeId id, AttributeMeta meta,
                          const TimeDomain& domain);

  /// Records that the attribute holds `values` from timestamp `t` onward.
  Status AddVersion(Timestamp t, ValueSet values);

  /// Records the deletion of the attribute at `t` (version becomes empty).
  Status AddDeletion(Timestamp t) { return AddVersion(t, ValueSet()); }

  size_t num_versions() const { return versions_.size(); }

  /// Finalizes the history. Fails if no version was ever added.
  Result<AttributeHistory> Finish();

 private:
  AttributeId id_;
  AttributeMeta meta_;
  int64_t domain_size_;
  std::vector<Timestamp> change_timestamps_;
  std::vector<ValueSet> versions_;
  bool finished_ = false;
};

}  // namespace tind

#endif  // TIND_TEMPORAL_ATTRIBUTE_HISTORY_H_
