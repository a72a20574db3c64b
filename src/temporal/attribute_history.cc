#include "temporal/attribute_history.h"

#include <algorithm>
#include <cassert>

namespace tind {

int64_t AttributeHistory::VersionIndexAt(Timestamp t) const {
  // Find the last change point <= t.
  const auto it = std::upper_bound(change_timestamps_.begin(),
                                   change_timestamps_.end(), t);
  if (it == change_timestamps_.begin()) return -1;
  return static_cast<int64_t>(it - change_timestamps_.begin()) - 1;
}

const ValueSet& AttributeHistory::VersionAt(Timestamp t) const {
  const int64_t idx = VersionIndexAt(t);
  if (idx < 0) return ValueSet::Empty();
  return versions_[static_cast<size_t>(idx)];
}

std::pair<int64_t, int64_t> AttributeHistory::VersionRangeInInterval(
    const Interval& i) const {
  if (versions_.empty()) return {0, -1};
  // Clamp to the domain; an interval fully before birth yields no versions.
  const Timestamp begin = std::max<Timestamp>(i.begin, 0);
  const Timestamp end = std::min<Timestamp>(i.end, domain_size_ - 1);
  if (begin > end) return {0, -1};
  const int64_t last = VersionIndexAt(end);
  if (last < 0) return {0, -1};
  const int64_t first = std::max<int64_t>(VersionIndexAt(begin), 0);
  return {first, last};
}

Interval AttributeHistory::ValidityInterval(int64_t idx) const {
  assert(idx >= 0 && static_cast<size_t>(idx) < versions_.size());
  const Timestamp begin = change_timestamps_[static_cast<size_t>(idx)];
  const Timestamp end = (static_cast<size_t>(idx) + 1 < versions_.size())
                            ? change_timestamps_[static_cast<size_t>(idx) + 1] - 1
                            : domain_size_ - 1;
  return Interval{begin, end};
}

ValueSet AttributeHistory::UnionInInterval(const Interval& i) const {
  const auto [first, last] = VersionRangeInInterval(i);
  if (last < first) return ValueSet();
  if (first == last) return versions_[static_cast<size_t>(first)];
  std::vector<const ValueSet*> sets;
  sets.reserve(static_cast<size_t>(last - first + 1));
  for (int64_t v = first; v <= last; ++v) {
    sets.push_back(&versions_[static_cast<size_t>(v)]);
  }
  return ValueSet::UnionOf(sets);
}

size_t AttributeHistory::MedianCardinality() const {
  if (versions_.empty()) return 0;
  std::vector<size_t> sizes;
  sizes.reserve(versions_.size());
  for (const auto& v : versions_) sizes.push_back(v.size());
  const size_t mid = sizes.size() / 2;
  std::nth_element(sizes.begin(), sizes.begin() + mid, sizes.end());
  return sizes[mid];
}

size_t AttributeHistory::MemoryUsageBytes() const {
  size_t bytes = change_timestamps_.capacity() * sizeof(Timestamp);
  for (const auto& v : versions_) bytes += v.MemoryUsageBytes();
  bytes += all_values_.MemoryUsageBytes();
  bytes += all_values_bits_.capacity() * sizeof(uint64_t);
  return bytes;
}

bool AttributeHistory::HoldsAll(const ValueSet& values) const {
  if (all_values_bits_.empty()) return values.IsSubsetOf(all_values_);
  const size_t words = all_values_bits_.size();
  for (const ValueId v : values.values()) {
    const size_t w = v >> 6;
    if (w >= words || ((all_values_bits_[w] >> (v & 63)) & 1) == 0) {
      return false;
    }
  }
  return true;
}

void AttributeHistory::ComputeAllValues() {
  std::vector<const ValueSet*> sets;
  sets.reserve(versions_.size());
  for (const auto& v : versions_) sets.push_back(&v);
  all_values_ = ValueSet::UnionOf(sets);
  const std::vector<ValueId>& ids = all_values_.values();
  const size_t words = ids.empty() ? 0 : ids.back() / 64 + 1;
  if (words == 0 || words * sizeof(uint64_t) >
                        kDenseMembershipRatio * ids.size() * sizeof(ValueId)) {
    all_values_bits_ = std::vector<uint64_t>();
    return;
  }
  all_values_bits_.assign(words, 0);
  for (const ValueId v : ids) {
    all_values_bits_[v >> 6] |= uint64_t{1} << (v & 63);
  }
}

Status AttributeHistory::AppendVersion(Timestamp t, ValueSet values) {
  if (t < 0 || t >= domain_size_) {
    return Status::InvalidArgument("timestamp " + std::to_string(t) +
                                   " outside domain of size " +
                                   std::to_string(domain_size_));
  }
  if (change_timestamps_.empty()) {
    // A finished history always has at least one version; an empty one can
    // only come from default construction, which is not appendable.
    return Status::FailedPrecondition("cannot append to an empty history");
  }
  const Timestamp prev = change_timestamps_.back();
  if (t < prev) {
    return Status::InvalidArgument(
        "versions must be appended in increasing timestamp order");
  }
  if (t == prev) {
    // Same day: later observation wins, exactly like the builder.
    versions_.back() = std::move(values);
    if (versions_.size() >= 2 &&
        versions_[versions_.size() - 2] == versions_.back()) {
      versions_.pop_back();
      change_timestamps_.pop_back();
    }
  } else if (versions_.back() == values) {
    return Status::OK();  // No actual change; coalesce (AllValues unchanged).
  } else {
    change_timestamps_.push_back(t);
    versions_.push_back(std::move(values));
  }
  ComputeAllValues();
  return Status::OK();
}

AttributeHistoryBuilder::AttributeHistoryBuilder(AttributeId id,
                                                 AttributeMeta meta,
                                                 const TimeDomain& domain)
    : id_(id), meta_(std::move(meta)), domain_size_(domain.num_timestamps()) {}

Status AttributeHistoryBuilder::AddVersion(Timestamp t, ValueSet values) {
  if (finished_) {
    return Status::FailedPrecondition("builder already finished");
  }
  if (t < 0 || t >= domain_size_) {
    return Status::InvalidArgument("timestamp " + std::to_string(t) +
                                   " outside domain of size " +
                                   std::to_string(domain_size_));
  }
  if (!change_timestamps_.empty()) {
    const Timestamp prev = change_timestamps_.back();
    if (t < prev) {
      return Status::InvalidArgument(
          "versions must be added in increasing timestamp order");
    }
    if (t == prev) {
      // Same day: later observation wins (daily aggregation semantics).
      versions_.back() = std::move(values);
      // Coalesce if the overwrite made it equal to its predecessor.
      if (versions_.size() >= 2 &&
          versions_[versions_.size() - 2] == versions_.back()) {
        versions_.pop_back();
        change_timestamps_.pop_back();
      }
      return Status::OK();
    }
    if (versions_.back() == values) {
      return Status::OK();  // No actual change; coalesce.
    }
  } else if (values.empty()) {
    // A leading deletion/empty observation is indistinguishable from the
    // attribute not existing yet; skip it.
    return Status::OK();
  }
  change_timestamps_.push_back(t);
  versions_.push_back(std::move(values));
  return Status::OK();
}

Result<AttributeHistory> AttributeHistoryBuilder::Finish() {
  if (finished_) {
    return Status::FailedPrecondition("builder already finished");
  }
  if (versions_.empty()) {
    return Status::InvalidArgument("attribute history has no versions");
  }
  finished_ = true;
  AttributeHistory h;
  h.id_ = id_;
  h.meta_ = std::move(meta_);
  h.domain_size_ = domain_size_;
  h.change_timestamps_ = std::move(change_timestamps_);
  h.versions_ = std::move(versions_);
  h.ComputeAllValues();
  return h;
}

}  // namespace tind
