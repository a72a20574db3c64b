#include "temporal/dataset.h"

namespace tind {

DatasetStats Dataset::ComputeStats() const {
  DatasetStats stats;
  stats.num_attributes = attributes_.size();
  stats.num_distinct_values = dictionary_->size();
  size_t total_changes = 0;
  int64_t total_lifetime = 0;
  size_t total_cardinality = 0;
  size_t total_versions = 0;
  size_t memory = dictionary_->MemoryUsageBytes();
  for (const AttributeHistory& attr : attributes()) {
    total_changes += attr.num_changes();
    total_lifetime += attr.LifetimeTimestamps();
    total_versions += attr.num_versions();
    for (const auto& v : attr.versions()) total_cardinality += v.size();
    memory += attr.MemoryUsageBytes();
  }
  if (!attributes_.empty()) {
    stats.avg_changes =
        static_cast<double>(total_changes) / attributes_.size();
    stats.avg_lifetime_years =
        static_cast<double>(total_lifetime) / attributes_.size() / 365.25;
  }
  if (total_versions > 0) {
    stats.avg_version_cardinality =
        static_cast<double>(total_cardinality) / total_versions;
  }
  stats.total_versions = total_versions;
  stats.memory_bytes = memory;
  return stats;
}

}  // namespace tind
