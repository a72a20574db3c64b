#include "snapshot/snapshot.h"
#include "snapshot/snapshot_format.h"

namespace tind::snapshot {

uint64_t ComputeCorpusDigest(const Dataset& dataset) {
  uint64_t h = HashUint64(0x74494E44ULL);  // "tIND" seed.
  h = HashCombine(h, static_cast<uint64_t>(dataset.domain().num_timestamps()));
  h = HashCombine(h, static_cast<uint64_t>(dataset.domain().epoch_day()));
  h = HashCombine(h, dataset.dictionary().ContentDigest());
  h = HashCombine(h, dataset.size());
  for (const AttributeHistory& attr : dataset.attributes()) {
    h = HashCombine(h, HashString(attr.meta().page));
    h = HashCombine(h, HashString(attr.meta().table));
    h = HashCombine(h, HashString(attr.meta().column));
    h = HashCombine(h, attr.num_versions());
    // Bulk span hashes: this digest runs on every snapshot load, over every
    // value of every version, so per-element HashCombine chains would make
    // the identity check cost a visible fraction of the rebuild it avoids.
    const std::vector<Timestamp>& stamps = attr.change_timestamps();
    static_assert(sizeof(Timestamp) == sizeof(uint64_t));
    h = HashCombine(
        h, HashU64Span(reinterpret_cast<const uint64_t*>(stamps.data()),
                       stamps.size()));
    for (size_t v = 0; v < attr.num_versions(); ++v) {
      const ValueSet& values = attr.versions()[v];
      h = HashCombine(h, values.size());
      h = HashCombine(h,
                      HashU32Span(values.values().data(), values.size()));
    }
  }
  return h;
}

uint64_t ComputeOptionsHash(const TindIndexOptions& options,
                            std::string_view weight_description) {
  uint64_t epsilon_bits = 0;
  static_assert(sizeof(epsilon_bits) == sizeof(options.epsilon));
  std::memcpy(&epsilon_bits, &options.epsilon, sizeof(epsilon_bits));
  uint64_t h = HashUint64(options.bloom_bits);
  h = HashCombine(h, options.num_hashes);
  h = HashCombine(h, options.num_slices);
  h = HashCombine(h, static_cast<uint64_t>(options.delta));
  h = HashCombine(h, epsilon_bits);
  h = HashCombine(h, static_cast<uint64_t>(options.strategy));
  h = HashCombine(h, options.seed);
  h = HashCombine(h, options.build_reverse_index ? 1 : 0);
  h = HashCombine(h, options.reverse_slices);
  h = HashCombine(h, HashString(weight_description));
  return h;
}

}  // namespace tind::snapshot
