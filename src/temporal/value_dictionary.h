#ifndef TIND_TEMPORAL_VALUE_DICTIONARY_H_
#define TIND_TEMPORAL_VALUE_DICTIONARY_H_

/// \file value_dictionary.h
/// Global string interning. Cell values from all table histories are mapped
/// to dense 32-bit ValueIds once, so that value-set versions are small
/// integer vectors, subset tests are merges, and Bloom hashing is a single
/// 64-bit mix of the id.

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/status.h"

namespace tind {

/// Dense identifier of an interned string value.
using ValueId = uint32_t;

inline constexpr ValueId kInvalidValueId = static_cast<ValueId>(-1);

/// \brief Append-only string → ValueId interning table.
///
/// Epochs share their strings. A dictionary is a shared flat base (ids
/// below base size) plus a private overlay (the ids above it). Copying a
/// dictionary shares the base and copies only the overlay, so the live-ingest
/// path (tind/update.h) derives each epoch's dictionary in O(overlay), not
/// O(corpus). Once any copy shares a base, nobody appends to it again; a
/// dictionary whose base is its own (a fresh, loaded or folded one) interns
/// straight into it. A copy whose source overlay has outgrown the base folds
/// both into a new flat base instead. Ids, bytes and digest are the same as
/// those of one flat table that interned the same sequence.
///
/// Not thread-safe for concurrent interning. Const methods, copies included,
/// may run concurrently: a published epoch's dictionary is never mutated.
class ValueDictionary {
 public:
  ValueDictionary() = default;
  /// Shares `other`'s base (which freezes it) and copies its overlay; folds
  /// both into a new base of its own when the overlay outgrew the base.
  ValueDictionary(const ValueDictionary& other);
  ValueDictionary(ValueDictionary&&) = default;
  ValueDictionary& operator=(ValueDictionary&&) = default;

  /// Returns the id for `value`, interning it if unseen.
  ValueId Intern(std::string_view value);

  /// Returns the id for `value` or kInvalidValueId if never interned.
  ValueId Lookup(std::string_view value) const;

  /// The string for an interned id.
  const std::string& GetString(ValueId id) const {
    const size_t base = base_->strings.size();
    return id < base ? base_->strings[id] : overlay_.strings[id - base];
  }

  size_t size() const {
    return base_->strings.size() + overlay_.strings.size();
  }

  /// Approximate heap usage (strings + map overhead), the shared base
  /// included.
  size_t MemoryUsageBytes() const;

  /// Appends a binary rendering of the dictionary to `out`: u64 entry count
  /// followed by (u32 length, bytes) per string in id order. Ids are
  /// positional, so round-tripping preserves every ValueId.
  void SerializeTo(std::string* out) const;

  /// Parses a SerializeTo() blob. Returns InvalidArgument on truncated or
  /// malformed input (all reads are bounds-checked).
  static Result<ValueDictionary> Deserialize(std::string_view bytes);

  /// Order-sensitive 64-bit digest of the interned strings; equal iff two
  /// dictionaries intern the same strings with the same ids. Snapshot
  /// manifests fold this into the corpus digest.
  uint64_t ContentDigest() const;

 private:
  struct TransparentHash {
    using is_transparent = void;
    size_t operator()(std::string_view s) const {
      return std::hash<std::string_view>{}(s);
    }
  };
  struct TransparentEq {
    using is_transparent = void;
    bool operator()(std::string_view a, std::string_view b) const {
      return a == b;
    }
  };

  /// A run of strings with consecutive ids, and the index from each string
  /// to its id.
  struct Strings {
    std::vector<std::string> strings;
    std::unordered_map<std::string, ValueId, TransparentHash, TransparentEq>
        index;

    ValueId Find(std::string_view value) const;
    void Append(std::string_view value, ValueId id);
    size_t MemoryUsageBytes() const;
  };
  struct Base : Strings {
    /// Set once a second dictionary shares this base; from then on nobody
    /// appends to it. Atomic because copies of one published dictionary
    /// may run on several threads at once.
    mutable std::atomic<bool> shared{false};
  };

  /// Calls fn(string) for every string in id order.
  template <typename Fn>
  void ForEachString(Fn&& fn) const {
    for (const std::string& s : base_->strings) fn(s);
    for (const std::string& s : overlay_.strings) fn(s);
  }

  std::shared_ptr<Base> base_ = std::make_shared<Base>();
  Strings overlay_;
};

}  // namespace tind

#endif  // TIND_TEMPORAL_VALUE_DICTIONARY_H_
