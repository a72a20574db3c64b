#include "temporal/value_dictionary.h"

#include <cstring>

#include "common/hash.h"

namespace tind {

namespace {

void AppendU32(std::string* out, uint32_t v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(v));
}

void AppendU64(std::string* out, uint64_t v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(v));
}

}  // namespace

ValueId ValueDictionary::Strings::Find(std::string_view value) const {
  const auto it = index.find(value);
  return it == index.end() ? kInvalidValueId : it->second;
}

void ValueDictionary::Strings::Append(std::string_view value, ValueId id) {
  strings.emplace_back(value);
  index.emplace(strings.back(), id);
}

size_t ValueDictionary::Strings::MemoryUsageBytes() const {
  size_t bytes = strings.capacity() * sizeof(std::string);
  for (const auto& s : strings) bytes += s.capacity();
  // Rough per-entry overhead of the unordered_map node + key copy.
  bytes += index.size() * (sizeof(void*) * 2 + sizeof(std::string) + 16);
  return bytes;
}

ValueDictionary::ValueDictionary(const ValueDictionary& other) {
  if (other.overlay_.strings.size() > other.base_->strings.size()) {
    base_ = std::make_shared<Base>();
    static_cast<Strings&>(*base_) = *other.base_;
    const ValueId first = static_cast<ValueId>(other.base_->strings.size());
    for (size_t i = 0; i < other.overlay_.strings.size(); ++i) {
      base_->Append(other.overlay_.strings[i],
                    first + static_cast<ValueId>(i));
    }
    return;
  }
  other.base_->shared.store(true, std::memory_order_relaxed);
  base_ = other.base_;
  overlay_ = other.overlay_;
}

ValueId ValueDictionary::Intern(std::string_view value) {
  const ValueId found = Lookup(value);
  if (found != kInvalidValueId) return found;
  const ValueId id = static_cast<ValueId>(size());
  // A base nobody else holds has no overlay yet, so appending to it keeps
  // ids consecutive.
  if (base_->shared.load(std::memory_order_relaxed)) {
    overlay_.Append(value, id);
  } else {
    base_->Append(value, id);
  }
  return id;
}

ValueId ValueDictionary::Lookup(std::string_view value) const {
  const ValueId id = base_->Find(value);
  if (id != kInvalidValueId || overlay_.strings.empty()) return id;
  return overlay_.Find(value);
}

void ValueDictionary::SerializeTo(std::string* out) const {
  AppendU64(out, size());
  ForEachString([out](const std::string& s) {
    AppendU32(out, static_cast<uint32_t>(s.size()));
    out->append(s);
  });
}

Result<ValueDictionary> ValueDictionary::Deserialize(std::string_view bytes) {
  size_t pos = 0;
  const auto remaining = [&] { return bytes.size() - pos; };
  if (remaining() < sizeof(uint64_t)) {
    return Status::InvalidArgument("dictionary blob truncated in entry count");
  }
  uint64_t count = 0;
  std::memcpy(&count, bytes.data() + pos, sizeof(count));
  pos += sizeof(count);
  ValueDictionary dict;
  dict.base_->strings.reserve(static_cast<size_t>(count));
  for (uint64_t i = 0; i < count; ++i) {
    if (remaining() < sizeof(uint32_t)) {
      return Status::InvalidArgument("dictionary blob truncated in entry " +
                                     std::to_string(i) + " length");
    }
    uint32_t len = 0;
    std::memcpy(&len, bytes.data() + pos, sizeof(len));
    pos += sizeof(len);
    if (remaining() < len) {
      return Status::InvalidArgument("dictionary blob truncated in entry " +
                                     std::to_string(i) + " payload");
    }
    const ValueId id = dict.Intern(bytes.substr(pos, len));
    if (id != static_cast<ValueId>(i)) {
      return Status::InvalidArgument(
          "dictionary blob contains duplicate string at entry " +
          std::to_string(i));
    }
    pos += len;
  }
  if (pos != bytes.size()) {
    return Status::InvalidArgument("dictionary blob has " +
                                   std::to_string(bytes.size() - pos) +
                                   " trailing bytes");
  }
  return dict;
}

uint64_t ValueDictionary::ContentDigest() const {
  uint64_t h = HashUint64(size());
  ForEachString(
      [&h](const std::string& s) { h = HashCombine(h, HashString(s)); });
  return h;
}

size_t ValueDictionary::MemoryUsageBytes() const {
  return base_->MemoryUsageBytes() + overlay_.MemoryUsageBytes();
}

}  // namespace tind
