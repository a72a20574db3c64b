#include "common/flags.h"

#include <cerrno>
#include <cstdio>
#include <cstdlib>

namespace tind {

namespace {

/// A numeric flag that does not parse must not silently run with 0: print
/// the flag and exit with the InvalidArgument exit code.
[[noreturn]] void RejectFlag(const std::string& key, const std::string& value,
                             const char* expected) {
  const Status status = Status::InvalidArgument(
      "--" + key + "=" + value + ": expected " + expected);
  std::fprintf(stderr, "%s\n", status.ToString().c_str());
  std::exit(StatusExitCode(status));
}

/// Parses all of `text` as a base-10 integer (range-checked) or exits.
int64_t ParseInt(const std::string& key, const std::string& text) {
  char* end = nullptr;
  errno = 0;
  const long long value = std::strtoll(text.c_str(), &end, 10);
  if (text.empty() || *end != '\0' || errno == ERANGE) {
    RejectFlag(key, text, "an integer");
  }
  return value;
}

/// Parses all of `text` as a finite-range double or exits.
double ParseDouble(const std::string& key, const std::string& text) {
  char* end = nullptr;
  errno = 0;
  const double value = std::strtod(text.c_str(), &end);
  if (text.empty() || *end != '\0' || errno == ERANGE) {
    RejectFlag(key, text, "a number");
  }
  return value;
}

std::vector<std::string> SplitCommas(const std::string& s) {
  std::vector<std::string> parts;
  size_t start = 0;
  while (start <= s.size()) {
    const size_t comma = s.find(',', start);
    if (comma == std::string::npos) {
      parts.push_back(s.substr(start));
      break;
    }
    parts.push_back(s.substr(start, comma - start));
    start = comma + 1;
  }
  return parts;
}

}  // namespace

Flags Flags::Parse(int argc, char** argv) {
  Flags flags;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      flags.positional_.push_back(arg);
      continue;
    }
    const size_t eq = arg.find('=');
    if (eq == std::string::npos) {
      flags.values_[arg.substr(2)] = "true";
    } else {
      flags.values_[arg.substr(2, eq - 2)] = arg.substr(eq + 1);
    }
  }
  return flags;
}

const std::string* Flags::Find(const std::string& key) const {
  read_.insert(key);
  const auto it = values_.find(key);
  return it == values_.end() ? nullptr : &it->second;
}

bool Flags::Has(const std::string& key) const { return Find(key) != nullptr; }

std::string Flags::GetString(const std::string& key,
                             const std::string& default_value) const {
  const std::string* value = Find(key);
  return value == nullptr ? default_value : *value;
}

int64_t Flags::GetInt(const std::string& key, int64_t default_value) const {
  const std::string* value = Find(key);
  return value == nullptr ? default_value : ParseInt(key, *value);
}

double Flags::GetDouble(const std::string& key, double default_value) const {
  const std::string* value = Find(key);
  return value == nullptr ? default_value : ParseDouble(key, *value);
}

bool Flags::GetBool(const std::string& key, bool default_value) const {
  const std::string* value = Find(key);
  if (value == nullptr) return default_value;
  return *value == "true" || *value == "1" || *value == "yes";
}

std::vector<int64_t> Flags::GetIntList(
    const std::string& key, const std::vector<int64_t>& default_value) const {
  const std::string* value = Find(key);
  if (value == nullptr) return default_value;
  std::vector<int64_t> out;
  for (const auto& part : SplitCommas(*value)) {
    if (!part.empty()) out.push_back(ParseInt(key, part));
  }
  return out;
}

std::vector<double> Flags::GetDoubleList(
    const std::string& key, const std::vector<double>& default_value) const {
  const std::string* value = Find(key);
  if (value == nullptr) return default_value;
  std::vector<double> out;
  for (const auto& part : SplitCommas(*value)) {
    if (!part.empty()) out.push_back(ParseDouble(key, part));
  }
  return out;
}

void Flags::Declare(std::initializer_list<const char*> keys) const {
  for (const char* key : keys) read_.insert(key);
}

void Flags::RejectUnread() const {
  std::string unread;
  for (const auto& [key, value] : values_) {
    if (read_.count(key) == 0) unread += (unread.empty() ? "--" : ", --") + key;
  }
  if (unread.empty()) return;
  const Status status = Status::InvalidArgument("unknown flag(s): " + unread);
  std::fprintf(stderr, "%s\n", status.ToString().c_str());
  std::exit(StatusExitCode(status));
}

}  // namespace tind
