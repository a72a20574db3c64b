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

std::string Flags::GetString(const std::string& key,
                             const std::string& default_value) const {
  const auto it = values_.find(key);
  return it == values_.end() ? default_value : it->second;
}

int64_t Flags::GetInt(const std::string& key, int64_t default_value) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return default_value;
  return ParseInt(key, it->second);
}

double Flags::GetDouble(const std::string& key, double default_value) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return default_value;
  return ParseDouble(key, it->second);
}

bool Flags::GetBool(const std::string& key, bool default_value) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return default_value;
  return it->second == "true" || it->second == "1" || it->second == "yes";
}

std::vector<int64_t> Flags::GetIntList(
    const std::string& key, const std::vector<int64_t>& default_value) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return default_value;
  std::vector<int64_t> out;
  for (const auto& part : SplitCommas(it->second)) {
    if (!part.empty()) out.push_back(ParseInt(key, part));
  }
  return out;
}

std::vector<double> Flags::GetDoubleList(
    const std::string& key, const std::vector<double>& default_value) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return default_value;
  std::vector<double> out;
  for (const auto& part : SplitCommas(it->second)) {
    if (!part.empty()) out.push_back(ParseDouble(key, part));
  }
  return out;
}

}  // namespace tind
