#ifndef TIND_COMMON_FLAGS_H_
#define TIND_COMMON_FLAGS_H_

/// \file flags.h
/// Minimal `--key=value` command-line flag parsing for the benchmark and
/// example binaries. Every experiment driver exposes its workload scale and
/// parameters through this so paper-scale runs are one flag away.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"

namespace tind {

/// \brief Parsed command-line flags.
///
/// Accepts `--key=value` and bare `--key` (interpreted as boolean true).
/// Unrecognized positional arguments are collected separately. The numeric
/// getters (GetInt, GetDouble and the list forms) accept only a value that
/// parses in full and in range; anything else prints the flag to stderr and
/// exits with StatusExitCode(InvalidArgument).
class Flags {
 public:
  /// Parses argv; never fails (malformed tokens become positionals).
  static Flags Parse(int argc, char** argv);

  bool Has(const std::string& key) const { return values_.count(key) > 0; }

  std::string GetString(const std::string& key,
                        const std::string& default_value) const;
  int64_t GetInt(const std::string& key, int64_t default_value) const;
  double GetDouble(const std::string& key, double default_value) const;
  bool GetBool(const std::string& key, bool default_value) const;

  /// Comma-separated list of integers, e.g. `--sizes=1,2,4`.
  std::vector<int64_t> GetIntList(const std::string& key,
                                  const std::vector<int64_t>& default_value) const;
  /// Comma-separated list of doubles.
  std::vector<double> GetDoubleList(const std::string& key,
                                    const std::vector<double>& default_value) const;

  const std::vector<std::string>& positional() const { return positional_; }

 private:
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
};

}  // namespace tind

#endif  // TIND_COMMON_FLAGS_H_
