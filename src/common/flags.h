#ifndef TIND_COMMON_FLAGS_H_
#define TIND_COMMON_FLAGS_H_

/// \file flags.h
/// Minimal `--key=value` command-line flag parsing for the benchmark and
/// example binaries. Every experiment driver exposes its workload scale and
/// parameters through this so paper-scale runs are one flag away.

#include <cstdint>
#include <initializer_list>
#include <map>
#include <set>
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
///
/// Every getter (Has included) records the key it read. A binary that has
/// read its flags calls RejectUnread(), which exits the same way when a
/// given flag was never read: a misspelt or removed flag fails loudly
/// instead of running with the default.
class Flags {
 public:
  /// Parses argv; never fails (malformed tokens become positionals).
  static Flags Parse(int argc, char** argv);

  bool Has(const std::string& key) const;

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

  /// Marks `keys` as known without reading them: flags that a binary reads
  /// only on some code paths, or only after RejectUnread().
  void Declare(std::initializer_list<const char*> keys) const;

  /// Prints every given flag that no getter read and Declare() did not name,
  /// then exits with StatusExitCode(InvalidArgument); returns when there is
  /// none.
  void RejectUnread() const;

 private:
  /// Looks `key` up and records it as read.
  const std::string* Find(const std::string& key) const;

  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
  mutable std::set<std::string> read_;
};

}  // namespace tind

#endif  // TIND_COMMON_FLAGS_H_
