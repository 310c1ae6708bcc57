// Minimal command-line argument parser for the tools/ binaries.
//
// Supports `--flag value`, `--flag=value`, and boolean `--flag` forms,
// plus positional arguments.  Unknown flags are an error (typos should
// not be silently ignored on a measurement tool).  Every command-line
// mistake throws UsageError, which the tools report as a one-line usage
// message rather than an internal failure.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/error.h"

namespace soc {

class ArgParser {
 public:
  /// Declares a value flag (e.g. "--nodes").  `help` appears in usage().
  void add_flag(const std::string& name, const std::string& help,
                const std::string& default_value = "");
  /// Declares a boolean flag (present/absent).
  void add_bool(const std::string& name, const std::string& help);

  /// Parses argv[start..); throws UsageError on unknown or malformed
  /// flags.
  void parse(int argc, const char* const* argv, int start = 1);

  /// Value of a declared flag (default if not given on the command line).
  const std::string& get(const std::string& name) const;
  /// Numeric value; throws UsageError unless the whole value parses.
  int get_int(const std::string& name) const;
  double get_double(const std::string& name) const;
  bool get_bool(const std::string& name) const;
  /// True when the user explicitly supplied the flag.
  bool given(const std::string& name) const;

  const std::vector<std::string>& positional() const { return positional_; }

  /// Formatted flag documentation.
  std::string usage() const;

 private:
  struct Flag {
    std::string help;
    std::string value;
    bool is_bool = false;
    bool given = false;
  };
  std::map<std::string, Flag> flags_;
  std::vector<std::string> order_;
  std::vector<std::string> positional_;
};

/// Splits "2,4,8,16" into integers; throws UsageError on malformed
/// entries.
std::vector<int> parse_int_list(const std::string& csv);

/// Splits "0.6,0.8,1.0" into doubles; throws UsageError on malformed
/// entries.
std::vector<double> parse_double_list(const std::string& csv);

/// Splits "hpl,jacobi" into strings; throws UsageError on empty entries.
std::vector<std::string> parse_string_list(const std::string& csv);

/// Parses a host thread count (0 = every core) given as `what` (a flag or
/// an environment variable such as SOC_SWEEP_THREADS); throws UsageError
/// naming `what` unless the whole text is an integer >= 0.
unsigned parse_thread_count(const std::string& text, const std::string& what);

}  // namespace soc
