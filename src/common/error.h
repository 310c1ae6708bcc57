// Error handling for soccluster.
//
// The library throws soc::Error for precondition violations and
// unrecoverable simulation faults.  SOC_CHECK is used at public API
// boundaries and for internal invariants that depend on caller input;
// assert() remains for pure internal logic errors.  A configuration the
// user asked for that cannot be modelled (a bad flag value, a cluster
// shape a workload does not support) throws soc::UsageError instead,
// whose message names the problem with no source location.
#pragma once

#include <stdexcept>
#include <string>

namespace soc {

/// Exception type thrown by all soccluster components.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

/// A user mistake: the message is meant for the user as is (the tools
/// print it as one `<tool>: <reason>` line and exit 2).
class UsageError : public Error {
 public:
  using Error::Error;
};

namespace detail {
[[noreturn]] void throw_check_failure(const char* expr, const char* file,
                                      int line, const std::string& msg);
}  // namespace detail

}  // namespace soc

/// Validate a condition; throws soc::Error with source location on failure.
#define SOC_CHECK(cond, msg)                                             \
  do {                                                                   \
    if (!(cond)) {                                                       \
      ::soc::detail::throw_check_failure(#cond, __FILE__, __LINE__, msg); \
    }                                                                    \
  } while (0)

/// Validate user-supplied configuration; throws soc::UsageError carrying
/// just `msg` (no source location) on failure.
#define SOC_REQUIRE(cond, msg)                 \
  do {                                         \
    if (!(cond)) throw ::soc::UsageError(msg); \
  } while (0)
