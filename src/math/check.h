// Precondition / invariant checking helpers for crnkit.
//
// Following the C++ Core Guidelines (I.6, E.12-ish policy): violated
// preconditions on *library API boundaries* throw std::invalid_argument with
// a descriptive message; violated internal invariants throw std::logic_error.
// We deliberately avoid assert() so that release builds keep full checking —
// this library's value is exactness, not raw speed on malformed inputs.
#ifndef CRNKIT_MATH_CHECK_H_
#define CRNKIT_MATH_CHECK_H_

#include <stdexcept>
#include <string>
#include <string_view>

namespace crnkit {

// Both take the message as a view and build the std::string only on the
// throw path, so a passing check with a literal message never allocates.

/// Throws std::invalid_argument if `cond` is false. Use for caller errors.
inline void require(bool cond, std::string_view what) {
  if (!cond) throw std::invalid_argument(std::string(what));
}

/// Throws std::logic_error if `cond` is false. Use for internal invariants.
inline void ensure(bool cond, std::string_view what) {
  if (!cond) throw std::logic_error(std::string(what));
}

/// Thrown when an exact integer computation would overflow 64 bits.
class OverflowError : public std::overflow_error {
 public:
  using std::overflow_error::overflow_error;
};

}  // namespace crnkit

#endif  // CRNKIT_MATH_CHECK_H_
