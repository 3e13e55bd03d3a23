// Small math helpers shared across the library.
#pragma once

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

namespace ebrc::util {

/// Square of a value; clearer than std::pow(x, 2) and avoids libm.
template <typename T>
constexpr T sq(T x) noexcept {
  return x * x;
}

/// True when |a - b| <= tol * max(1, |a|, |b|) (mixed absolute/relative).
inline bool close(double a, double b, double tol = 1e-9) noexcept {
  const double scale = std::max({1.0, std::abs(a), std::abs(b)});
  return std::abs(a - b) <= tol * scale;
}

/// Clamp helper that tolerates an inverted range in debug builds.
inline double clamp(double x, double lo, double hi) noexcept {
  assert(lo <= hi);
  return x < lo ? lo : (x > hi ? hi : x);
}

/// Positive infinity shorthand.
inline constexpr double kInf = std::numeric_limits<double>::infinity();

/// Quiet NaN shorthand.
inline constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

}  // namespace ebrc::util
