// Root finding.
#pragma once

#include <functional>

namespace ebrc::model {

/// Bisection root of fn on [lo, hi]; requires a sign change. Returns the
/// midpoint once the bracket is below xtol.
[[nodiscard]] double bisect(const std::function<double(double)>& fn, double lo, double hi,
                            double xtol = 1e-12, int max_iter = 200);

}  // namespace ebrc::model
