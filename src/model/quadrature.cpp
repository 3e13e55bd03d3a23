#include "model/quadrature.hpp"

#include <cmath>
#include <stdexcept>

namespace ebrc::model {
namespace {

/// Simpson's rule on [a, b] from the values at a, the midpoint and b.
double simpson(double a, double fa, double fm, double b, double fb) {
  return (b - a) / 6.0 * (fa + 4.0 * fm + fb);
}

double adaptive(const std::function<double(double)>& fn, double a, double fa, double m, double fm,
                double b, double fb, double whole, double tol, int depth) {
  const double lm = 0.5 * (a + m);
  const double rm = 0.5 * (m + b);
  const double flm = fn(lm);
  const double frm = fn(rm);
  const double left = simpson(a, fa, flm, m, fm);
  const double right = simpson(m, fm, frm, b, fb);
  const double delta = left + right - whole;
  if (depth <= 0 || std::abs(delta) <= 15.0 * tol) {
    return left + right + delta / 15.0;
  }
  return adaptive(fn, a, fa, lm, flm, m, fm, left, 0.5 * tol, depth - 1) +
         adaptive(fn, m, fm, rm, frm, b, fb, right, 0.5 * tol, depth - 1);
}

}  // namespace

double integrate(const std::function<double(double)>& fn, double a, double b, double tol,
                 int max_depth) {
  if (a == b) return 0.0;
  if (a > b) return -integrate(fn, b, a, tol, max_depth);
  const double m = 0.5 * (a + b);
  const double fa = fn(a);
  const double fm = fn(m);
  const double fb = fn(b);
  const double whole = simpson(a, fa, fm, b, fb);
  return adaptive(fn, a, fa, m, fm, b, fb, whole, tol, max_depth);
}

double expect_shifted_exp(const std::function<double(double)>& h, double x0, double a,
                          double tol) {
  if (x0 < 0 || a <= 0) throw std::invalid_argument("expect_shifted_exp: need x0 >= 0, a > 0");
  // u ~ U(0,1); theta = x0 - ln(1-u)/a. Avoid the logarithmic endpoint at
  // u = 1 by stopping at 1 - eps; the truncated tail mass eps carries value
  // h(x0 - ln(eps)/a) ~ eps * h(large), negligible for our integrands which
  // grow at most polynomially.
  constexpr double kEps = 1e-12;
  const auto fn = [&](double u) { return h(x0 - std::log1p(-u) / a); };
  return integrate(fn, 0.0, 1.0 - kEps, tol);
}

}  // namespace ebrc::model
