#include "model/solvers.hpp"

#include <stdexcept>

namespace ebrc::model {

double bisect(const std::function<double(double)>& fn, double lo, double hi, double xtol,
              int max_iter) {
  double flo = fn(lo);
  double fhi = fn(hi);
  if (flo == 0.0) return lo;
  if (fhi == 0.0) return hi;
  if ((flo > 0) == (fhi > 0)) {
    throw std::invalid_argument("bisect: no sign change over the bracket");
  }
  for (int i = 0; i < max_iter && hi - lo > xtol; ++i) {
    const double mid = 0.5 * (lo + hi);
    const double fmid = fn(mid);
    if (fmid == 0.0) return mid;
    if ((fmid > 0) == (flo > 0)) {
      lo = mid;
      flo = fmid;
    } else {
      hi = mid;
    }
  }
  return 0.5 * (lo + hi);
}

}  // namespace ebrc::model
