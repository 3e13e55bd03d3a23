#include "stats/autocovariance.hpp"

#include <stdexcept>

namespace ebrc::stats {

LaggedAutocovariance::LaggedAutocovariance(std::size_t max_lag) : lag_accum_(max_lag) {
  if (max_lag == 0) throw std::invalid_argument("LaggedAutocovariance: max_lag must be >= 1");
}

void LaggedAutocovariance::add(double x) {
  ++n_;
  marginal_.add(x);
  // Pair the new sample with each lagged predecessor currently in the window.
  for (std::size_t lag = 1; lag <= window_.size() && lag <= lag_accum_.size(); ++lag) {
    lag_accum_[lag - 1].add(window_[window_.size() - lag], x);
  }
  window_.push_back(x);
  if (window_.size() > lag_accum_.size()) window_.pop_front();
}

double LaggedAutocovariance::at(std::size_t lag) const {
  if (lag == 0 || lag > lag_accum_.size()) {
    throw std::out_of_range("LaggedAutocovariance::at: lag out of range");
  }
  return lag_accum_[lag - 1].covariance();
}

double LaggedAutocovariance::correlation_at(std::size_t lag) const {
  if (lag == 0 || lag > lag_accum_.size()) {
    throw std::out_of_range("LaggedAutocovariance::correlation_at: lag out of range");
  }
  return lag_accum_[lag - 1].correlation();
}

}  // namespace ebrc::stats
