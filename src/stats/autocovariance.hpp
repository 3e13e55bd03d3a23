// Lagged autocovariance of a scalar series.
//
// Used to evaluate Eq. (11) of the paper: cov[theta_0, hat-theta_0] equals a
// weighted sum of the autocovariances of the loss-event intervals at lags
// 1..L.
#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "stats/online.hpp"

namespace ebrc::stats {

class LaggedAutocovariance {
 public:
  /// Tracks lags 1..max_lag (max_lag >= 1).
  explicit LaggedAutocovariance(std::size_t max_lag);

  /// Feeds the next sample of the series.
  void add(double x);

  /// Unbiased sample autocovariance at `lag` (1-based). 0 with < 2 pairs.
  [[nodiscard]] double at(std::size_t lag) const;

  /// Autocorrelation at `lag`.
  [[nodiscard]] double correlation_at(std::size_t lag) const;

  [[nodiscard]] std::size_t max_lag() const noexcept { return lag_accum_.size(); }
  [[nodiscard]] std::uint64_t count() const noexcept { return n_; }
  [[nodiscard]] const OnlineMoments& marginal() const noexcept { return marginal_; }

 private:
  std::deque<double> window_;  // most recent sample at back
  std::vector<OnlineCovariance> lag_accum_;
  OnlineMoments marginal_;
  std::uint64_t n_ = 0;
};

}  // namespace ebrc::stats
