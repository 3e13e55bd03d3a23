// Online (single-pass, numerically stable) moment estimators.
#pragma once

#include <cstddef>
#include <cstdint>

namespace ebrc::stats {

/// Welford mean/variance accumulator.
class OnlineMoments {
 public:
  void add(double x) noexcept;

  [[nodiscard]] std::uint64_t count() const noexcept { return n_; }
  [[nodiscard]] double mean() const noexcept { return mean_; }
  /// Unbiased sample variance; 0 when fewer than two samples.
  [[nodiscard]] double variance() const noexcept;
  [[nodiscard]] double stddev() const noexcept;
  /// Coefficient of variation stddev/mean; 0 when mean is 0.
  [[nodiscard]] double cv() const noexcept;
  /// Standard error of the mean stddev/sqrt(n); 0 when fewer than two samples.
  [[nodiscard]] double stderr_mean() const noexcept;
  /// Half-width of the normal-approximation confidence interval on the mean;
  /// z = 1.96 gives the usual 95% interval. 0 when fewer than two samples.
  [[nodiscard]] double ci_halfwidth(double z = 1.96) const noexcept;
  [[nodiscard]] double min() const noexcept { return min_; }
  [[nodiscard]] double max() const noexcept { return max_; }
  [[nodiscard]] double sum() const noexcept { return mean_ * static_cast<double>(n_); }

  /// Merges another accumulator (parallel Welford combine). Exact on count,
  /// min, and max; mean and M2 are mathematically order-independent but may
  /// differ from sequential add() by floating-point rounding — tools that
  /// need bit-identical sweep summaries re-aggregate from per-run results
  /// (see testbed::merge_batch_results' doc comment).
  void merge(const OnlineMoments& other) noexcept;

  /// Sum of squared deviations (the raw Welford M2 state).
  [[nodiscard]] double m2() const noexcept { return m2_; }

  /// Rehydrates an accumulator from persisted state (testbed batch-summary
  /// files). Inverse of reading {count, mean, m2, min, max}.
  [[nodiscard]] static OnlineMoments from_state(std::uint64_t n, double mean, double m2,
                                                double min, double max) noexcept {
    OnlineMoments m;
    m.n_ = n;
    m.mean_ = mean;
    m.m2_ = m2;
    m.min_ = min;
    m.max_ = max;
    return m;
  }

 private:
  std::uint64_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Online covariance of paired samples (x, y).
class OnlineCovariance {
 public:
  void add(double x, double y) noexcept;

  [[nodiscard]] std::uint64_t count() const noexcept { return n_; }
  /// Unbiased sample covariance; 0 when fewer than two samples.
  [[nodiscard]] double covariance() const noexcept;
  /// Pearson correlation; 0 when either variance vanishes.
  [[nodiscard]] double correlation() const noexcept;
  [[nodiscard]] double variance_x() const noexcept;
  [[nodiscard]] double variance_y() const noexcept;

 private:
  std::uint64_t n_ = 0;
  double mx_ = 0.0, my_ = 0.0;
  double cxy_ = 0.0, mx2_ = 0.0, my2_ = 0.0;
};

}  // namespace ebrc::stats
