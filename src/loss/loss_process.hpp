// Loss-interval processes: stationary generators of the packet-counted
// loss-event intervals {theta_n} that drive the basic/comprehensive control
// in the paper's numerical experiments.
#pragma once

#include <memory>
#include <string>

#include "sim/random.hpp"

namespace ebrc::loss {

/// A stationary, ergodic source of loss-event intervals theta_n > 0
/// (measured in packets). Implementations own their randomness.
class LossIntervalProcess {
 public:
  virtual ~LossIntervalProcess() = default;

  /// Draws the next interval (the process may be serially dependent).
  [[nodiscard]] virtual double next() = 0;

  /// Stationary mean E[theta_0] = 1/p.
  [[nodiscard]] virtual double mean() const = 0;

  /// Stationary loss-event rate p = 1/mean().
  [[nodiscard]] double loss_event_rate() const { return 1.0 / mean(); }

  [[nodiscard]] virtual std::string name() const = 0;
};

/// theta_n == m: the degenerate case (V) of Theorem 2 excludes.
class DeterministicProcess final : public LossIntervalProcess {
 public:
  explicit DeterministicProcess(double mean);
  [[nodiscard]] double next() override { return mean_; }
  [[nodiscard]] double mean() const override { return mean_; }
  [[nodiscard]] std::string name() const override { return "deterministic"; }

 private:
  double mean_;
};

/// i.i.d. shifted exponential, the paper's Section V-A.1 design:
/// theta = x0 + Exp(a); mean = x0 + 1/a, cv^2 = (1/a)/mean. Parameterized
/// directly by the target (p, cv), cv in (0, 1].
class ShiftedExponentialProcess final : public LossIntervalProcess {
 public:
  ShiftedExponentialProcess(double p, double cv, std::uint64_t seed);
  [[nodiscard]] double next() override;
  [[nodiscard]] double mean() const override;
  [[nodiscard]] std::string name() const override { return "shifted-exponential"; }
  [[nodiscard]] double cv() const noexcept { return cv_; }
  [[nodiscard]] const sim::ShiftedExpParams& params() const noexcept { return params_; }

 private:
  sim::ShiftedExpParams params_;
  double cv_;
  sim::Rng rng_;
};

/// AR(1)-correlated intervals with tunable lag-1 autocorrelation rho in
/// (-1, 1): theta_n = m + rho (theta_{n-1} - m) + eps_n, eps_n centered
/// shifted-exponential innovations, truncated at a small positive floor.
/// Positive rho makes the estimator a good predictor (cov[theta_0,
/// hat-theta_0] > 0, violating (C1)); negative rho strengthens (C1).
class Ar1Process final : public LossIntervalProcess {
 public:
  Ar1Process(double mean, double cv, double rho, std::uint64_t seed);
  [[nodiscard]] double next() override;
  [[nodiscard]] double mean() const override { return mean_; }
  [[nodiscard]] std::string name() const override { return "ar1"; }
  [[nodiscard]] double rho() const noexcept { return rho_; }

 private:
  double mean_;
  double rho_;
  double innovation_sd_;
  double floor_;
  double state_;
  sim::Rng rng_;
};

}  // namespace ebrc::loss
