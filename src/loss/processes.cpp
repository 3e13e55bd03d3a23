#include "loss/loss_process.hpp"

#include <cmath>
#include <stdexcept>

namespace ebrc::loss {

DeterministicProcess::DeterministicProcess(double mean) : mean_(mean) {
  if (mean <= 0) throw std::invalid_argument("DeterministicProcess: mean must be > 0");
}

ShiftedExponentialProcess::ShiftedExponentialProcess(double p, double cv, std::uint64_t seed)
    : params_(sim::shifted_exp_for(p, cv)), cv_(cv), rng_(seed) {}

double ShiftedExponentialProcess::next() {
  return rng_.shifted_exponential(params_.x0, params_.a);
}

double ShiftedExponentialProcess::mean() const { return params_.x0 + 1.0 / params_.a; }

Ar1Process::Ar1Process(double mean, double cv, double rho, std::uint64_t seed)
    : mean_(mean),
      rho_(rho),
      // Var[theta] = sd_eps^2 / (1 - rho^2) => sd_eps = cv*mean*sqrt(1-rho^2).
      innovation_sd_(cv * mean * std::sqrt(1.0 - rho * rho)),
      floor_(0.05 * mean),
      state_(mean),
      rng_(seed) {
  if (mean <= 0 || cv <= 0) throw std::invalid_argument("Ar1Process: mean, cv must be > 0");
  if (!(rho > -1.0 && rho < 1.0)) throw std::invalid_argument("Ar1Process: rho must be in (-1,1)");
}

double Ar1Process::next() {
  // Centered innovation built from a shifted exponential so the marginal
  // stays right-skewed like measured loss intervals; truncation at the floor
  // slightly biases the mean upward — acceptable for the sign experiments
  // this process exists for (documented in the header).
  const double eps = innovation_sd_ * (rng_.exponential_mean(1.0) - 1.0);
  state_ = mean_ + rho_ * (state_ - mean_) + eps;
  if (state_ < floor_) state_ = floor_;
  return state_;
}

}  // namespace ebrc::loss
