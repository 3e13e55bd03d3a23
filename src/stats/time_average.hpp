// Time-weighted average of a piecewise-constant signal.
//
// The paper's central quantity is the long-run time average
//   x̄ = lim (1/t) ∫ X(s) ds = E[X(0)],
// which differs from the event (Palm) average E0_N[X(0)] taken at loss
// events. This accumulator computes the former; OnlineMoments over the
// per-event values computes the latter.
#pragma once

#include <stdexcept>

namespace ebrc::stats {

class TimeWeightedAverage {
 public:
  /// Starts the signal at `t0` with value `v0`.
  void start(double t0, double v0) noexcept {
    t_last_ = t0;
    value_ = v0;
    started_ = true;
  }

  /// Records that the signal changed to `v` at time `t` (t must not decrease).
  void set(double t, double v) {
    if (!started_) {
      start(t, v);
      return;
    }
    if (t < t_last_) throw std::invalid_argument("TimeWeightedAverage::set: time went backwards");
    integral_ += value_ * (t - t_last_);
    elapsed_ += t - t_last_;
    t_last_ = t;
    value_ = v;
  }

  /// Closes the observation window at `t` without changing the value.
  void finish(double t) { set(t, value_); }

  [[nodiscard]] double integral() const noexcept { return integral_; }
  [[nodiscard]] double elapsed() const noexcept { return elapsed_; }
  /// Time average over the observed window; 0 when no time has elapsed.
  [[nodiscard]] double average() const noexcept {
    return elapsed_ > 0.0 ? integral_ / elapsed_ : 0.0;
  }
  [[nodiscard]] bool started() const noexcept { return started_; }

 private:
  bool started_ = false;
  double t_last_ = 0.0;
  double value_ = 0.0;
  double integral_ = 0.0;
  double elapsed_ = 0.0;
};

}  // namespace ebrc::stats
