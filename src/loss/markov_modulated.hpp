// Markov-modulated loss-interval process: the loss process moves through
// phases with slow transitions, making the loss-event interval highly
// predictable — the scenario Section III-B.2 identifies as a potential
// source of non-conservativeness (and of (C1) violation).
#pragma once

#include <vector>

#include "loss/loss_process.hpp"

namespace ebrc::loss {

struct Phase {
  double mean_interval;     // E[theta | phase]
  double mean_sojourn;      // expected number of loss events spent in phase
};

class MarkovModulatedProcess final : public LossIntervalProcess {
 public:
  /// Cyclic phase chain (phase i -> i+1 mod k after a geometric number of
  /// events with the given mean sojourn); intervals are exponential with the
  /// per-phase mean.
  MarkovModulatedProcess(std::vector<Phase> phases, std::uint64_t seed);

  [[nodiscard]] double next() override;
  [[nodiscard]] double mean() const override;
  [[nodiscard]] std::string name() const override { return "markov-modulated"; }

 private:
  std::vector<Phase> phases_;
  std::size_t phase_ = 0;
  sim::Rng rng_;
};

/// Two-phase congestion/no-congestion preset: a "good" phase with long
/// intervals and a "bad" phase with short intervals, switching slowly.
[[nodiscard]] MarkovModulatedProcess make_two_phase(double good_mean, double bad_mean,
                                                    double mean_sojourn_events,
                                                    std::uint64_t seed);

}  // namespace ebrc::loss
