// The Claim-2 / Figure-6 sender at packet level: a source with a FIXED
// packet rate that adapts its byte rate by varying packet lengths, running
// through a loss module (Bernoulli dropper). Because drops do not depend on
// packet length, the real-time length of a loss interval is independent of
// the controlled rate — condition (C2c) with equality.
//
// The control is equation-based on the loss-event intervals counted in
// packets; losses are learned immediately (the experiment's feedback path is
// uncongested and its delay does not affect long-run averages).
#pragma once

#include <cstdint>
#include <vector>

#include "core/estimator.hpp"
#include "loss/droppers.hpp"
#include "model/throughput_function.hpp"
#include "sim/simulator.hpp"
#include "stats/online.hpp"
#include "stats/time_average.hpp"

namespace ebrc::tfrc {

struct VariablePacketConfig {
  double packet_rate_pps = 50.0;  // fixed packet clock
  std::size_t history_length = 4;   // the paper's Figure 6 uses L = 4
  bool comprehensive = true;
  /// Loss-event grouping window in seconds; 0 = every lost packet is its own
  /// event (the analytic model of Section V-C.1).
  double group_window_s = 0.0;
  double min_bytes = 40.0;
  double max_bytes = 64000.0;
};

class VariablePacketSender {
 public:
  VariablePacketSender(sim::Simulator& sim, loss::PacketDropper& dropper,
                       std::shared_ptr<const model::ThroughputFunction> function,
                       VariablePacketConfig cfg = {});

  void start(double at);
  /// Discards accumulated measurements (call at the end of warm-up).
  void reset_measurement();

  // --- measurement ---------------------------------------------------------
  /// Time-average of the controlled rate X(t) (the f-rate unit).
  [[nodiscard]] double mean_rate() const { return rate_avg_.average(); }
  /// Empirical per-packet loss-event rate.
  [[nodiscard]] double loss_event_rate() const;
  /// x̄ / f(p) at the measured p — Figure 6, top panel.
  [[nodiscard]] double normalized_throughput() const;
  /// Squared coefficient of variation of hat-theta — Figure 6, bottom panel.
  [[nodiscard]] double cv_thetahat_sq() const;
  [[nodiscard]] std::uint64_t loss_events() const noexcept { return events_; }

 private:
  void tick();
  [[nodiscard]] double current_rate() const;

  sim::Simulator& sim_;
  loss::PacketDropper& dropper_;
  std::shared_ptr<const model::ThroughputFunction> f_;
  VariablePacketConfig cfg_;
  core::MovingAverageEstimator estimator_;
  bool seeded_ = false;
  double open_packets_ = 0.0;
  double last_event_time_ = -1.0;
  std::uint64_t packets_ = 0;
  std::uint64_t events_ = 0;
  std::uint64_t measured_packets_ = 0;
  std::uint64_t measured_events_ = 0;
  stats::TimeWeightedAverage rate_avg_;
  stats::OnlineMoments thetahat_m_;
};

}  // namespace ebrc::tfrc
