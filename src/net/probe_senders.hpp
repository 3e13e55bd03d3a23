// Non-adaptive senders: CBR and Poisson probes (the paper's "Poisson"
// loss-rate reference in Figure 7) and on/off background traffic used to
// roughen the emulated WAN paths.
#pragma once

#include <cstdint>

#include "net/dumbbell.hpp"
#include "sim/random.hpp"
#include "stats/loss_events.hpp"

namespace ebrc::net {

enum class ProbePattern { kCbr, kPoisson };

/// Sends at a fixed average rate without adapting; its receiver half detects
/// losses from sequence gaps and feeds the shared LossEventRecorder, so the
/// probe measures the "non-adaptive" loss-event rate p''.
class ProbeSender {
 public:
  ProbeSender(Dumbbell& net, int flow_id, double rate_pps, double packet_bytes,
              ProbePattern pattern, double rtt_window_s, std::uint64_t seed);

  ProbeSender(const ProbeSender&) = delete;  // this-capturing pins/handlers
  ProbeSender& operator=(const ProbeSender&) = delete;

  void start(double at);

  [[nodiscard]] const stats::LossEventRecorder& recorder() const noexcept { return recorder_; }
  [[nodiscard]] std::uint64_t sent() const noexcept { return sent_; }
  [[nodiscard]] std::uint64_t received() const noexcept { return received_; }
  [[nodiscard]] int flow_id() const noexcept { return flow_; }

 private:
  void send_next();
  void on_arrival(const Packet& p);

  Dumbbell& net_;
  int flow_;
  double rate_pps_;
  double packet_bytes_;
  ProbePattern pattern_;
  sim::Simulator::PinnedEvent send_ev_;
  sim::Rng rng_;
  stats::LossEventRecorder recorder_;
  std::int64_t next_seq_ = 0;
  std::int64_t expected_seq_ = 0;
  std::uint64_t sent_ = 0;
  std::uint64_t received_ = 0;
};

/// Exponential on / exponential off background source transmitting CBR at
/// `peak_pps` while on. Used as cross traffic; no loss measurement.
class OnOffSender {
 public:
  OnOffSender(Dumbbell& net, int flow_id, double peak_pps, double packet_bytes,
              double mean_on_s, double mean_off_s, std::uint64_t seed);

  OnOffSender(const OnOffSender&) = delete;  // this-capturing pins
  OnOffSender& operator=(const OnOffSender&) = delete;

  void start(double at);
  [[nodiscard]] std::uint64_t sent() const noexcept { return sent_; }

 private:
  void begin_on();
  void send_next();

  Dumbbell& net_;
  int flow_;
  double peak_pps_;
  double packet_bytes_;
  double mean_on_s_;
  double mean_off_s_;
  sim::Simulator::PinnedEvent begin_on_ev_;
  sim::Simulator::PinnedEvent send_ev_;
  sim::Rng rng_;
  std::int64_t next_seq_ = 0;
  std::uint64_t sent_ = 0;
  double on_until_ = 0.0;
};

}  // namespace ebrc::net
