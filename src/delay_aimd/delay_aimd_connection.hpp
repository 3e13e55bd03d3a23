// Delay-based AIMD rate control in the goog_cc style: the sender watches
// queuing delay (RTT sample minus the per-transfer minimum RTT), detects
// overuse against an adaptive threshold, and runs a Hold/Increase/Decrease
// state machine with link-capacity estimation — multiplicative decrease to
// beta times the delivered rate on overuse, additive increase near the
// capacity estimate, multiplicative increase far below it.
//
// Unlike TFRC/TCP this controller SEES the queue: it backs off before losses
// happen and exports queuing-delay telemetry (sum + sample count) that
// loss-based metrics cannot, which is the whole point of putting it in the
// controller matrix.
//
// Wire protocol (the paced transport, net/paced_connection.hpp): data
// packets carry the sender's smoothed RTT as a hint (the receiver paces
// feedback off it); the receiver sends one
// kFeedback report per RTT with mean_interval = 0 (no loss-interval
// estimator here), the measured receive rate, and the echo timestamp the
// sender turns into an RTT sample.
//
// Interfaces use the typed units of util/units.hpp (DataRate, TimeDelta) so
// a rate can't be accidentally fed where a delay belongs; the compiler
// enforces what a double-typed API leaves to code review.
#pragma once

#include <cstdint>
#include <type_traits>

#include "net/paced_connection.hpp"
#include "util/units.hpp"

namespace ebrc::delay_aimd {

struct DelayAimdConfig {
  double packet_bytes = 1000.0;
  util::DataRate initial_rate = util::DataRate::packets_per_second(2.0);
  util::DataRate min_rate = util::DataRate::packets_per_second(0.1);
  /// Multiplicative-decrease factor applied to the delivered rate on overuse.
  double beta = 0.85;
  /// Multiplicative-increase factor when far below the capacity estimate.
  double increase_factor = 1.08;
  /// Overuse threshold adaptation (goog_cc): the threshold chases |queuing
  /// delay| fast when exceeded (k_up) and decays slowly otherwise (k_down),
  /// bounded to [min_threshold, max_threshold].
  util::TimeDelta min_threshold = util::TimeDelta::millis(2.0);
  util::TimeDelta max_threshold = util::TimeDelta::millis(600.0);
  util::TimeDelta initial_threshold = util::TimeDelta::millis(12.5);
  double k_up = 0.01;
  double k_down = 0.00018;
  /// EWMA coefficient for the RTT estimate.
  double rtt_smoothing = 0.9;
};

/// The delay-AIMD rate law. Reports carry no value of their own
/// (mean_interval = 0): the law works from the RTT sample and the receive
/// rate.
class DelayAimdLaw {
 public:
  using Config = DelayAimdConfig;
  using Report = net::Packet::FeedbackInfo;
  static constexpr const char* kName = "DelayAimdConnection";
  static constexpr net::PacketKind kReportKind = net::PacketKind::kFeedback;
  static constexpr Report net::Packet::*kReport = &net::Packet::fb;
  static constexpr bool kFirstRttSampleReplacesSrtt = false;
  static constexpr bool kNeedsRttSample = true;

  /// Throws std::invalid_argument unless beta lies in (0, 1] and
  /// increase_factor >= 1.
  explicit DelayAimdLaw(DelayAimdConfig cfg);

  [[nodiscard]] net::PacedParams params() const noexcept {
    return {cfg_.packet_bytes, cfg_.initial_rate, cfg_.min_rate, cfg_.rtt_smoothing};
  }
  // min_rtt and the detector threshold are per-transfer: a pool slot's next
  // incarnation may live on a different path.
  void rewind() noexcept {
    snd_ = SenderState{};
    snd_.threshold = cfg_.initial_threshold;
    qdelay_.rewind();
  }
  [[nodiscard]] util::DataRate next_rate(const Report& fb, const net::RateSample& s) noexcept;
  void on_data(const net::Packet&, std::int64_t, double, const net::PacedReceiver&,
               util::DataRate) noexcept {}
  [[nodiscard]] double report_value() const noexcept { return 0.0; }
  [[nodiscard]] const net::QueuingDelayMeter& queuing_delay() const noexcept { return qdelay_; }

 private:
  enum class RateState : std::uint8_t { kHold, kIncrease, kDecrease };

  /// Per-transfer rate control and detector state.
  struct SenderState {
    util::DataRate capacity;    // link-capacity EWMA (0 = no estimate yet)
    double capacity_var = 0.0;  // EWMA variance of capacity samples (pps^2)
    util::TimeDelta threshold;  // adaptive overuse threshold
    double last_feedback_time = 0.0;
    RateState state = RateState::kHold;
  };
  static_assert(sizeof(SenderState) == 40 && std::is_trivially_copyable_v<SenderState>);

  DelayAimdConfig cfg_;
  SenderState snd_;
  net::QueuingDelayMeter qdelay_;
};

using DelayAimdConnection = net::PacedConnection<DelayAimdLaw>;

}  // namespace ebrc::delay_aimd

extern template class ebrc::net::PacedConnection<ebrc::delay_aimd::DelayAimdLaw>;
