// Packet-level TFRC: the TFRC rate law over the paced transport
// (net/paced_connection.hpp), which owns pacing, sequencing, the feedback
// chain and the lifecycle.
//
// Receiver: detects losses from sequence gaps, maintains the RFC 3448 loss
// history (LossHistory), measures the receive rate, and sends one feedback
// packet per RTT carrying (hat-theta, receive rate, echo timestamp).
//
// Sender: before the first loss event it slow-starts (rate doubles each
// feedback, capped at twice the receive rate); afterwards it applies the
// equation X = f(p, r) with p = 1/hat-theta from feedback and r the smoothed
// measured RTT, optionally capped at twice the receive rate (the TFRC
// standard behavior; can be disabled to study the pure control).
//
// The formulas are used with the TFRC recommendation q = 4r, under which
// every formula in this library scales exactly as f(p, r) = f(p, 1)/r; the
// sender therefore evaluates the unit-RTT formula and divides by the
// measured smoothed RTT.
#pragma once

#include <cstdint>
#include <string>

#include "model/throughput_function.hpp"
#include "net/paced_connection.hpp"
#include "tfrc/loss_history.hpp"

namespace ebrc::tfrc {

struct TfrcConfig {
  /// Loss-interval estimator window L (TFRC default 8).
  std::size_t history_length = 8;
  /// Comprehensive control (include the open interval). The lab experiments
  /// of the paper disable this.
  bool comprehensive = true;
  /// RFC 3448 history discounting (off by default: the paper's analysis and
  /// its experimental TFRC omit it).
  bool history_discounting = false;
  /// Cap the computed rate at 2x the reported receive rate (TFRC standard).
  bool receive_rate_cap = true;
  /// Throughput formula family: "sqrt" | "pftk" | "pftk-simplified".
  std::string formula = "pftk";
  double packet_bytes = 1000.0;
  double initial_rate_pps = 2.0;
  /// EWMA coefficient for the RTT estimate (RFC 3448 q = 0.9).
  double rtt_smoothing = 0.9;
  double min_rate_pps = 0.1;
};

/// The TFRC rate law: X = f(p, r) from the receiver's hat-theta, slow start
/// before the first loss event. Its receiver side keeps the RFC 3448 loss
/// history and reports hat-theta as the feedback value.
class TfrcLaw {
 public:
  using Config = TfrcConfig;
  using Report = net::Packet::FeedbackInfo;
  static constexpr const char* kName = "TfrcConnection";
  static constexpr net::PacketKind kReportKind = net::PacketKind::kFeedback;
  static constexpr Report net::Packet::*kReport = &net::Packet::fb;
  static constexpr bool kFirstRttSampleReplacesSrtt = true;
  static constexpr bool kNeedsRttSample = false;

  explicit TfrcLaw(TfrcConfig cfg);

  [[nodiscard]] net::PacedParams params() const noexcept {
    return {cfg_.packet_bytes, util::DataRate::packets_per_second(cfg_.initial_rate_pps),
            util::DataRate::packets_per_second(cfg_.min_rate_pps), cfg_.rtt_smoothing};
  }
  void rewind() noexcept {
    saw_loss_ = false;
    history_.reset();
  }
  [[nodiscard]] util::DataRate next_rate(const Report& fb, const net::RateSample& s);
  void on_data(const net::Packet& /*p*/, std::int64_t missing, double now,
               const net::PacedReceiver& rcv, util::DataRate sender_rate) {
    if (missing > 0 && !history_.has_loss()) seed_history(now, rcv, sender_rate);
    history_.on_packet(missing, now, rcv.rtt_hint);
  }
  [[nodiscard]] double report_value() const {
    return history_.has_loss() ? history_.mean_interval() : 0.0;
  }
  /// Loss-based: no queuing-delay samples.
  [[nodiscard]] net::QueuingDelayMeter queuing_delay() const noexcept { return {}; }

  [[nodiscard]] const LossHistory& loss_history() const noexcept { return history_; }
  /// f(p, r) at the receiver's current loss-event rate and RTT `srtt` (the
  /// paper's conservativeness reference); 0 before the first loss event.
  [[nodiscard]] double formula_rate(double srtt) const;

 private:
  TfrcConfig cfg_;
  // rtt = 1, q = 4: immutable and process-wide, shared by every connection
  // with the same formula (see model::unit_throughput_function).
  const model::ThroughputFunction* unit_formula_;
  LossHistory history_;
  bool saw_loss_ = false;  // the sender has left slow start

  /// First loss event: seeds the history so that the reported rate matches
  /// the rate the connection actually achieved so far (RFC 3448 6.3.1).
  void seed_history(double now, const net::PacedReceiver& rcv, util::DataRate sender_rate);
};

using TfrcConnection = net::PacedConnection<TfrcLaw>;

}  // namespace ebrc::tfrc

extern template class ebrc::net::PacedConnection<ebrc::tfrc::TfrcLaw>;
