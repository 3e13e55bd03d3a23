// Rate-based AIMD over the paced transport (net/paced_connection.hpp), for
// the Claim-4 comparison with the equation-based sender on the same f, and
// the packet-level counterpart of model::simulate_fluid_aimd. The receiver
// reports the packets lost this transfer once per RTT; the sender multiplies
// its rate by beta when that count has grown and otherwise adds alpha/srtt
// pps, i.e. alpha packets/RTT per RTT. Losses are thus grouped per report
// interval and the increase is clocked by the reports. No slow start.
#pragma once

#include <cstdint>

#include "net/paced_connection.hpp"
#include "util/units.hpp"

namespace ebrc::tcp {

struct AimdConfig {
  double alpha = 1.0;         // packets/RTT per RTT
  double beta = 0.5;
  double initial_rate = 10.0; // packets/s
  double packet_bytes = 1000.0;
};

/// The AIMD(alpha, beta) rate law. The report's mean_interval field carries
/// the lost-packet count.
class AimdLaw {
 public:
  using Config = AimdConfig;
  using Report = net::Packet::FeedbackInfo;
  static constexpr const char* kName = "AimdConnection";
  static constexpr net::PacketKind kReportKind = net::PacketKind::kFeedback;
  static constexpr Report net::Packet::*kReport = &net::Packet::fb;
  static constexpr bool kFirstRttSampleReplacesSrtt = false;
  static constexpr bool kNeedsRttSample = false;

  /// Throws std::invalid_argument unless alpha > 0 and beta lies in (0, 1).
  explicit AimdLaw(AimdConfig cfg);

  [[nodiscard]] net::PacedParams params() const noexcept {
    return {cfg_.packet_bytes, util::DataRate::packets_per_second(cfg_.initial_rate),
            util::DataRate::packets_per_second(0.1), 0.9};
  }
  void rewind() noexcept {
    lost_ = 0;
    lost_seen_ = 0.0;
  }
  [[nodiscard]] util::DataRate next_rate(const Report& fb, const net::RateSample& s) noexcept {
    if (fb.mean_interval > lost_seen_) {
      lost_seen_ = fb.mean_interval;
      return cfg_.beta * s.rate;
    }
    return s.rate + util::DataRate::packets_per_second(cfg_.alpha / s.srtt);
  }
  void on_data(const net::Packet&, std::int64_t missing, double, const net::PacedReceiver&,
               util::DataRate) noexcept {
    lost_ += static_cast<std::uint64_t>(missing);
  }
  [[nodiscard]] double report_value() const noexcept { return static_cast<double>(lost_); }
  /// Loss-based: no queuing-delay samples.
  [[nodiscard]] net::QueuingDelayMeter queuing_delay() const noexcept { return {}; }

 private:
  AimdConfig cfg_;
  std::uint64_t lost_ = 0;  // receiver: packets lost this transfer
  double lost_seen_ = 0.0;  // sender: the highest count reported so far
};

using AimdConnection = net::PacedConnection<AimdLaw>;

}  // namespace ebrc::tcp

extern template class ebrc::net::PacedConnection<ebrc::tcp::AimdLaw>;
