// RCP (Rate Control Protocol): router-assisted explicit-rate congestion
// control per the RCP equilibrium analysis. The router on the bottleneck
// (net::Link with enable_rcp()) computes one fair-share rate for all flows
// and stamps it into passing data packets; the receiver echoes the stamp
// once per RTT (kRcpFeedback) over the paced transport
// (net/paced_connection.hpp) and the sender paces at the advertised rate —
// no probing, no loss-driven sawtooth. Until the first stamp arrives
// the sender slow-starts like TFRC (double per feedback, capped at twice the
// delivered rate).
//
// The sender also measures queuing delay (RTT sample minus per-transfer
// minimum) purely as telemetry: RCP's equilibrium queue should be near
// empty, and the controller matrix's queuing-delay column is how that shows.
//
// Interfaces use typed units (util/units.hpp): the advertised rate is a
// DataRate, delays are TimeDeltas, and conversion to the simulator's raw
// doubles happens only at the packet boundary.
#pragma once

#include <cstdint>

#include "net/paced_connection.hpp"
#include "util/units.hpp"

namespace ebrc::rcp {

struct RcpConfig {
  double packet_bytes = 1000.0;
  util::DataRate initial_rate = util::DataRate::packets_per_second(2.0);
  util::DataRate min_rate = util::DataRate::packets_per_second(0.1);
  /// EWMA coefficient for the RTT estimate.
  double rtt_smoothing = 0.9;
};

/// The RCP rate law: adopt the router's stamp, slow-start until one arrives.
/// Its receiver side keeps the stamp of the latest data packet and echoes it
/// as the report value.
class RcpLaw {
 public:
  using Config = RcpConfig;
  using Report = net::Packet::RcpInfo;
  static constexpr const char* kName = "RcpConnection";
  static constexpr net::PacketKind kReportKind = net::PacketKind::kRcpFeedback;
  static constexpr Report net::Packet::*kReport = &net::Packet::rcp;
  static constexpr bool kFirstRttSampleReplacesSrtt = false;
  static constexpr bool kNeedsRttSample = false;

  explicit RcpLaw(RcpConfig cfg) noexcept : cfg_(cfg) {}

  [[nodiscard]] net::PacedParams params() const noexcept {
    return {cfg_.packet_bytes, cfg_.initial_rate, cfg_.min_rate, cfg_.rtt_smoothing};
  }
  void rewind() noexcept {
    router_rate_ = 0.0;
    have_stamp_ = false;
    qdelay_.rewind();
  }
  [[nodiscard]] util::DataRate next_rate(const Report& r, const net::RateSample& s) noexcept;
  void on_data(const net::Packet& p, std::int64_t, double, const net::PacedReceiver&,
               util::DataRate) noexcept {
    router_rate_ = p.data.router_rate;
  }
  [[nodiscard]] double report_value() const noexcept { return router_rate_; }
  [[nodiscard]] const net::QueuingDelayMeter& queuing_delay() const noexcept { return qdelay_; }

  /// True once the sender has adopted a router-advertised rate.
  [[nodiscard]] bool rate_stamped() const noexcept { return have_stamp_; }

 private:
  RcpConfig cfg_;
  net::QueuingDelayMeter qdelay_;
  double router_rate_ = 0.0;  // receiver: stamp of the most recent data packet
  bool have_stamp_ = false;   // sender: a router-advertised rate has been adopted
};

using RcpConnection = net::PacedConnection<RcpLaw>;

}  // namespace ebrc::rcp

extern template class ebrc::net::PacedConnection<ebrc::rcp::RcpLaw>;
