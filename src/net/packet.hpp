// The packet: small, trivially copyable, shared by every protocol module.
//
// The wire-common fields (flow, kind, seq, size, send timestamp) live
// unconditionally; everything a single protocol direction needs rides in a
// kind-discriminated union, so the struct stays at 56 bytes instead of the
// 80 a flat layout costs. Every forwarded packet is copied into (and out of)
// the network layer's ring buffers, so those 24 bytes are paid on every hop
// of every packet of every run. Readers must check `kind` before touching a
// union arm (the protocols all branch on it already).
#pragma once

#include <cstdint>
#include <type_traits>

namespace ebrc::net {

enum class PacketKind : std::uint8_t {
  kData,
  kAck,          // TCP cumulative acknowledgment
  kFeedback,     // TFRC / delay-AIMD / AIMD receiver report
  kRcpFeedback,  // RCP receiver echo of the router-stamped rate
};

struct Packet {
  std::int64_t seq = 0;         // per-flow sequence number (data) / echo
  double size_bytes = 1000.0;   // wire size incl. headers
  double send_time = 0.0;       // stamped by the sender at transmission
  std::int32_t flow = 0;        // flow identifier (index within an experiment)
  PacketKind kind = PacketKind::kData;

  /// TCP cumulative acknowledgment payload (kind == kAck).
  struct AckInfo {
    std::int64_t seq;    // next expected sequence number
    double echo_time;    // send_time of the packet being acknowledged
  };
  /// TFRC receiver-report payload (kind == kFeedback).
  struct FeedbackInfo {
    double mean_interval;  // hat-theta reported by the receiver (AIMD: packets lost)
    double recv_rate;      // packets/s measured over the last RTT
    double echo_time;      // send_time of the packet being echoed
  };
  /// Data-packet payload (kind == kData).
  struct DataInfo {
    // Sender's current RTT estimate (TFRC receivers need it to group losses
    // into loss events and to pace feedback).
    double rtt_hint;
    // RCP: min over traversed routers of the advertised fair-share rate in
    // packets/s; 0 means "no RCP router on the path has stamped yet".
    double router_rate;
  };
  /// RCP receiver echo (kind == kRcpFeedback).
  struct RcpInfo {
    double rate_pps;   // router_rate of the most recent data packet
    double recv_rate;  // packets/s measured over the last RTT
    double echo_time;  // send_time of the packet being echoed
  };

  union {
    DataInfo data = {0.0, 0.0};  // kind == kData
    AckInfo ack;                 // kind == kAck
    FeedbackInfo fb;             // kind == kFeedback
    RcpInfo rcp;                 // kind == kRcpFeedback
  };
};

static_assert(std::is_trivially_copyable_v<Packet>);
static_assert(sizeof(Packet) == 56, "keep the per-hop copy at 56 bytes");

}  // namespace ebrc::net
