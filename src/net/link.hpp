// A fixed-rate output link fed by a queue discipline, plus a pure-delay pipe
// (the NIST-Net stand-in used to add propagation delay to a path).
//
// Both are self-clocking pipes: because the server is FIFO and its rate is
// constant, a packet's departure time is fully determined the moment it is
// admitted — service_start = max(now, clock_out), departure = service_start
// + tx + propagation. Link::forward() therefore resolves a packet's entire
// bottleneck transit inline at admission time, with NO simulator event of
// its own: the caller receives the delivery timestamp and stages the packet
// in whatever downstream pipe carries it (see Dumbbell, which pays exactly
// one timed event per forwarded packet, in the per-flow tail pipe). The old
// design cost a queue-service event plus a serialization-finish event plus a
// propagation event per packet.
//
// DelayPipe delivery events are HEAD-CHAINED and PINNED: only the oldest
// in-flight packet's delivery is armed in the kernel at any time (FIFO
// departure times never decrease, so the chain never schedules into the
// past), the closure is registered once via Simulator::pin (zero slab
// traffic per packet), and the packet itself waits in the pipe's ring — one
// 56-byte copy per hop. The ring is not pre-sized: it allocates at the first
// packet and doubles from 2 entries as the pipe's in-flight population sets
// new highs, so an idle pipe (most of a million-flow pool) costs no ring
// storage at all, and once every pipe has seen its peak the steady state
// allocates nothing.
#pragma once

#include "net/packet.hpp"
#include "net/queue.hpp"
#include "sim/inline_function.hpp"
#include "sim/simulator.hpp"
#include "util/ring_buffer.hpp"

namespace ebrc::net {

/// Delivery callback. Handlers are registered once per link/flow and invoked
/// on every packet, so they ride the same inline-storage callback type as the
/// event kernel: captures up to 48 bytes (typically `this` or a component
/// pointer) never touch the heap, and move-only captures are allowed.
using PacketHandler = sim::InlineFunction<void(const Packet&), 48>;

/// Infinite-capacity fixed-delay pipe (ACK/feedback return paths, added
/// propagation segments), also where a packet a Link forwarded waits out
/// its transit.
class DelayPipe {
 public:
  /// A pipe without a handler drops what it delivers until set_handler()
  /// installs one: a Dumbbell wires a flow's pipes before the connection
  /// that receives on them registers.
  DelayPipe(sim::Simulator& sim, double delay_s, PacketHandler deliver = nullptr);

  // The constructor pins a this-capturing callback into the simulator; a
  // copied or moved instance would leave that closure firing on the old
  // address. Construct in place (deque/member) and keep it there.
  DelayPipe(const DelayPipe&) = delete;
  DelayPipe& operator=(const DelayPipe&) = delete;

  /// Delivers `p` after this pipe's fixed delay.
  void send(const Packet& p) { send_at(p, sim_.now() + delay_s_); }

  /// Delivers `p` at the absolute time `deliver_at`. Times must be
  /// nondecreasing across calls (FIFO pipe); Link departure times are.
  void send_at(const Packet& p, double deliver_at);

  [[nodiscard]] double delay() const noexcept { return delay_s_; }

  /// Replaces the delivery handler (the flow's receiver or sender endpoint).
  void set_handler(PacketHandler deliver) noexcept { deliver_ = std::move(deliver); }

 private:
  void deliver_head();

  struct InFlight {
    Packet pkt;
    double deliver_at;
  };

  sim::Simulator& sim_;
  double delay_s_;
  PacketHandler deliver_;
  // Pinned: zero slab traffic per packet. Armed exactly while `flight_` is
  // non-empty, so the ring's emptiness is the chain guard.
  sim::Simulator::PinnedEvent deliver_ev_;
  util::RingBuffer<InFlight> flight_;  // unsized: grows on use
};

/// RCP router parameters (Balakrishnan–Dukkipati–McKeown). The router keeps
/// one fair-share rate R and updates it every d0 seconds:
///   R <- R * (1 + (T/d0) * (alpha*(C - y) - beta*q/d0) / C)
/// where C is link capacity (pkts/s), y the measured arrival rate over the
/// last interval, q the queue occupancy in packets, and T the actual elapsed
/// interval. alpha/beta are the stability gains from the equilibrium paper.
struct RcpParams {
  double alpha = 0.4;
  double beta = 0.4;
  double d0_s = 0.05;            // control interval ~ average RTT
  double packet_bytes = 1000.0;  // converts rate_bps to capacity in pkts/s
  double min_rate_pps = 1.0;     // floor so R can recover from congestion
};

/// Serializes packets at `rate_bps`, then delivers them after `prop_delay_s`.
/// Arriving packets pass through the queue discipline; drops are silent
/// (protocols detect them end-to-end, as on a real router).
class Link {
 public:
  Link(sim::Simulator& sim, Queue queue, double rate_bps, double prop_delay_s);

  /// Resolves a packet's transit inline at the current simulated time:
  /// returns false when the discipline drops it; otherwise sets `deliver_at`
  /// to the instant the packet finishes serialization + propagation.
  /// The caller owns staging the packet until then — no event is scheduled.
  [[nodiscard]] bool forward(const Packet& p, double& deliver_at);

  [[nodiscard]] Queue& queue() noexcept { return queue_; }
  [[nodiscard]] const Queue& queue() const noexcept { return queue_; }
  [[nodiscard]] double rate_bps() const noexcept { return rate_bps_; }
  /// Total packets admitted for forwarding (every one of them is delivered
  /// after its fixed transit time).
  [[nodiscard]] std::uint64_t delivered() const noexcept { return delivered_; }
  /// Utilization: busy transmission time / elapsed time since creation.
  [[nodiscard]] double utilization() const;

  /// Turns this link into an RCP router: forward() lazily updates the
  /// advertised fair-share rate at packet-arrival times (deterministic — no
  /// extra simulator events), and callers stamp it into data packets.
  void enable_rcp(const RcpParams& params);
  [[nodiscard]] bool rcp_enabled() const noexcept { return rcp_enabled_; }
  /// Current advertised fair share in packets/s (capacity until enabled
  /// traffic produces the first update).
  [[nodiscard]] double rcp_rate_pps() const noexcept { return rcp_rate_pps_; }

 private:
  void rcp_update(double now);

  sim::Simulator& sim_;
  Queue queue_;
  double rate_bps_;
  double inv_rate_;  // 8 / rate_bps: seconds per byte
  double prop_delay_s_;
  double clock_out_ = 0.0;  // virtual clock: when the server frees up
  double busy_time_ = 0.0;
  double created_at_ = 0.0;
  std::uint64_t delivered_ = 0;

  // RCP router state (inactive unless enable_rcp() was called).
  bool rcp_enabled_ = false;
  RcpParams rcp_;
  double rcp_capacity_pps_ = 0.0;
  double rcp_rate_pps_ = 0.0;
  double rcp_last_update_ = 0.0;
  std::uint64_t rcp_arrivals_ = 0;  // arrivals since the last update
};

}  // namespace ebrc::net
