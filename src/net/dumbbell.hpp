// The canonical experiment topology: N flows share one bottleneck link in
// the forward direction; acknowledgment/feedback traffic returns over
// uncongested delay pipes.
//
//   sender_i --> [queue|bottleneck link] --(prop fwd_i)--> receiver_i
//   receiver_i --(prop rev_i)--> sender_i
//
// The bottleneck sits at the FIRST hop and each flow's extra forward
// propagation follows it — exactly the paper's lab layout, where the hosts
// shared the bottleneck hub and NIST-Net added the path delay downstream
// (Section V-A.3). Per-flow round-trip times and queueing behavior are the
// same as with sender-side access links; only the constant per-flow phase at
// which a flow's packets sample the queue differs.
//
// That placement is also what makes the packet path cheap: a data packet's
// bottleneck admission resolves INLINE inside the sender's own emission
// event (Link::forward — virtual clock, no event), and its one timed hop is
// the flow's tail pipe, head-chained and pinned. End to end a data packet
// costs two simulator events (emission + tail delivery) and, once the
// flow's pipe rings have grown to its peak in-flight count, zero heap
// allocations, versus four events and per-packet callback boxes before the
// overhaul.
//
// Each flow registers two handlers: data arriving at its receiver, and
// ack/feedback arriving back at its sender. They are installed straight into
// the flow's two pipes, so a delivery is one indirect call into the
// endpoint, and a flow is its two pipes and nothing else.
#pragma once

#include <deque>

#include "net/link.hpp"
#include "net/packet.hpp"
#include "net/queue.hpp"
#include "sim/simulator.hpp"

namespace ebrc::net {

class Dumbbell {
 public:
  /// The bottleneck: rate, its queue discipline, and the propagation delay of
  /// the shared segment.
  Dumbbell(sim::Simulator& sim, Queue queue, double rate_bps, double shared_prop_delay_s);

  Dumbbell(const Dumbbell&) = delete;  // flows' pipes capture stable addresses
  Dumbbell& operator=(const Dumbbell&) = delete;

  /// Adds a flow whose one-way forward extra propagation is `fwd_prop_s` and
  /// reverse (receiver->sender) propagation is `rev_prop_s`. Returns the flow
  /// id to stamp into packets.
  int add_flow(double fwd_prop_s, double rev_prop_s);

  /// Registers the handler for data packets arriving at flow `id`'s receiver.
  void on_data_at_receiver(int id, PacketHandler h);
  /// Registers the handler for ack/feedback packets arriving back at the
  /// flow's sender.
  void on_packet_at_sender(int id, PacketHandler h);

  /// Sender-side entry: pushes a data packet towards the bottleneck.
  void send_data(int id, Packet p);
  /// Receiver-side entry: returns an ack/feedback packet to the sender.
  void send_back(int id, Packet p);

  [[nodiscard]] sim::Simulator& simulator() noexcept { return sim_; }
  [[nodiscard]] Link& bottleneck() noexcept { return bottleneck_; }
  [[nodiscard]] std::size_t flows() const noexcept { return flows_.size(); }

 private:
  struct Flow {
    Flow(sim::Simulator& sim, double fwd_prop_s, double rev_prop_s)
        : tail(sim, fwd_prop_s), reverse(sim, rev_prop_s) {}

    DelayPipe tail;     // post-bottleneck propagation; delivers to the receiver
    DelayPipe reverse;  // receiver -> sender return path; delivers to the sender
  };

  sim::Simulator& sim_;
  Link bottleneck_;
  std::deque<Flow> flows_;  // deque: stable addresses for the pipes' captures
};

}  // namespace ebrc::net
