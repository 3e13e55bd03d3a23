#include "net/dumbbell.hpp"

#include <stdexcept>

namespace ebrc::net {

Dumbbell::Dumbbell(sim::Simulator& sim, Queue queue, double rate_bps,
                   double shared_prop_delay_s)
    : sim_(sim), bottleneck_(sim, std::move(queue), rate_bps, shared_prop_delay_s) {}

int Dumbbell::add_flow(double fwd_prop_s, double rev_prop_s) {
  if (fwd_prop_s < 0 || rev_prop_s < 0) throw std::invalid_argument("Dumbbell: negative delay");
  const int id = static_cast<int>(flows_.size());
  flows_.emplace_back(sim_, fwd_prop_s, rev_prop_s);
  return id;
}

void Dumbbell::on_data_at_receiver(int id, PacketHandler h) {
  flows_.at(static_cast<std::size_t>(id)).tail.set_handler(std::move(h));
}

void Dumbbell::on_packet_at_sender(int id, PacketHandler h) {
  flows_.at(static_cast<std::size_t>(id)).reverse.set_handler(std::move(h));
}

void Dumbbell::send_data(int id, Packet p) {
  Flow& flow = flows_.at(static_cast<std::size_t>(id));
  p.flow = id;
  // RCP router: stamp the advertised fair share into data packets, keeping
  // the min along the path (one hop here, but the min is the protocol).
  if (bottleneck_.rcp_enabled() && p.kind == PacketKind::kData) {
    const double advertised = bottleneck_.rcp_rate_pps();
    if (p.data.router_rate <= 0.0 || advertised < p.data.router_rate) {
      p.data.router_rate = advertised;
    }
  }
  // Bottleneck transit resolves inline (virtual clock); the accepted packet
  // is staged in the flow's tail pipe until it reaches the receiver.
  double deliver_at;
  if (!bottleneck_.forward(p, deliver_at)) return;  // dropped at the queue
  flow.tail.send_at(p, deliver_at + flow.tail.delay());
}

void Dumbbell::send_back(int id, Packet p) {
  p.flow = id;
  flows_.at(static_cast<std::size_t>(id)).reverse.send(p);
}

}  // namespace ebrc::net
