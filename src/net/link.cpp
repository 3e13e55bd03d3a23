#include "net/link.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace ebrc::net {

DelayPipe::DelayPipe(sim::Simulator& sim, double delay_s, PacketHandler deliver)
    : sim_(sim),
      delay_s_(delay_s),
      deliver_(std::move(deliver)),
      deliver_ev_(sim.pin([this] { deliver_head(); })) {
  if (delay_s < 0) throw std::invalid_argument("DelayPipe: negative delay");
}

void DelayPipe::send_at(const Packet& p, double deliver_at) {
  assert(flight_.empty() || deliver_at >= flight_.at_offset(flight_.size() - 1).deliver_at);
  const bool idle = flight_.empty();  // no delivery armed yet
  flight_.push_back(InFlight{p, deliver_at});
  if (idle) sim_.schedule_pinned_at(deliver_at, deliver_ev_);
}

void DelayPipe::deliver_head() {
  const Packet p = flight_.front().pkt;
  flight_.pop_front();
  if (!flight_.empty()) sim_.schedule_pinned_at(flight_.front().deliver_at, deliver_ev_);
  if (deliver_) deliver_(p);
}

Link::Link(sim::Simulator& sim, Queue queue, double rate_bps, double prop_delay_s)
    : sim_(sim),
      queue_(std::move(queue)),
      rate_bps_(rate_bps),
      inv_rate_(8.0 / rate_bps),
      prop_delay_s_(prop_delay_s),
      created_at_(sim.now()) {
  if (rate_bps <= 0) throw std::invalid_argument("Link: rate must be > 0");
  if (prop_delay_s < 0) throw std::invalid_argument("Link: negative delay");
}

bool Link::forward(const Packet& p, double& deliver_at) {
  const double now = sim_.now();
  if (rcp_enabled_) {
    ++rcp_arrivals_;
    if (now - rcp_last_update_ >= rcp_.d0_s) rcp_update(now);
  }
  const double start = std::max(now, clock_out_);
  if (!queue_.admit(now, start)) return false;  // dropped by the discipline
  const double tx = p.size_bytes * inv_rate_;
  clock_out_ = start + tx;
  busy_time_ += tx;
  ++delivered_;
  deliver_at = clock_out_ + prop_delay_s_;
  return true;
}

void Link::enable_rcp(const RcpParams& params) {
  if (params.alpha <= 0 || params.beta < 0 || params.d0_s <= 0 || params.packet_bytes <= 0 ||
      params.min_rate_pps <= 0) {
    throw std::invalid_argument(
        "Link::enable_rcp: need alpha > 0, beta >= 0, d0_s > 0, packet_bytes > 0, "
        "min_rate_pps > 0");
  }
  rcp_enabled_ = true;
  rcp_ = params;
  rcp_capacity_pps_ = rate_bps_ / (8.0 * params.packet_bytes);
  rcp_rate_pps_ = rcp_capacity_pps_;  // optimistic start, as the paper suggests
  rcp_last_update_ = sim_.now();
  rcp_arrivals_ = 0;
}

void Link::rcp_update(double now) {
  // Lazy control-law step, driven by packet arrivals: deterministic because
  // arrival times are, and free when the link is idle. T is the actual
  // elapsed interval (>= d0 by construction of the caller's check).
  const double elapsed = now - rcp_last_update_;
  const double y = static_cast<double>(rcp_arrivals_) / elapsed;  // arrival rate, pkts/s
  const double q = static_cast<double>(queue_.packets(now));     // backlog, pkts
  const double feedback =
      rcp_.alpha * (rcp_capacity_pps_ - y) - rcp_.beta * q / rcp_.d0_s;
  const double factor = 1.0 + (elapsed / rcp_.d0_s) * feedback / rcp_capacity_pps_;
  rcp_rate_pps_ = std::clamp(rcp_rate_pps_ * std::max(0.0, factor), rcp_.min_rate_pps,
                             rcp_capacity_pps_);
  rcp_last_update_ = now;
  rcp_arrivals_ = 0;
}

double Link::utilization() const {
  const double elapsed = sim_.now() - created_at_;
  if (elapsed <= 0.0) return 0.0;
  // busy_time_ accrues at admission; the work still scheduled beyond now
  // (clock_out_ - now on a backlogged server) has not happened yet. A
  // work-conserving FIFO server is busy exactly when committed work remains,
  // so past busy time = committed - remaining.
  const double remaining = std::max(0.0, clock_out_ - sim_.now());
  return (busy_time_ - remaining) / elapsed;
}

}  // namespace ebrc::net
