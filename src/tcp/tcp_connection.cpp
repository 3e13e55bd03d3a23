#include "tcp/tcp_connection.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace ebrc::tcp {

TcpConnection::TcpConnection(net::Dumbbell& net, int flow_id, double base_rtt_s, TcpConfig cfg)
    : net_(net),
      flow_(flow_id),
      base_rtt_s_(base_rtt_s),
      cfg_(cfg),
      recorder_(base_rtt_s) {
  if (base_rtt_s <= 0) throw std::invalid_argument("TcpConnection: base RTT must be > 0");
  snd_.cwnd = cfg.initial_cwnd;
  snd_.ssthresh = cfg.initial_ssthresh;
  snd_.rto = std::max(cfg.min_rto, 2.0 * base_rtt_s);
  net_.on_data_at_receiver(flow_, [this](const net::Packet& p) { on_data_at_receiver(p); });
  net_.on_packet_at_sender(flow_, [this](const net::Packet& p) { on_packet_at_sender(p); });
}

void TcpConnection::start(double at) {
  net_.simulator().schedule_at(at, [this] {
    snd_.running = true;
    try_send();
    arm_rto();
  });
}

void TcpConnection::open(std::uint64_t transfer_packets, CompletionFn on_complete) {
  if (transfer_packets >
      static_cast<std::uint64_t>(std::numeric_limits<std::int64_t>::max())) {
    // Silently treating this as the 0 = unbounded mode would strand the
    // completion callback (and the pool slot waiting on it) forever.
    throw std::invalid_argument("TcpConnection::open: transfer size exceeds sequence space");
  }
  reset_transfer_state();
  snd_.limit_seq = static_cast<std::int64_t>(transfer_packets);
  done_ = std::move(on_complete);
  snd_.running = true;
  try_send();
  arm_rto();
}

void TcpConnection::finish_transfer() {
  snd_.running = false;
  rto_timer_.cancel();
  delack_timer_.cancel();
  ++transfers_completed_;
  if (done_) {
    CompletionFn done = std::move(done_);
    done_ = CompletionFn{};
    done();
  }
}

void TcpConnection::reset_transfer_state() {
  // Wholesale POD rewind to a fresh connection's state (`running` is
  // restated by open() immediately after). Timers and the reorder buffer
  // keep their kernel slots and capacity.
  snd_ = SenderState{};
  snd_.cwnd = cfg_.initial_cwnd;
  snd_.ssthresh = cfg_.initial_ssthresh;
  snd_.rto = std::max(cfg_.min_rto, 2.0 * base_rtt_s_);
  rcv_ = ReceiverState{};
  rto_timer_.cancel();
  delack_timer_.cancel();
  out_of_order_.clear();  // capacity retained — reuse allocates nothing
  recorder_.set_rtt_window(base_rtt_s_);
}

// --------------------------------------------------------------- sender ----

void TcpConnection::try_send() {
  if (!snd_.running) return;
  while (flight() < std::min(snd_.cwnd, cfg_.max_cwnd) &&
         (snd_.limit_seq == 0 || snd_.next_seq < snd_.limit_seq)) {
    transmit(snd_.next_seq, /*retransmission=*/false);
    ++snd_.next_seq;
  }
}

void TcpConnection::transmit(std::int64_t seq, bool retransmission) {
  net::Packet p;
  p.seq = seq;
  p.size_bytes = cfg_.packet_bytes;
  p.send_time = net_.simulator().now();
  p.kind = net::PacketKind::kData;
  net_.send_data(flow_, p);
  ++sent_;
  recorder_.on_packet(p.send_time);
  if (retransmission) snd_.last_retransmit_time = p.send_time;
}

void TcpConnection::on_packet_at_sender(const net::Packet& p) {
  if (!snd_.running || p.kind != net::PacketKind::kAck) return;
  if (p.ack.seq > snd_.high_ack) {
    on_new_ack(p.ack.seq, p.ack.echo_time);
  } else {
    on_dupack();
  }
}

void TcpConnection::on_new_ack(std::int64_t ack, double echo_time) {
  const std::int64_t acked = ack - snd_.high_ack;
  snd_.high_ack = ack;
  snd_.dup_count = 0;

  // Karn's rule: only sample RTT when the echoed transmission is later than
  // the last retransmission.
  if (echo_time > snd_.last_retransmit_time) {
    note_rtt_sample(net_.simulator().now() - echo_time);
  }
  snd_.backoff = 1;

  // Finite transfer: done when the final byte is cumulatively acknowledged.
  if (snd_.limit_seq != 0 && snd_.high_ack >= snd_.limit_seq) {
    finish_transfer();
    return;
  }

  if (snd_.in_recovery) {
    if (ack >= snd_.recover) {
      // Full acknowledgment: leave recovery, deflate to ssthresh.
      snd_.in_recovery = false;
      snd_.cwnd = snd_.ssthresh;
    } else {
      // Partial ack: the next hole is lost too — retransmit it, deflate by
      // the amount acked (NewReno).
      transmit(snd_.high_ack, /*retransmission=*/true);
      snd_.cwnd = std::max(1.0, snd_.cwnd - static_cast<double>(acked) + 1.0);
      arm_rto();
      try_send();
      return;
    }
  } else if (snd_.cwnd < snd_.ssthresh) {
    snd_.cwnd += static_cast<double>(acked);  // slow start (with delayed acks)
  } else {
    snd_.cwnd += static_cast<double>(acked) / snd_.cwnd;  // congestion avoidance
  }
  recorder_.note_rate(snd_.srtt > 0 ? snd_.cwnd / snd_.srtt : 0.0);

  if (snd_.high_ack == snd_.next_seq) {
    rto_timer_.disarm();  // everything acked; the pending event dies lazily
  } else {
    arm_rto();
  }
  try_send();
}

void TcpConnection::on_dupack() {
  if (snd_.in_recovery) {
    snd_.cwnd += 1.0;  // window inflation per extra dupack
    try_send();
    return;
  }
  if (++snd_.dup_count >= cfg_.dupack_threshold) {
    enter_recovery();
  }
}

void TcpConnection::enter_recovery() {
  ++fast_retx_;
  record_loss_event();
  snd_.ssthresh = std::max(2.0, flight() / 2.0);
  snd_.recover = snd_.next_seq;
  snd_.in_recovery = true;
  transmit(snd_.high_ack, /*retransmission=*/true);
  snd_.cwnd = snd_.ssthresh + static_cast<double>(cfg_.dupack_threshold);
  recorder_.note_rate(snd_.srtt > 0 ? snd_.ssthresh / snd_.srtt : 0.0);
  arm_rto();
}

void TcpConnection::on_timeout() {
  if (!snd_.running) return;
  ++timeouts_;
  record_loss_event();
  snd_.ssthresh = std::max(2.0, flight() / 2.0);
  snd_.cwnd = 1.0;
  snd_.dup_count = 0;
  snd_.in_recovery = false;
  snd_.recover = snd_.next_seq;
  snd_.backoff = std::min(snd_.backoff * 2, 64);
  recorder_.note_rate(snd_.srtt > 0 ? 1.0 / snd_.srtt : 0.0);
  transmit(snd_.high_ack, /*retransmission=*/true);
  arm_rto();
}

void TcpConnection::arm_rto() {
  const double timeout = std::min(cfg_.max_rto, snd_.rto * static_cast<double>(snd_.backoff));
  rto_timer_.arm(net_.simulator().now() + timeout, [this](double at) {
    return net_.simulator().schedule_at(at, [this] { rto_event(); });
  });
}

void TcpConnection::rto_event() {
  if (!snd_.running) return;
  sim::Simulator& sim = net_.simulator();
  const bool due = rto_timer_.fire(sim.current_event(), sim.now(), [this](double at) {
    return net_.simulator().schedule_at(at, [this] { rto_event(); });
  });
  if (due) on_timeout();
}

void TcpConnection::note_rtt_sample(double sample) {
  if (sample <= 0) return;
  if (!snd_.have_rtt) {
    snd_.srtt = sample;
    snd_.rttvar = sample / 2.0;
    snd_.have_rtt = true;
  } else {
    snd_.rttvar += (std::abs(sample - snd_.srtt) - snd_.rttvar) / 4.0;
    snd_.srtt += (sample - snd_.srtt) / 8.0;
  }
  snd_.rto = std::clamp(snd_.srtt + 4.0 * snd_.rttvar, cfg_.min_rto, cfg_.max_rto);
  recorder_.set_rtt_window(snd_.srtt);
  // The paper's r: the event-average RTT, sampled once per round trip.
  const double now = net_.simulator().now();
  if (now >= next_rtt_sample_at_) {
    rtt_stats_.add(sample);
    next_rtt_sample_at_ = now + snd_.srtt;
  }
}

void TcpConnection::record_loss_event() {
  recorder_.on_loss(net_.simulator().now());
}

// ------------------------------------------------------------- receiver ----

void TcpConnection::on_data_at_receiver(const net::Packet& p) {
  rcv_.last_echo = p.send_time;
  bool out_of_order = false;
  if (p.seq == rcv_.expected) {
    ++rcv_.expected;
    ++delivered_;
    // Drain any buffered continuation, then trim the prefix in one move.
    auto it = out_of_order_.begin();
    while (it != out_of_order_.end() && *it == rcv_.expected) {
      ++rcv_.expected;
      ++delivered_;
      ++it;
    }
    out_of_order_.erase(out_of_order_.begin(), it);
  } else if (p.seq > rcv_.expected) {
    const auto pos = std::lower_bound(out_of_order_.begin(), out_of_order_.end(), p.seq);
    if (pos == out_of_order_.end() || *pos != p.seq) out_of_order_.insert(pos, p.seq);
    out_of_order = true;
  } else {
    out_of_order = true;  // duplicate of already-delivered data: ack at once
  }

  ++rcv_.pending_acks;
  if (out_of_order || rcv_.pending_acks >= cfg_.ack_every) {
    send_ack(p.send_time);
  } else if (!delack_timer_.active()) {
    delack_timer_.arm(net_.simulator().now() + cfg_.delayed_ack_timeout,
                      [this](double at) {
                        return net_.simulator().schedule_at(
                            at, [this] { delack_event(); });
                      });
  }
}

void TcpConnection::delack_event() {
  if (!snd_.running) return;
  sim::Simulator& sim = net_.simulator();
  const bool due = delack_timer_.fire(sim.current_event(), sim.now(), [this](double at) {
    return net_.simulator().schedule_at(at, [this] { delack_event(); });
  });
  if (due) send_ack(rcv_.last_echo);
}

void TcpConnection::send_ack(double echo_time) {
  delack_timer_.disarm();
  rcv_.pending_acks = 0;
  net::Packet ack;
  ack.kind = net::PacketKind::kAck;
  ack.ack = {/*seq=*/rcv_.expected, /*echo_time=*/echo_time};
  ack.size_bytes = 40.0;
  ack.send_time = net_.simulator().now();
  net_.send_back(flow_, ack);
}

}  // namespace ebrc::tcp
