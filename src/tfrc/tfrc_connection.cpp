#include "tfrc/tfrc_connection.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "model/solvers.hpp"

namespace ebrc::tfrc {
namespace {

/// Inverts h(x) = f(1/x) at a target rate by bisection (h is increasing).
double invert_rate(const model::ThroughputFunction& f, double target_rate) {
  double lo = 1.0;
  double hi = 2.0;
  while (f.rate_from_interval(lo) > target_rate && lo > 1e-9) lo *= 0.5;
  while (f.rate_from_interval(hi) < target_rate && hi < 1e12) hi *= 2.0;
  return model::bisect([&](double x) { return f.rate_from_interval(x) - target_rate; }, lo, hi,
                       1e-9 * hi);
}

}  // namespace

TfrcConnection::TfrcConnection(net::Dumbbell& net, int flow_id, double base_rtt_s, TfrcConfig cfg)
    : net_(net),
      flow_(flow_id),
      base_rtt_s_(base_rtt_s),
      cfg_(std::move(cfg)),
      unit_formula_(&model::unit_throughput_function(cfg_.formula)),  // q = 4r implied
      send_ev_(net.simulator().pin([this] { send_next(); })),
      feedback_ev_(net.simulator().pin([this] { feedback_tick(); })),
      history_(core::shared_tfrc_weights(cfg_.history_length), cfg_.comprehensive,
               cfg_.history_discounting),
      recorder_(base_rtt_s) {
  if (base_rtt_s <= 0) throw std::invalid_argument("TfrcConnection: base RTT must be > 0");
  snd_.rate = cfg_.initial_rate_pps;
  snd_.srtt = base_rtt_s;
  rcv_.rtt_hint = base_rtt_s;
  if (cfg_.initial_rate_pps <= 0 || cfg_.packet_bytes <= 0) {
    throw std::invalid_argument("TfrcConnection: bad configuration");
  }
  net_.on_data_at_receiver(flow_, [this](const net::Packet& p) { on_data(p); });
  net_.on_packet_at_sender(flow_, [this](const net::Packet& p) { on_feedback(p); });
}

void TfrcConnection::start(double at) {
  net_.simulator().schedule_at(at, [this] {
    snd_.running = true;
    send_next();
  });
}

void TfrcConnection::stop() { snd_.running = false; }

void TfrcConnection::open(std::uint64_t transfer_packets, CompletionFn on_complete) {
  reset_transfer_state();
  snd_.transfer_limit = transfer_packets;
  done_ = std::move(on_complete);
  snd_.running = true;
  // Reuse a pacing chain still armed from the previous incarnation (close()
  // between its scheduling and its firing); otherwise start a fresh one at
  // the current time. Either way exactly one chain is live.
  if (!snd_.pacing_armed) {
    snd_.pacing_armed = true;
    net_.simulator().schedule_pinned(0.0, send_ev_);
  }
}

void TfrcConnection::close() {
  snd_.running = false;
  done_ = CompletionFn{};
}

void TfrcConnection::finish_transfer() {
  snd_.running = false;
  ++transfers_completed_;
  if (done_) {
    // Move out first: the callback may re-enter the pool and hand this slot
    // a fresh done_ later (never synchronously — slots are quarantined).
    CompletionFn done = std::move(done_);
    done_ = CompletionFn{};
    done();
  }
}

void TfrcConnection::reset_transfer_state() {
  // Wholesale POD rewind; the chain guards survive it — an armed pacing or
  // feedback chain from the previous incarnation is reused, never doubled
  // (see open()). `running` is restated by open() right after.
  const bool pacing = snd_.pacing_armed;
  const bool feedback = snd_.feedback_armed;
  snd_ = SenderState{};
  snd_.rate = cfg_.initial_rate_pps;
  snd_.srtt = base_rtt_s_;
  snd_.pacing_armed = pacing;
  snd_.feedback_armed = feedback;
  rcv_ = ReceiverState{};
  rcv_.rtt_hint = base_rtt_s_;
  history_.reset();
  recorder_.set_rtt_window(base_rtt_s_);
}

void TfrcConnection::reset_counters() {
  sent_ = 0;
  delivered_ = 0;
}

double TfrcConnection::formula_rate() const {
  if (!snd_.saw_loss) return 0.0;
  const double p = std::min(1.0, history_.loss_event_rate());
  if (p <= 0.0) return 0.0;
  return unit_formula_->rate(p) / snd_.srtt;
}

// --------------------------------------------------------------- sender ----

void TfrcConnection::send_next() {
  if (!snd_.running) {
    snd_.pacing_armed = false;  // the chain dies here; open() may start a new one
    return;
  }
  net::Packet p;
  p.seq = snd_.next_seq++;
  p.size_bytes = cfg_.packet_bytes;
  p.send_time = net_.simulator().now();
  p.data.rtt_hint = snd_.srtt;
  net_.send_data(flow_, p);
  ++sent_;
  ++snd_.transfer_sent;
  if (snd_.transfer_limit != 0 && snd_.transfer_sent >= snd_.transfer_limit) {
    // Finite transfer: the paced source is done the moment it emits its last
    // packet (TFRC has no retransmission — delivery of the tail is the
    // network's business). The pacing chain ends with it.
    snd_.pacing_armed = false;
    finish_transfer();
    return;
  }
  snd_.pacing_armed = true;
  net_.simulator().schedule_pinned(1.0 / snd_.rate, send_ev_);
}

void TfrcConnection::on_feedback(const net::Packet& p) {
  if (!snd_.running || p.kind != net::PacketKind::kFeedback) return;
  const double now = net_.simulator().now();

  const double sample = now - p.fb.echo_time;
  if (sample > 0) {
    if (!snd_.have_rtt) {
      snd_.srtt = sample;
      snd_.have_rtt = true;
    } else {
      snd_.srtt = cfg_.rtt_smoothing * snd_.srtt + (1.0 - cfg_.rtt_smoothing) * sample;
    }
    if (now >= next_rtt_sample_at_) {
      rtt_stats_.add(sample);
      next_rtt_sample_at_ = now + snd_.srtt;
    }
  }

  double new_rate;
  if (p.fb.mean_interval > 0.0) {
    snd_.saw_loss = true;
    const double loss_rate = std::min(1.0, 1.0 / p.fb.mean_interval);
    // f(p, r) = f(p, 1) / r, exact under the q = 4r recommendation.
    new_rate = unit_formula_->rate(loss_rate) / snd_.srtt;
    if (cfg_.receive_rate_cap && p.fb.recv_rate > 0.0) {
      new_rate = std::min(new_rate, 2.0 * p.fb.recv_rate);
    }
  } else {
    // Slow-start phase: double per feedback, capped by twice the receive
    // rate (RFC 3448 Section 4.3).
    new_rate = 2.0 * snd_.rate;
    if (p.fb.recv_rate > 0.0) new_rate = std::min(new_rate, 2.0 * p.fb.recv_rate);
  }
  snd_.rate = std::max(cfg_.min_rate_pps, new_rate);
  recorder_.note_rate(snd_.rate);
}

// ------------------------------------------------------------- receiver ----

void TfrcConnection::on_data(const net::Packet& p) {
  const double now = net_.simulator().now();
  if (p.data.rtt_hint > 0) rcv_.rtt_hint = p.data.rtt_hint;
  recorder_.set_rtt_window(rcv_.rtt_hint);

  const std::int64_t missing = std::max<std::int64_t>(0, p.seq - rcv_.expected_seq);
  if (p.seq >= rcv_.expected_seq) rcv_.expected_seq = p.seq + 1;

  if (missing > 0 && !history_.has_loss()) {
    // First loss event: seed the history so that the reported rate matches
    // the rate the connection actually achieved so far (RFC 3448 6.3.1).
    const double elapsed = std::max(1e-9, now - rcv_.last_feedback_time);
    const double recv_rate =
        rcv_.recv_since_feedback > 0 ? static_cast<double>(rcv_.recv_since_feedback) / elapsed : snd_.rate;
    const double theta0 = invert_rate(*unit_formula_, recv_rate * rcv_.rtt_hint);
    history_.seed(std::max(1.0, theta0));
  }
  history_.on_packet(missing, now, rcv_.rtt_hint);

  for (std::int64_t i = 0; i < missing; ++i) recorder_.on_loss(now);
  recorder_.on_packet(now);
  ++delivered_;
  ++rcv_.recv_since_feedback;
  rcv_.last_data_send_time = p.send_time;

  if (!rcv_.started) {
    rcv_.started = true;
    rcv_.last_feedback_time = now;
    if (!snd_.feedback_armed) {
      snd_.feedback_armed = true;
      net_.simulator().schedule_pinned(std::max(1e-3, rcv_.rtt_hint), feedback_ev_);
    }
  }
}

void TfrcConnection::feedback_tick() {
  if (!snd_.running) {
    snd_.feedback_armed = false;  // chain dies; the next incarnation re-arms
    return;
  }
  const double now = net_.simulator().now();
  if (rcv_.recv_since_feedback > 0) {
    net::Packet report;
    report.kind = net::PacketKind::kFeedback;
    report.size_bytes = 40.0;
    report.send_time = now;
    const double elapsed = std::max(1e-9, now - rcv_.last_feedback_time);
    report.fb = {/*mean_interval=*/history_.has_loss() ? history_.mean_interval() : 0.0,
                 /*recv_rate=*/static_cast<double>(rcv_.recv_since_feedback) / elapsed,
                 /*echo_time=*/rcv_.last_data_send_time};
    net_.send_back(flow_, report);
    rcv_.recv_since_feedback = 0;
    rcv_.last_feedback_time = now;
  }
  snd_.feedback_armed = true;
  net_.simulator().schedule_pinned(std::max(1e-3, rcv_.rtt_hint), feedback_ev_);
}

}  // namespace ebrc::tfrc
