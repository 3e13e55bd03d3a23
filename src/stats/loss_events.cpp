#include "stats/loss_events.hpp"

namespace ebrc::stats {

void LossEventRecorder::on_packet(double /*t*/) noexcept {
  ++packets_;
  ++packets_since_event_;
}

bool LossEventRecorder::on_loss(double t) {
  ++losses_;
  if (have_event_ && t < last_event_t_ + rtt_window_) {
    return false;  // same loss event (within one RTT of its start)
  }
  if (have_event_) {
    // Close the previous interval; X_n is the rate set when it started.
    theta_.push_back(static_cast<double>(packets_since_event_));
    s_.push_back(t - last_event_t_);
    x_.push_back(rate_at_interval_start_);
  } else {
    packets_at_first_event_ = packets_;
  }
  have_event_ = true;
  ++events_;
  last_event_t_ = t;
  packets_since_event_ = 0;
  awaiting_rate_ = true;
  // Until the sender reports its post-event rate, fall back to the last
  // known rate so probe senders (CBR/Poisson) still get meaningful X_n.
  rate_at_interval_start_ = current_rate_;
  return true;
}

void LossEventRecorder::note_rate(double rate) noexcept {
  current_rate_ = rate;
  if (awaiting_rate_) {
    rate_at_interval_start_ = rate;
    awaiting_rate_ = false;
  }
}

double LossEventRecorder::loss_event_rate() const noexcept {
  // Rate over the span covered by complete intervals: events that closed an
  // interval divided by packets sent between the first and last event.
  if (events_ < 2) return 0.0;
  const auto span_packets = packets_ - packets_at_first_event_ - packets_since_event_;
  if (span_packets == 0) return 0.0;
  return static_cast<double>(events_ - 1) / static_cast<double>(span_packets);
}

}  // namespace ebrc::stats
