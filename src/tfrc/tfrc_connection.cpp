#include "tfrc/tfrc_connection.hpp"

#include <algorithm>
#include <cmath>

#include "core/weights.hpp"

namespace ebrc::tfrc {

TfrcLaw::TfrcLaw(TfrcConfig cfg)
    : cfg_(std::move(cfg)),
      unit_formula_(&model::unit_throughput_function(cfg_.formula)),  // q = 4r implied
      history_(core::shared_tfrc_weights(cfg_.history_length), cfg_.comprehensive,
               cfg_.history_discounting) {}

double TfrcLaw::formula_rate(double srtt) const {
  if (!saw_loss_) return 0.0;
  const double p = std::min(1.0, history_.loss_event_rate());
  if (p <= 0.0) return 0.0;
  return unit_formula_->rate(p) / srtt;
}

util::DataRate TfrcLaw::next_rate(const Report& fb, const net::RateSample& s) {
  double new_rate;
  if (fb.mean_interval > 0.0) {
    saw_loss_ = true;
    const double loss_rate = std::min(1.0, 1.0 / fb.mean_interval);
    // f(p, r) = f(p, 1) / r, exact under the q = 4r recommendation.
    new_rate = unit_formula_->rate(loss_rate) / s.srtt;
    if (cfg_.receive_rate_cap && fb.recv_rate > 0.0) {
      new_rate = std::min(new_rate, 2.0 * fb.recv_rate);
    }
  } else {
    // Slow-start phase: double per feedback, capped by twice the receive
    // rate (RFC 3448 Section 4.3).
    new_rate = 2.0 * s.rate.pps();
    if (fb.recv_rate > 0.0) new_rate = std::min(new_rate, 2.0 * fb.recv_rate);
  }
  return util::DataRate::packets_per_second(new_rate);
}

void TfrcLaw::seed_history(double now, const net::PacedReceiver& rcv,
                           util::DataRate sender_rate) {
  const double elapsed = std::max(1e-9, now - rcv.last_feedback_time);
  const double recv_rate = rcv.recv_since_feedback > 0
                               ? static_cast<double>(rcv.recv_since_feedback) / elapsed
                               : sender_rate.pps();
  const double theta0 = model::interval_for_rate(*unit_formula_, recv_rate * rcv.rtt_hint);
  history_.seed(std::max(1.0, theta0));
}

}  // namespace ebrc::tfrc

template class ebrc::net::PacedConnection<ebrc::tfrc::TfrcLaw>;
