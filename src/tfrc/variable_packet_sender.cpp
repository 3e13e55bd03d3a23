#include "tfrc/variable_packet_sender.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "core/weights.hpp"
#include "util/math.hpp"

namespace ebrc::tfrc {

VariablePacketSender::VariablePacketSender(
    sim::Simulator& sim, loss::PacketDropper& dropper,
    std::shared_ptr<const model::ThroughputFunction> function, VariablePacketConfig cfg)
    : sim_(sim),
      dropper_(dropper),
      f_(std::move(function)),
      cfg_(cfg),
      estimator_(core::tfrc_weights(cfg.history_length)) {
  if (!f_) throw std::invalid_argument("VariablePacketSender: null function");
  if (cfg.packet_rate_pps <= 0) {
    throw std::invalid_argument("VariablePacketSender: packet rate must be > 0");
  }
}

void VariablePacketSender::start(double at) {
  sim_.schedule_at(at, [this] { tick(); });
}

void VariablePacketSender::reset_measurement() {
  rate_avg_ = stats::TimeWeightedAverage{};
  thetahat_m_ = stats::OnlineMoments{};
  measured_packets_ = 0;
  measured_events_ = 0;
}

double VariablePacketSender::current_rate() const {
  if (!seeded_) return f_->rate(1.0);  // worst-case rate until first loss
  const double hat = cfg_.comprehensive ? estimator_.value_with_open(open_packets_)
                                        : estimator_.value();
  return f_->rate_from_interval(std::max(1.0, hat));
}

void VariablePacketSender::tick() {
  const double now = sim_.now();
  const double rate = current_rate();
  rate_avg_.set(now, rate);
  if (seeded_) thetahat_m_.add(estimator_.value());

  // The packet whose length realizes the current byte rate is emitted, then
  // the loss module decides its fate.
  ++packets_;
  ++measured_packets_;
  open_packets_ += 1.0;
  if (dropper_.drop(now)) {
    const bool new_event =
        last_event_time_ < 0.0 || now >= last_event_time_ + cfg_.group_window_s;
    if (new_event) {
      if (seeded_) {
        estimator_.push(std::max(1.0, open_packets_));
      } else {
        estimator_.seed(std::max(1.0, open_packets_));
        seeded_ = true;
      }
      ++events_;
      ++measured_events_;
      last_event_time_ = now;
      open_packets_ = 0.0;
    }
  }
  sim_.schedule(1.0 / cfg_.packet_rate_pps, [this] { tick(); });
}

double VariablePacketSender::loss_event_rate() const {
  if (measured_packets_ == 0) return 0.0;
  return static_cast<double>(measured_events_) / static_cast<double>(measured_packets_);
}

double VariablePacketSender::normalized_throughput() const {
  const double p = loss_event_rate();
  if (p <= 0.0) return 0.0;
  return mean_rate() / f_->rate(std::min(1.0, p));
}

double VariablePacketSender::cv_thetahat_sq() const {
  return ebrc::util::sq(thetahat_m_.cv());
}

}  // namespace ebrc::tfrc
