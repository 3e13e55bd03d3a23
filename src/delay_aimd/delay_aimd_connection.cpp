#include "delay_aimd/delay_aimd_connection.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace ebrc::delay_aimd {

DelayAimdLaw::DelayAimdLaw(DelayAimdConfig cfg) : cfg_(cfg) {
  if (!(cfg_.beta > 0.0 && cfg_.beta <= 1.0) || !(cfg_.increase_factor >= 1.0)) {
    throw std::invalid_argument(
        "DelayAimdConnection: beta must lie in (0, 1] and increase_factor be >= 1");
  }
  snd_.threshold = cfg_.initial_threshold;
}

util::DataRate DelayAimdLaw::next_rate(const Report& fb, const net::RateSample& s) noexcept {
  // Queuing delay: the sample's excess over the per-transfer RTT floor.
  const util::TimeDelta qdelay = qdelay_.add(util::TimeDelta::seconds(s.rtt_s));

  // Adaptive overuse threshold (goog_cc): chase the observed queuing delay
  // fast when exceeded, decay toward it slowly otherwise.
  // dt capped at 100 ms, as in goog_cc: a long feedback gap must not let one
  // adaptation step overshoot the target.
  const double dt_ms = snd_.last_feedback_time > 0
                           ? std::min(100.0, (s.now - snd_.last_feedback_time) * 1e3)
                           : 0.0;
  const double k = qdelay > snd_.threshold ? cfg_.k_up : cfg_.k_down;
  snd_.threshold = util::min(
      cfg_.max_threshold,
      util::max(cfg_.min_threshold,
                snd_.threshold + k * dt_ms * (qdelay - snd_.threshold)));
  snd_.last_feedback_time = s.now;

  const bool overuse = qdelay > snd_.threshold;
  const auto recv_rate = util::DataRate::packets_per_second(std::max(0.0, fb.recv_rate));

  if (overuse) {
    snd_.state = RateState::kDecrease;
  } else if (snd_.state == RateState::kDecrease) {
    snd_.state = RateState::kHold;  // one interval of hold after backing off
  } else {
    snd_.state = RateState::kIncrease;
  }

  util::DataRate rate = s.rate;
  switch (snd_.state) {
    case RateState::kDecrease: {
      if (recv_rate > util::DataRate::zero()) {
        // The delivered rate during overuse IS a link-capacity sample; track
        // its EWMA mean and variance for the near-capacity test below.
        const double err = recv_rate.pps() - snd_.capacity.pps();
        if (snd_.capacity.is_zero()) {
          snd_.capacity = recv_rate;
        } else {
          snd_.capacity = snd_.capacity + util::DataRate::packets_per_second(0.05 * err);
        }
        snd_.capacity_var = 0.95 * snd_.capacity_var + 0.05 * err * err;
        rate = cfg_.beta * recv_rate;
      } else {
        rate = cfg_.beta * rate;
      }
      break;
    }
    case RateState::kHold:
      break;
    case RateState::kIncrease: {
      if (snd_.capacity.is_zero()) {
        // No capacity estimate yet (no overuse seen): slow-start, doubling
        // per feedback capped at twice the delivered rate.
        rate = rate * 2.0;
        if (recv_rate > util::DataRate::zero()) rate = util::min(rate, 2.0 * recv_rate);
      } else {
        const double sigma = std::sqrt(std::max(0.0, snd_.capacity_var));
        const bool near_capacity = rate.pps() >= snd_.capacity.pps() - 3.0 * sigma;
        if (near_capacity) {
          // Additive: one packet per RTT, the classic AIMD probe.
          rate = rate + util::DataRate::packets_per_second(1.0 / std::max(1e-3, s.srtt));
        } else {
          rate = rate * cfg_.increase_factor;
        }
        if (recv_rate > util::DataRate::zero()) rate = util::min(rate, 1.5 * recv_rate);
      }
      break;
    }
  }
  return rate;
}

}  // namespace ebrc::delay_aimd

template class ebrc::net::PacedConnection<ebrc::delay_aimd::DelayAimdLaw>;
