#include "core/estimator.hpp"

#include <algorithm>
#include <stdexcept>

#include "core/weights.hpp"

namespace ebrc::core {

MovingAverageEstimator::MovingAverageEstimator(std::vector<double> weights)
    : MovingAverageEstimator(std::make_shared<const std::vector<double>>(std::move(weights))) {}

MovingAverageEstimator::MovingAverageEstimator(std::shared_ptr<const std::vector<double>> weights)
    : weights_(std::move(weights)) {
  if (!weights_) throw std::invalid_argument("estimator: null weight profile");
  validate_weights(*weights_);
  ring_.assign(weights_->size(), 0.0);
}

void MovingAverageEstimator::push(double theta) {
  if (!(theta > 0.0)) throw std::invalid_argument("estimator: interval must be > 0");
  newest_ = newest_ == 0 ? ring_.size() - 1 : newest_ - 1;
  ring_[newest_] = theta;
  if (count_ < ring_.size()) ++count_;
  recompute();
}

void MovingAverageEstimator::seed(double theta) {
  if (!(theta > 0.0)) throw std::invalid_argument("estimator: seed must be > 0");
  std::fill(ring_.begin(), ring_.end(), theta);
  newest_ = 0;
  count_ = ring_.size();
  recompute();
}

void MovingAverageEstimator::reset() noexcept {
  std::fill(ring_.begin(), ring_.end(), 0.0);
  newest_ = 0;
  count_ = 0;
  value_ = 0.0;
  tail_ = 0.0;
  tail_mass_ = 0.0;
}

void MovingAverageEstimator::recompute() noexcept {
  // theta_{n-l} lives at ring_[(newest_ + l) % L]; accumulate newest-first,
  // exactly like the per-query loops this cache replaced.
  const std::vector<double>& w = *weights_;
  const std::size_t L = w.size();
  double num = 0.0;
  double mass = 0.0;
  std::size_t slot = newest_;
  for (std::size_t l = 0; l < count_; ++l) {
    num += w[l] * ring_[slot];
    mass += w[l];
    slot = slot + 1 == L ? 0 : slot + 1;
  }
  value_ = num / mass;

  double tail = 0.0;
  double tail_mass = 0.0;
  const std::size_t n = std::min(count_, L - 1);
  slot = newest_;
  for (std::size_t l = 0; l < n; ++l) {
    tail += w[l + 1] * ring_[slot];
    tail_mass += w[l + 1];
    slot = slot + 1 == L ? 0 : slot + 1;
  }
  tail_ = tail;
  tail_mass_ = tail_mass;
}

void MovingAverageEstimator::require_history() const {
  if (count_ == 0) throw std::logic_error("estimator: no history yet");
}

double MovingAverageEstimator::value() const {
  require_history();
  return value_;
}

double MovingAverageEstimator::shifted_tail() const {
  require_history();
  return tail_;
}

double MovingAverageEstimator::open_threshold() const {
  require_history();
  return (value_ - tail_) / weights_->front();
}

double MovingAverageEstimator::value_with_open(double open_packets) const {
  if (open_packets < 0) throw std::invalid_argument("estimator: open interval must be >= 0");
  require_history();
  const double with_open = weights_->front() * open_packets + tail_;
  return std::max(value_, with_open);
}

double MovingAverageEstimator::shifted_tail_mass() const {
  require_history();
  return tail_mass_;
}

double MovingAverageEstimator::value_with_open_discounted(double open_packets,
                                                          double discount) const {
  if (open_packets < 0) throw std::invalid_argument("estimator: open interval must be >= 0");
  if (!(discount >= 0.5 && discount <= 1.0)) {
    throw std::invalid_argument("estimator: discount must lie in [0.5, 1]");
  }
  require_history();
  // Normalized weighted average with the open interval at full weight and
  // the closed history discounted (RFC 3448 Eq. for I_mean with DF_i); at
  // discount = 1 and full warm-up this reduces to value_with_open().
  const double w1 = weights_->front();
  const double num = w1 * open_packets + discount * tail_;
  const double den = w1 + discount * tail_mass_;
  return std::max(value_, num / den);
}

}  // namespace ebrc::core
