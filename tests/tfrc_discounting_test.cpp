// RFC 3448 Section 5.5 history discounting (an optional TFRC extension the
// paper's analysis omits; implemented and tested here as the natural
// "future work" feature of the comprehensive control).
#include <gtest/gtest.h>

#include "core/estimator.hpp"
#include "core/weights.hpp"
#include "tfrc/loss_history.hpp"

namespace {

using ebrc::core::MovingAverageEstimator;
using ebrc::core::tfrc_weights;
using ebrc::tfrc::LossHistory;

TEST(Discounting, ReducesToPlainOpenValueAtDiscountOne) {
  MovingAverageEstimator e(tfrc_weights(8));
  e.seed(50.0);
  for (double open : {0.0, 40.0, 120.0, 400.0}) {
    EXPECT_NEAR(e.value_with_open_discounted(open, 1.0), e.value_with_open(open), 1e-12)
        << "open=" << open;
  }
}

TEST(Discounting, GrowsFasterThanUndiscountedForLongOpenIntervals) {
  MovingAverageEstimator e(tfrc_weights(8));
  e.seed(50.0);
  const double open = 400.0;  // 8x the average: deep into the discount regime
  EXPECT_GT(e.value_with_open_discounted(open, 0.5), e.value_with_open(open));
}

TEST(Discounting, NeverBelowClosedValue) {
  MovingAverageEstimator e(tfrc_weights(8));
  e.seed(50.0);
  for (double open : {0.0, 10.0, 100.0}) {
    for (double d : {0.5, 0.75, 1.0}) {
      EXPECT_GE(e.value_with_open_discounted(open, d), e.value() - 1e-12);
    }
  }
}

TEST(Discounting, Validation) {
  MovingAverageEstimator e(tfrc_weights(4));
  e.seed(10.0);
  EXPECT_THROW((void)e.value_with_open_discounted(-1.0, 0.7), std::invalid_argument);
  EXPECT_THROW((void)e.value_with_open_discounted(5.0, 0.4), std::invalid_argument);
  EXPECT_THROW((void)e.value_with_open_discounted(5.0, 1.1), std::invalid_argument);
}

LossHistory warmed_history(bool discounting) {
  LossHistory h(ebrc::core::shared_tfrc_weights(8), /*comprehensive=*/true, discounting);
  double t = 0.0;
  const double rtt = 0.1;
  for (int ev = 0; ev < 12; ++ev) {
    for (int k = 0; k < 20; ++k) h.on_packet(0, t += 0.02, rtt);
    if (ev == 0) h.seed(21.0);
    h.on_packet(1, t += 0.02, rtt);
  }
  return h;
}

TEST(Discounting, LossHistoryRecoversFasterAfterLossFreeStretch) {
  auto plain = warmed_history(false);
  auto disc = warmed_history(true);
  // No discount effect while the open interval is short.
  EXPECT_NEAR(plain.mean_interval(), disc.mean_interval(), 1e-9);
  // A long loss-free run: the discounted history reports a larger mean
  // interval (higher allowed rate) than the plain comprehensive control.
  double t = 100.0;
  for (int k = 0; k < 500; ++k) {
    plain.on_packet(0, t += 0.02, 0.1);
    disc.on_packet(0, t += 0.02, 0.1);
  }
  EXPECT_GT(disc.mean_interval(), plain.mean_interval() * 1.05);
  // Both still dominate the closed-history value (Eq. 4's max rule).
  EXPECT_GE(plain.mean_interval(), plain.estimator().value() - 1e-9);
}

TEST(Discounting, FloorAtHalf) {
  // Even an absurdly long open interval cannot discount history below 1/2.
  auto disc = warmed_history(true);
  double t = 100.0;
  for (int k = 0; k < 20000; ++k) disc.on_packet(0, t += 0.02, 0.1);
  const auto& est = disc.estimator();
  const double expect_floor = est.value_with_open_discounted(disc.open_interval(), 0.5);
  EXPECT_NEAR(disc.mean_interval(), expect_floor, 1e-9);
}

}  // namespace
