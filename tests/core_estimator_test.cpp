#include <gtest/gtest.h>

#include <numeric>

#include "core/estimator.hpp"
#include "core/weights.hpp"
#include "model/throughput_function.hpp"

namespace {

using namespace ebrc::core;

TEST(Weights, TfrcProfileL8MatchesRfc3448) {
  // Raw profile 1,1,1,1,.8,.6,.4,.2 normalized by 6.
  const auto w = tfrc_weights(8);
  ASSERT_EQ(w.size(), 8u);
  const double s = 6.0;
  const double expected[] = {1 / s, 1 / s, 1 / s, 1 / s, .8 / s, .6 / s, .4 / s, .2 / s};
  for (int i = 0; i < 8; ++i) EXPECT_NEAR(w[i], expected[i], 1e-12) << "w[" << i << "]";
}

TEST(Weights, SumToOneForAllWindows) {
  for (std::size_t L : {1u, 2u, 3u, 4u, 8u, 16u, 32u}) {
    const auto w = tfrc_weights(L);
    EXPECT_NEAR(std::accumulate(w.begin(), w.end(), 0.0), 1.0, 1e-12) << "L=" << L;
    EXPECT_NO_THROW(validate_weights(w));
    // Non-increasing profile.
    for (std::size_t i = 1; i < w.size(); ++i) EXPECT_LE(w[i], w[i - 1] + 1e-12);
  }
}

TEST(Weights, DegenerateWindows) {
  EXPECT_EQ(tfrc_weights(1), std::vector<double>{1.0});
  const auto w2 = tfrc_weights(2);
  EXPECT_NEAR(w2[0], 2.0 / 3.0, 1e-12);
  EXPECT_NEAR(w2[1], 1.0 / 3.0, 1e-12);
}

TEST(Weights, UniformAndGeometric) {
  const auto u = uniform_weights(4);
  for (double v : u) EXPECT_DOUBLE_EQ(v, 0.25);
  const auto g = geometric_weights(3, 0.5);
  EXPECT_NEAR(g[0], 4.0 / 7.0, 1e-12);
  EXPECT_NEAR(g[1], 2.0 / 7.0, 1e-12);
  EXPECT_NEAR(g[2], 1.0 / 7.0, 1e-12);
}

TEST(Weights, ValidationRejectsBadVectors) {
  EXPECT_THROW(validate_weights({}), std::invalid_argument);
  EXPECT_THROW(validate_weights({0.0, 1.0}), std::invalid_argument);
  EXPECT_THROW(validate_weights({0.5, -0.1, 0.6}), std::invalid_argument);
  EXPECT_THROW(validate_weights({0.5, 0.4}), std::invalid_argument);  // sum != 1
  EXPECT_THROW(tfrc_weights(0), std::invalid_argument);
}

TEST(Estimator, MovingAverageValue) {
  MovingAverageEstimator e(tfrc_weights(2));  // weights {2/3, 1/3}
  e.push(30.0);
  e.push(60.0);  // newest
  // hat = 2/3*60 + 1/3*30 = 50.
  EXPECT_NEAR(e.value(), 50.0, 1e-12);
  e.push(90.0);  // 30 falls out
  EXPECT_NEAR(e.value(), 2.0 / 3.0 * 90 + 1.0 / 3.0 * 60, 1e-12);
}

TEST(Estimator, PrefixRenormalizationBeforeWarmup) {
  MovingAverageEstimator e(tfrc_weights(8));
  EXPECT_FALSE(e.warmed_up());
  e.push(100.0);
  EXPECT_NEAR(e.value(), 100.0, 1e-12);  // single sample, full mass on it
  e.push(50.0);
  // w1*50 + w2*100 over (w1+w2); w1 == w2 for L=8 -> mean 75.
  EXPECT_NEAR(e.value(), 75.0, 1e-12);
}

TEST(Estimator, SeedFillsWindow) {
  MovingAverageEstimator e(tfrc_weights(8));
  e.seed(42.0);
  EXPECT_TRUE(e.warmed_up());
  EXPECT_NEAR(e.value(), 42.0, 1e-12);
}

TEST(Estimator, ShiftedTailAndThreshold) {
  // L = 2, weights {2/3, 1/3}: W_n = w2 * theta_{n-1}.
  MovingAverageEstimator e(tfrc_weights(2));
  e.push(30.0);
  e.push(60.0);
  EXPECT_NEAR(e.shifted_tail(), 1.0 / 3.0 * 60.0, 1e-12);
  // threshold = (50 - 20) / (2/3) = 45.
  EXPECT_NEAR(e.open_threshold(), 45.0, 1e-12);
  // Below threshold the estimator is unchanged; above it grows.
  EXPECT_NEAR(e.value_with_open(40.0), 50.0, 1e-12);
  EXPECT_NEAR(e.value_with_open(45.0), 50.0, 1e-12);
  EXPECT_NEAR(e.value_with_open(60.0), 2.0 / 3.0 * 60 + 20.0, 1e-12);
}

TEST(Estimator, OpenIntervalIsMonotone) {
  MovingAverageEstimator e(tfrc_weights(8));
  e.seed(100.0);
  double prev = 0.0;
  for (double open = 0.0; open <= 400.0; open += 10.0) {
    const double v = e.value_with_open(open);
    EXPECT_GE(v, prev - 1e-12);
    EXPECT_GE(v, e.value() - 1e-12);  // never smaller than the closed value
    prev = v;
  }
}

TEST(Estimator, Validation) {
  MovingAverageEstimator e(tfrc_weights(4));
  EXPECT_THROW((void)e.value(), std::logic_error);
  EXPECT_THROW(e.push(0.0), std::invalid_argument);
  e.push(10.0);
  EXPECT_THROW((void)e.value_with_open(-1.0), std::invalid_argument);
}

TEST(IntervalForRate, InvertsF) {
  // The inversion TFRC seeds its loss history with: f(1/x) == rate within
  // the bisection tolerance, on either side of the initial [1, 2] bracket.
  auto f = ebrc::model::make_throughput_function("pftk-simplified", 0.1);
  for (const double rate : {200.0, 0.01, 5e4}) {
    const double x = ebrc::model::interval_for_rate(*f, rate);
    EXPECT_NEAR(f->rate_from_interval(x) / rate, 1.0, 1e-6) << "rate " << rate;
  }
  EXPECT_THROW((void)ebrc::model::interval_for_rate(*f, 0.0), std::invalid_argument);
}

}  // namespace
