#include <gtest/gtest.h>

#include <cmath>

#include "sim/random.hpp"
#include "stats/autocovariance.hpp"
#include "stats/loss_events.hpp"
#include "stats/online.hpp"
#include "stats/time_average.hpp"

namespace {

using namespace ebrc::stats;

TEST(OnlineMoments, MatchesClosedForm) {
  OnlineMoments m;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) m.add(v);
  EXPECT_EQ(m.count(), 8u);
  EXPECT_DOUBLE_EQ(m.mean(), 5.0);
  EXPECT_NEAR(m.variance(), 32.0 / 7.0, 1e-12);  // unbiased
  EXPECT_DOUBLE_EQ(m.min(), 2.0);
  EXPECT_DOUBLE_EQ(m.max(), 9.0);
}

TEST(OnlineMoments, MergeEqualsSequential) {
  OnlineMoments a, b, all;
  for (int i = 0; i < 50; ++i) {
    const double v = std::sin(i * 0.7) * 3 + i * 0.01;
    (i < 20 ? a : b).add(v);
    all.add(v);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-12);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-12);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(OnlineCovariance, KnownCovariance) {
  OnlineCovariance c;
  // y = 2x exactly: cov = 2 var(x), corr = 1.
  for (double x : {1.0, 2.0, 3.0, 4.0, 5.0}) c.add(x, 2.0 * x);
  EXPECT_NEAR(c.covariance(), 2.0 * 2.5, 1e-12);  // var_x of 1..5 = 2.5
  EXPECT_NEAR(c.correlation(), 1.0, 1e-12);
}

TEST(OnlineCovariance, IndependentNearZero) {
  ebrc::sim::Rng r(3);
  OnlineCovariance c;
  for (int i = 0; i < 200000; ++i) c.add(r.uniform(), r.uniform());
  EXPECT_NEAR(c.covariance(), 0.0, 1e-3);
}

TEST(LaggedAutocovariance, DetectsLagOneStructure) {
  // x_n alternates +1, -1: lag-1 autocovariance = -1, lag-2 = +1.
  LaggedAutocovariance ac(2);
  for (int i = 0; i < 1000; ++i) ac.add(i % 2 == 0 ? 1.0 : -1.0);
  EXPECT_NEAR(ac.at(1), -1.0, 1e-2);
  EXPECT_NEAR(ac.at(2), 1.0, 1e-2);
  EXPECT_NEAR(ac.correlation_at(1), -1.0, 1e-2);
}

TEST(LaggedAutocovariance, Validation) {
  EXPECT_THROW(LaggedAutocovariance(0), std::invalid_argument);
  LaggedAutocovariance ac(2);
  ac.add(1.0);
  EXPECT_THROW((void)ac.at(0), std::out_of_range);
  EXPECT_THROW((void)ac.at(3), std::out_of_range);
}

TEST(TimeWeightedAverage, PiecewiseConstant) {
  TimeWeightedAverage a;
  a.start(0.0, 10.0);
  a.set(2.0, 20.0);   // 10 for 2s
  a.set(3.0, 0.0);    // 20 for 1s
  a.finish(5.0);      // 0 for 2s
  EXPECT_DOUBLE_EQ(a.integral(), 10.0 * 2 + 20.0 * 1 + 0.0 * 2);
  EXPECT_DOUBLE_EQ(a.average(), 40.0 / 5.0);
}

TEST(TimeWeightedAverage, RejectsBackwardsTime) {
  TimeWeightedAverage a;
  a.start(1.0, 1.0);
  EXPECT_THROW(a.set(0.5, 2.0), std::invalid_argument);
}

TEST(LossEventRecorder, GroupsLossesWithinRtt) {
  LossEventRecorder rec(1.0);  // 1 s window
  double t = 0.0;
  // 3 packets/s; losses at t=10, 10.5 (same event), 20 (new event).
  for (int i = 0; i < 100; ++i) {
    t = i * (1.0 / 3.0);
    rec.on_packet(t);
  }
  EXPECT_TRUE(rec.on_loss(10.0));
  EXPECT_FALSE(rec.on_loss(10.5));  // merged
  EXPECT_TRUE(rec.on_loss(20.0));
  EXPECT_EQ(rec.events(), 2u);
  EXPECT_EQ(rec.losses(), 3u);
}

TEST(LossEventRecorder, IntervalsAndRates) {
  LossEventRecorder rec(0.1);
  // 10 packets then a loss, repeated; every loss a new event.
  double t = 0.0;
  int sent = 0;
  for (int ev = 0; ev < 5; ++ev) {
    for (int k = 0; k < 10; ++k) {
      rec.on_packet(t);
      t += 1.0;
      ++sent;
    }
    rec.on_loss(t);
    rec.note_rate(1.0);
  }
  ASSERT_EQ(rec.events(), 5u);
  ASSERT_EQ(rec.intervals_packets().size(), 4u);
  for (double th : rec.intervals_packets()) EXPECT_DOUBLE_EQ(th, 10.0);
  for (double s : rec.intervals_seconds()) EXPECT_DOUBLE_EQ(s, 10.0);
  EXPECT_NEAR(rec.loss_event_rate(), 0.1, 1e-9);
}

TEST(LossEventRecorder, RecordsRateSetAfterEvent) {
  LossEventRecorder rec(0.5);
  rec.on_packet(0.0);
  rec.on_loss(1.0);
  rec.note_rate(42.0);  // rate set at event 0 -> X_0
  for (int i = 0; i < 10; ++i) rec.on_packet(1.0 + i * 0.1);
  rec.on_loss(3.0);
  rec.note_rate(7.0);
  rec.on_packet(3.1);
  rec.on_loss(5.0);
  ASSERT_EQ(rec.rates_at_event().size(), 2u);
  EXPECT_DOUBLE_EQ(rec.rates_at_event()[0], 42.0);
  EXPECT_DOUBLE_EQ(rec.rates_at_event()[1], 7.0);
}

}  // namespace
