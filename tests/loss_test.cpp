#include <gtest/gtest.h>

#include "loss/congestion_process.hpp"
#include "loss/droppers.hpp"
#include "loss/loss_process.hpp"
#include "loss/markov_modulated.hpp"
#include "stats/autocovariance.hpp"
#include "stats/online.hpp"

namespace {

using namespace ebrc::loss;

TEST(Deterministic, ConstantIntervals) {
  DeterministicProcess p(25.0);
  EXPECT_DOUBLE_EQ(p.mean(), 25.0);
  EXPECT_DOUBLE_EQ(p.loss_event_rate(), 0.04);
  for (int i = 0; i < 10; ++i) EXPECT_DOUBLE_EQ(p.next(), 25.0);
  EXPECT_THROW(DeterministicProcess(0.0), std::invalid_argument);
}

TEST(ShiftedExponential, TargetsMeanAndCv) {
  // Paper convention (Sec. V-A.1): cv^2 = (1/a)/mean, so the conventional
  // sd/mean of the distribution equals cv^2.
  for (double p : {0.01, 0.1}) {
    for (double cv : {0.3, 0.999}) {
      ShiftedExponentialProcess proc(p, cv, 42);
      ebrc::stats::OnlineMoments m;
      for (int i = 0; i < 300000; ++i) m.add(proc.next());
      EXPECT_NEAR(m.mean() * p, 1.0, 0.02) << "p=" << p << " cv=" << cv;
      EXPECT_NEAR(m.cv(), cv * cv, 0.02) << "p=" << p << " cv=" << cv;
    }
  }
}

TEST(ShiftedExponential, IntervalsAreIid) {
  ShiftedExponentialProcess proc(0.1, 0.8, 7);
  ebrc::stats::LaggedAutocovariance ac(3);
  for (int i = 0; i < 200000; ++i) ac.add(proc.next());
  for (std::size_t lag = 1; lag <= 3; ++lag) {
    EXPECT_NEAR(ac.correlation_at(lag), 0.0, 0.01) << "lag " << lag;
  }
}

TEST(Ar1, PositiveRhoGivesPositiveLag1Correlation) {
  Ar1Process proc(100.0, 0.4, 0.7, 3);
  ebrc::stats::LaggedAutocovariance ac(2);
  for (int i = 0; i < 200000; ++i) ac.add(proc.next());
  EXPECT_GT(ac.correlation_at(1), 0.5);
  EXPECT_NEAR(ac.marginal().mean(), 100.0, 3.0);
}

TEST(Ar1, NegativeRhoGivesNegativeLag1Correlation) {
  Ar1Process proc(100.0, 0.4, -0.5, 3);
  ebrc::stats::LaggedAutocovariance ac(1);
  for (int i = 0; i < 200000; ++i) ac.add(proc.next());
  EXPECT_LT(ac.correlation_at(1), -0.3);
}

TEST(Ar1, Validation) {
  EXPECT_THROW(Ar1Process(1.0, 0.5, 1.0, 1), std::invalid_argument);
  EXPECT_THROW(Ar1Process(-1.0, 0.5, 0.0, 1), std::invalid_argument);
}

TEST(MarkovModulated, MeanIsSojournWeighted) {
  MarkovModulatedProcess proc({{100.0, 50.0}, {10.0, 25.0}}, 99);
  // Stationary event-weights 50/75 and 25/75.
  EXPECT_NEAR(proc.mean(), (50.0 * 100.0 + 25.0 * 10.0) / 75.0, 1e-12);
  ebrc::stats::OnlineMoments m;
  for (int i = 0; i < 500000; ++i) m.add(proc.next());
  EXPECT_NEAR(m.mean(), proc.mean(), 0.02 * proc.mean());
}

TEST(MarkovModulated, SlowPhasesInducePositiveAutocorrelation) {
  // Phase persistence makes intervals predictable — the (C1)-violating
  // regime of Section III-B.2.
  auto proc = make_two_phase(200.0, 10.0, 100.0, 5);
  ebrc::stats::LaggedAutocovariance ac(1);
  for (int i = 0; i < 300000; ++i) ac.add(proc.next());
  EXPECT_GT(ac.correlation_at(1), 0.3);
}

TEST(MarkovModulated, Validation) {
  EXPECT_THROW(MarkovModulatedProcess({}, 1), std::invalid_argument);
  EXPECT_THROW(MarkovModulatedProcess({{0.0, 10.0}}, 1), std::invalid_argument);
  EXPECT_THROW(MarkovModulatedProcess({{5.0, 0.5}}, 1), std::invalid_argument);
}

TEST(CongestionProcess, StationaryWeights) {
  CongestionProcess cp({{0.01, 1.0}, {0.1, 3.0}}, 5);
  const auto pi = cp.stationary();
  EXPECT_NEAR(pi[0], 0.25, 1e-12);
  EXPECT_NEAR(pi[1], 0.75, 1e-12);
}

TEST(CongestionProcess, Equation13Ordering) {
  // A responsive source (high rate in good states) sees a SMALLER sampled
  // loss rate than a non-adaptive one; an anti-adaptive source a larger one.
  CongestionProcess cp({{0.01, 1.0}, {0.2, 1.0}}, 5);
  const double p_cbr = cp.nonadaptive_loss_rate();
  const double p_responsive = cp.sampled_loss_rate({10.0, 1.0});
  const double p_anti = cp.sampled_loss_rate({1.0, 10.0});
  EXPECT_LT(p_responsive, p_cbr);
  EXPECT_GT(p_anti, p_cbr);
  EXPECT_NEAR(p_cbr, 0.105, 1e-12);
}

TEST(CongestionProcess, SamplePathVisitsAllStates) {
  CongestionProcess cp({{0.01, 0.5}, {0.05, 0.5}, {0.2, 0.5}}, 17);
  std::vector<int> visits(3, 0);
  for (double t = 0.0; t < 3000.0; t += 0.1) {
    cp.advance(t);
    ++visits[static_cast<int>(cp.state())];
  }
  for (int v : visits) EXPECT_GT(v, 1000);
  EXPECT_THROW(cp.advance(0.0), std::invalid_argument);  // time went backwards
}

TEST(WeatherProcess, GeometricSweep) {
  auto cp = make_weather_process(0.01, 0.16, 5, 10.0, 3);
  ASSERT_EQ(cp.states().size(), 5u);
  EXPECT_NEAR(cp.states()[0].loss_rate, 0.01, 1e-12);
  EXPECT_NEAR(cp.states()[4].loss_rate, 0.16, 1e-9);
  EXPECT_NEAR(cp.states()[2].loss_rate, 0.04, 1e-9);  // geometric midpoint
  EXPECT_THROW(make_weather_process(0.2, 0.1, 3, 1.0, 1), std::invalid_argument);
}

TEST(BernoulliDropper, DropRate) {
  BernoulliDropper d(0.25, 123);
  int drops = 0;
  constexpr int kN = 200000;
  for (int i = 0; i < kN; ++i) drops += d.drop(static_cast<double>(i));
  EXPECT_NEAR(static_cast<double>(drops) / kN, 0.25, 0.005);
  EXPECT_THROW(BernoulliDropper(1.5, 1), std::invalid_argument);
}

TEST(ModulatedDropper, TracksCongestionState) {
  // Two states with very different loss rates and slow switching: the
  // overall drop rate approaches the stationary mixture.
  CongestionProcess cp({{0.02, 20.0}, {0.3, 20.0}}, 7);
  ModulatedDropper d(std::move(cp), 11);
  int drops = 0;
  constexpr int kN = 400000;
  for (int i = 0; i < kN; ++i) {
    drops += d.drop(static_cast<double>(i) * 0.01);  // 100 pkt/s for 4000 s
  }
  EXPECT_NEAR(static_cast<double>(drops) / kN, 0.16, 0.02);
}

}  // namespace
