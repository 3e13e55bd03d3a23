#include <gtest/gtest.h>

#include <limits>
#include <utility>
#include <vector>

#include "testbed/experiment.hpp"
#include "testbed/scenario.hpp"
#include "testbed/wan_paths.hpp"

namespace {

using namespace ebrc::testbed;

TEST(Scenario, Ns2PresetMatchesPaperSetup) {
  const auto s = ns2_scenario(4, 4, 8, 1);
  EXPECT_DOUBLE_EQ(s.bottleneck_bps, 15e6);
  EXPECT_DOUBLE_EQ(s.base_rtt_s, 0.050);
  EXPECT_EQ(s.queue, QueueKind::kRed);
  EXPECT_TRUE(s.tfrc.comprehensive);
  EXPECT_EQ(s.tfrc.formula, "pftk");
  EXPECT_EQ(s.n_tfrc, 4);
  EXPECT_EQ(s.n_tcp, 4);
}

TEST(Scenario, LabPresetMatchesPaperSetup) {
  const auto s = lab_scenario(QueueKind::kRed, 0, 2, 1);
  EXPECT_DOUBLE_EQ(s.bottleneck_bps, 10e6);
  EXPECT_FALSE(s.tfrc.comprehensive);  // disabled in the lab runs
  ASSERT_TRUE(s.red.has_value());
  EXPECT_NEAR(s.red->min_th, 9.375, 1e-9);
  EXPECT_NEAR(s.red->max_th, 78.125, 1e-9);
  EXPECT_FALSE(s.red->gentle);
  const auto d = lab_scenario(QueueKind::kDropTail, 64, 1, 1);
  EXPECT_EQ(d.droptail_buffer, 64u);
}

TEST(Experiment, SmallMixedPopulationProducesFullBreakdown) {
  Scenario s = ns2_scenario(2, 2, 8, 7);
  s.duration_s = 120.0;
  s.warmup_s = 30.0;
  s.n_poisson = 1;
  s.poisson_rate_pps = 20.0;
  const auto r = run_experiment(s);

  ASSERT_EQ(r.flows.size(), 5u);
  EXPECT_EQ(r.of_kind("tfrc").size(), 2u);
  EXPECT_EQ(r.of_kind("tcp").size(), 2u);
  EXPECT_EQ(r.of_kind("poisson").size(), 1u);

  // The bottleneck is saturated by 4 greedy flows.
  EXPECT_GT(r.bottleneck_utilization, 0.80);
  // Everyone measured a positive loss-event rate and throughput.
  EXPECT_GT(r.tfrc_p, 0.0);
  EXPECT_GT(r.tcp_p, 0.0);
  EXPECT_GT(r.poisson_p, 0.0);
  EXPECT_GT(r.tfrc_throughput, 10.0);
  EXPECT_GT(r.tcp_throughput, 10.0);
  // RTTs track the configured 50 ms base plus queueing.
  EXPECT_GT(r.tfrc_rtt, 0.045);
  EXPECT_LT(r.tfrc_rtt, 0.30);
  // The breakdown ratios are populated and finite.
  EXPECT_GT(r.breakdown.conservativeness, 0.0);
  EXPECT_GT(r.breakdown.loss_rate_ratio, 0.0);
  EXPECT_GT(r.breakdown.rtt_ratio, 0.5);
  EXPECT_LT(r.breakdown.rtt_ratio, 2.0);
  EXPECT_GT(r.breakdown.tcp_formula_ratio, 0.0);
  EXPECT_GT(r.breakdown.friendliness, 0.0);
}

TEST(Experiment, Claim4FewFlowsTcpSeesLargerLossEventRate) {
  // The headline of Claim 4 / Figure 17 (right): one TCP and one TFRC on a
  // DropTail bottleneck — TCP's loss-event rate exceeds TFRC's.
  Scenario s = lab_scenario(QueueKind::kDropTail, 40, 1, 3);
  s.duration_s = 300.0;
  s.warmup_s = 60.0;
  const auto r = run_experiment(s);
  ASSERT_GT(r.tfrc_p, 0.0);
  ASSERT_GT(r.tcp_p, 0.0);
  EXPECT_GT(r.breakdown.loss_rate_ratio, 1.05) << "p'/p should exceed 1 for few flows";
}

TEST(Experiment, TfrcIsRoughlyConservativeOnRedBottleneck) {
  // Figure 5 regime: many flows on RED; TFRC normalized throughput near or
  // below 1 (strong conservativeness appears only at high p).
  Scenario s = ns2_scenario(4, 4, 8, 11);
  s.duration_s = 150.0;
  s.warmup_s = 30.0;
  const auto r = run_experiment(s);
  ASSERT_GT(r.breakdown.conservativeness, 0.0);
  EXPECT_LT(r.breakdown.conservativeness, 1.35);
}

TEST(Experiment, Validation) {
  Scenario s = ns2_scenario(1, 1, 8, 1);
  s.duration_s = 10.0;
  s.warmup_s = 20.0;
  EXPECT_THROW((void)run_experiment(s), std::invalid_argument);
}

TEST(Experiment, NonFiniteDurationOrWarmupRejected) {
  // A scenario file can spell `duration_s = nan`: NaN compares false against
  // the warm-up, so an ordering check alone ran the cell and printed NaN
  // metrics.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const auto& [duration, warmup] : std::vector<std::pair<double, double>>{
           {nan, 1.0}, {inf, 1.0}, {10.0, nan}, {10.0, -inf}}) {
    Scenario s = ns2_scenario(1, 1, 8, 1);
    s.duration_s = duration;
    s.warmup_s = warmup;
    EXPECT_THROW((void)run_experiment(s), std::invalid_argument) << duration << " " << warmup;
  }
}

TEST(WanPaths, TableOneShape) {
  const auto paths = table1_paths();
  ASSERT_EQ(paths.size(), 4u);
  EXPECT_EQ(paths[0].name, "INRIA");
  EXPECT_NEAR(paths[0].base_rtt_s, 0.030, 1e-9);
  EXPECT_EQ(paths[3].name, "UMELB");
  EXPECT_NEAR(paths[3].base_rtt_s, 0.350, 1e-9);
  // Access classes: INRIA/UMASS faster than KTH/UMELB.
  EXPECT_GT(paths[0].access_bps, paths[2].access_bps);
}

TEST(WanPaths, ScenarioBuilds) {
  const auto paths = table1_paths();
  const auto s = wan_scenario(paths[2], 2, 5);
  EXPECT_EQ(s.n_tfrc, 2);
  EXPECT_EQ(s.n_tcp, 2);
  EXPECT_GT(s.n_onoff, 0);
  EXPECT_EQ(s.queue, QueueKind::kDropTail);
  EXPECT_DOUBLE_EQ(s.base_rtt_s, 0.046);
}

TEST(WanPaths, KthRunHasLowLossAndFullBreakdown) {
  auto s = wan_scenario(table1_paths()[2], 1, 9);  // KTH, 1 TCP + 1 TFRC
  s.duration_s = 120.0;
  s.warmup_s = 30.0;
  const auto r = run_experiment(s);
  // Low ambient loss (the paper's KTH p was ~1e-4..6e-4; ours just needs to
  // be well below the lab regime).
  if (r.tfrc_p > 0.0) {
    EXPECT_LT(r.tfrc_p, 0.05);
  }
  EXPECT_GT(r.tfrc_throughput, 0.0);
  EXPECT_GT(r.tcp_throughput, 0.0);
}

}  // namespace
