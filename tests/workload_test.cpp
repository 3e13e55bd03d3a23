// The dynamic-workload subsystem, locked down:
//   * finite TFRC/TCP transfers complete (reliably for TCP, even under
//     forced loss) and connections rewind cleanly for reuse,
//   * the flow pool caps concurrency, rejects overload, recycles slots, and
//     never wires more dumbbell flows than 2 x max_concurrent,
//   * sessions spawn think-time follow-up transfers,
//   * a churn run is bit-identical under --jobs=1 vs --jobs=8 (mid-run
//     spawn/retire included) and through the result cache: warm passes
//     simulate nothing and a 2-shard merged sweep equals the unsharded run
//     including every workload telemetry field,
//   * the PopulationTracker's time-average/epoch algebra is exact.
#include <gtest/gtest.h>


#include <cmath>
#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "net/dumbbell.hpp"
#include "net/queue.hpp"
#include "result_fields.hpp"
#include "sim/simulator.hpp"
#include "stats/population.hpp"
#include "tcp/tcp_connection.hpp"
#include "test_support.hpp"
#include "testbed/batch.hpp"
#include "testbed/experiment.hpp"
#include "testbed/result_store.hpp"
#include "testbed/scenario.hpp"
#include "tfrc/tfrc_connection.hpp"
#include "workload/flow_manager.hpp"

namespace {

namespace fs = std::filesystem;
using namespace ebrc;

testbed::Scenario short_churn(std::uint64_t seed, double load = 1.0) {
  auto s = testbed::churn_scenario(load, 0.5, seed);
  s.duration_s = 20.0;
  s.warmup_s = 4.0;
  s.workload.max_concurrent = 32;
  return s;
}

using ebrc::testing::TempDir;

using ebrc::testing::expect_same_fields;

// ---- connection lifecycle ----------------------------------------------------

TEST(WorkloadLifecycle, TfrcFiniteTransferCompletesAtLastEmission) {
  sim::Simulator sim;
  net::Dumbbell net(sim, net::Queue::drop_tail(100), 15e6, 0.001);
  const int id = net.add_flow(0.024, 0.025);
  tfrc::TfrcConnection c(net, id, 0.050);

  int completions = 0;
  c.open(200, [&] { ++completions; });
  EXPECT_TRUE(c.active());
  sim.run_until(400.0);
  EXPECT_EQ(completions, 1);
  EXPECT_FALSE(c.active());
  EXPECT_EQ(c.sent(), 200u);
  EXPECT_EQ(c.transfers_completed(), 1u);

  // Reuse after a drain: sequencing restarts, cumulative counters continue.
  const std::uint64_t sent0 = c.sent();
  const std::uint64_t delivered0 = c.delivered();
  c.open(150, [&] { ++completions; });
  sim.run_until(800.0);
  EXPECT_EQ(completions, 2);
  EXPECT_EQ(c.sent() - sent0, 150u);
  EXPECT_EQ(c.delivered() - delivered0, 150u);  // lossless link: all arrive
  // The kernel must fully drain: no immortal pacing/feedback chain.
  sim.run();
  EXPECT_EQ(sim.queue_size(), 0u);
}

TEST(WorkloadLifecycle, TcpFiniteTransferCompletesReliablyUnderLoss) {
  sim::Simulator sim;
  // A 4-packet buffer forces drops; the transfer must still complete (and
  // deliver every packet) through retransmission.
  net::Dumbbell net(sim, net::Queue::drop_tail(4), 2e6, 0.001);
  const int id = net.add_flow(0.024, 0.025);
  tcp::TcpConnection c(net, id, 0.050);

  int completions = 0;
  c.open(500, [&] { ++completions; });
  sim.run_until(300.0);
  ASSERT_EQ(completions, 1);
  EXPECT_FALSE(c.active());
  EXPECT_GE(c.sent(), 500u);       // retransmissions on top of the 500
  EXPECT_EQ(c.delivered(), 500u);  // reliable: exactly the transfer, in order
  EXPECT_GT(c.recorder().losses(), 0u) << "the tiny buffer must actually drop";

  // Second incarnation on the same slot: fresh sequencing, reliable again.
  c.open(300, [&] { ++completions; });
  sim.run_until(600.0);
  EXPECT_EQ(completions, 2);
  EXPECT_EQ(c.delivered(), 800u);
}

// ---- the flow pool -----------------------------------------------------------

workload::FlowManagerConfig manager_config(std::uint64_t seed) {
  workload::FlowManagerConfig cfg;
  cfg.workload.arrival_rate_per_s = 20.0;
  cfg.workload.mean_size_pkts = 50.0;
  cfg.workload.max_concurrent = 8;
  cfg.base_rtt_s = 0.050;
  cfg.drain_s = 0.3;
  cfg.seed = seed;
  return cfg;
}

TEST(FlowPool, CapsConcurrencyRecyclesSlotsAndRejectsOverload) {
  sim::Simulator sim;
  net::Dumbbell net(sim, net::Queue::drop_tail(60), 2e6, 0.001);  // slow: overload
  workload::FlowManager mgr(net, manager_config(11));
  mgr.start(0.0);
  sim.run_until(60.0);
  const auto summary = mgr.summarize();

  EXPECT_LE(mgr.pool_slots(), 8u);
  EXPECT_LE(summary.peak_flows, 8u);
  EXPECT_GT(summary.completions, 50u) << "slots must recycle many times";
  EXPECT_GT(summary.rejections, 0u) << "an overloaded 8-slot pool must reject";
  EXPECT_LE(net.flows(), 16u) << "at most two wired dumbbell flows per slot";
  EXPECT_GT(summary.tfrc_share, 0.0);
  EXPECT_LT(summary.tfrc_share, 1.0);
  EXPECT_GT(summary.mean_flows, 0.0);
  EXPECT_NEAR(summary.mean_flows,
              summary.mean_flows_by[workload::class_index(workload::FlowClass::kTfrc)] +
                  summary.mean_flows_by[workload::class_index(workload::FlowClass::kTcp)],
              1e-9);
}

TEST(FlowPool, SessionsSpawnThinkTimeFollowups) {
  sim::Simulator sim;
  net::Dumbbell net(sim, net::Queue::drop_tail(100), 15e6, 0.001);
  auto cfg = manager_config(5);
  cfg.workload.arrival_rate_per_s = 2.0;
  cfg.workload.session_fraction = 1.0;
  cfg.workload.session_transfers_mean = 4.0;
  cfg.workload.session_think_s = 0.5;
  workload::FlowManager mgr(net, cfg);
  mgr.start(0.0);
  sim.run_until(60.0);
  EXPECT_GT(mgr.session_followups(), 20u);
  const auto summary = mgr.summarize();
  // Admitted transfers = fresh arrivals + follow-ups, so with mean 4
  // transfers/session the admissions far exceed the ~120 session arrivals.
  EXPECT_GT(summary.arrivals, 200u);
}

TEST(FlowPool, RejectsInvalidConfigurations) {
  sim::Simulator sim;
  net::Dumbbell net(sim, net::Queue::drop_tail(100), 15e6, 0.001);
  auto bad = manager_config(1);
  bad.workload.arrival_rate_per_s = 0.0;
  EXPECT_THROW(workload::FlowManager(net, bad), std::invalid_argument);
  bad = manager_config(1);
  bad.workload.size_dist = "bimodal";
  EXPECT_THROW(workload::FlowManager(net, bad), std::invalid_argument);
  bad = manager_config(1);
  bad.workload.interarrival = "uniform";
  EXPECT_THROW(workload::FlowManager(net, bad), std::invalid_argument);
  bad = manager_config(1);
  bad.workload.max_concurrent = 0;
  EXPECT_THROW(workload::FlowManager(net, bad), std::invalid_argument);
  bad = manager_config(1);
  bad.workload.tfrc_fraction = 1.5;
  EXPECT_THROW(workload::FlowManager(net, bad), std::invalid_argument);
}

// ---- churn through the experiment runner and batch engine --------------------

TEST(Churn, ExperimentReportsWorkloadTelemetry) {
  const auto r = testbed::run_experiment(short_churn(42));
  ASSERT_TRUE(r.workload_active);
  EXPECT_GT(r.workload.arrivals, 50u);
  EXPECT_GT(r.workload.completions, 20u);
  EXPECT_GT(r.workload.mean_flows, 0.0);
  EXPECT_GT(r.workload.peak_flows, 0u);
  EXPECT_GT(r.workload.goodput_pps[workload::class_index(workload::FlowClass::kTfrc)] +
                r.workload.goodput_pps[workload::class_index(workload::FlowClass::kTcp)],
            0.0);
  EXPECT_GE(r.workload.tfrc_share, 0.0);
  EXPECT_LE(r.workload.tfrc_share, 1.0);
  EXPECT_GT(r.bottleneck_utilization, 0.2);
  // Static-population metrics stay empty — the population is dynamic.
  EXPECT_TRUE(r.flows.empty());

  // And a plain scenario reports no workload.
  auto plain = testbed::ns2_scenario(1, 1, 8, 1);
  plain.duration_s = 4.0;
  plain.warmup_s = 1.0;
  EXPECT_FALSE(testbed::run_experiment(plain).workload_active);
}

TEST(Churn, BitIdenticalAcrossJobCounts) {
  // Mid-run spawn/retire under one worker vs eight: per-run numbers may
  // depend only on the seed, never on the thread layout.
  const auto batch = testbed::replicate(short_churn(0), /*root_seed=*/77, /*reps=*/6);
  const auto serial = testbed::BatchRunner(1).run(batch);
  const auto parallel = testbed::BatchRunner(8).run(batch);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    expect_same_fields(serial[i], parallel[i]);
  }
}

TEST(Churn, SweepThroughCacheAndShardsIsBitIdentical) {
  TempDir dir;
  testbed::ResultStore store(dir.path / "cache");
  const auto batch = testbed::replicate(short_churn(0, /*load=*/1.2), 9, 4);
  testbed::BatchRunner runner(4);

  // Cold pass simulates everything; warm pass simulates NOTHING and matches
  // bit for bit, workload telemetry included.
  testbed::SweepReport cold_rep;
  const auto cold = runner.run(batch, &store, {}, &cold_rep);
  EXPECT_EQ(cold_rep.simulated, batch.size());
  testbed::SweepReport warm_rep;
  const auto warm = runner.run(batch, &store, {}, &warm_rep);
  EXPECT_EQ(warm_rep.simulated, 0u);
  EXPECT_EQ(warm_rep.hits, batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) expect_same_fields(cold[i], warm[i]);

  // Two shards into separate stores, folded through a shared directory (the
  // stores validate on load), then an unsharded warm pass: bit-identical.
  testbed::ResultStore s0(dir.path / "s0");
  testbed::ResultStore s1(dir.path / "s1");
  testbed::SweepReport r0, r1;
  (void)runner.run(batch, &s0, testbed::ShardSpec(0, 2), &r0);
  (void)runner.run(batch, &s1, testbed::ShardSpec(1, 2), &r1);
  EXPECT_EQ(r0.simulated + r1.simulated, batch.size());
  testbed::ResultStore merged(dir.path / "merged");
  for (const auto& shard_dir : {dir.path / "s0", dir.path / "s1"}) {
    for (const auto& e : fs::recursive_directory_iterator(shard_dir)) {
      if (!e.is_regular_file()) continue;
      const auto rel = fs::relative(e.path(), shard_dir);
      fs::create_directories((dir.path / "merged" / rel).parent_path());
      fs::copy_file(e.path(), dir.path / "merged" / rel,
                    fs::copy_options::overwrite_existing);
    }
  }
  // Out-of-band copies bypass store(), so the index sidecar is stale; the
  // merge workflow (and merge_results --into) rebuilds it from filenames.
  EXPECT_EQ(merged.rebuild_index(), batch.size());
  testbed::SweepReport merged_rep;
  const auto merged_run = runner.run(batch, &merged, {}, &merged_rep);
  EXPECT_EQ(merged_rep.simulated, 0u);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    expect_same_fields(cold[i], merged_run[i]);
  }

  // The overload scenario must actually exercise the many-flows regime.
  for (const auto& r : cold) EXPECT_GT(r.workload.peak_flows, 20u);
}

TEST(Churn, CrnPairingSharesSeedsAndTightensContrast) {
  auto a = short_churn(0, 0.8);
  a.workload.tfrc_fraction = 1.0;
  a.name = "crn-a";
  auto b = short_churn(0, 0.8);
  b.workload.tfrc_fraction = 0.0;
  b.name = "crn-b";
  const auto paired = testbed::replicate_paired(a, b, "test-crn", 3, 4);
  ASSERT_EQ(paired.a.size(), 4u);
  for (std::size_t i = 0; i < paired.a.size(); ++i) {
    EXPECT_EQ(paired.a[i].seed, paired.b[i].seed);  // common random numbers
    for (std::size_t j = i + 1; j < paired.a.size(); ++j) {
      EXPECT_NE(paired.a[i].seed, paired.a[j].seed);  // reps independent
    }
  }
  testbed::BatchRunner runner(4);
  const auto ra = runner.run(paired.a);
  const auto rb = runner.run(paired.b);
  // CRN alignment: identical arrival/size draws mean identical admitted
  // arrival counts per pair (both arms draw class/size before admission).
  for (std::size_t i = 0; i < ra.size(); ++i) {
    EXPECT_EQ(ra[i].workload.arrivals + ra[i].workload.rejections,
              rb[i].workload.arrivals + rb[i].workload.rejections);
  }
  const auto diff = testbed::paired_difference(ra, rb);
  EXPECT_EQ(diff.runs, 4u);
  // The paired CI on utilization must not exceed the unpaired two-sample
  // width (it is the point of CRN); with shared seeds it is typically much
  // tighter, but assert only the inequality to stay robust.
  const auto ua = testbed::aggregate(ra).metric("bottleneck_utilization");
  const auto ub = testbed::aggregate(rb).metric("bottleneck_utilization");
  const double unpaired_hw = 1.96 * std::sqrt(ua.stderr_mean() * ua.stderr_mean() +
                                              ub.stderr_mean() * ub.stderr_mean());
  EXPECT_LE(diff.ci("bottleneck_utilization"), unpaired_hw * 1.05);
}

// ---- the population tracker --------------------------------------------------

TEST(PopulationTracker, TimeAverageAndEpochAlgebraAreExact) {
  stats::PopulationTracker pop;
  pop.begin_epoch(0.0);
  pop.on_open(1.0, 0);   // 1 flow over [1, 3)
  pop.on_open(3.0, 1);   // 2 flows over [3, 5)
  pop.on_close(5.0, 0, 4.0, 100.0);
  pop.on_close(7.0, 1, 4.0, 50.0);  // 1 flow over [5, 7)
  pop.finish(8.0);
  // integral = 0*1 + 1*2 + 2*2 + 1*2 = 8 over 8 seconds.
  EXPECT_DOUBLE_EQ(pop.mean_flows_total(), 1.0);
  EXPECT_EQ(pop.arrivals(), 2u);
  EXPECT_EQ(pop.completions(), 2u);
  EXPECT_EQ(pop.peak(), 2u);
  EXPECT_DOUBLE_EQ(pop.completion_time(0).mean(), 4.0);
  EXPECT_DOUBLE_EQ(pop.completion_size(1).mean(), 50.0);

  // A new epoch forgets the window but keeps the instantaneous population.
  pop.begin_epoch(10.0);
  EXPECT_EQ(pop.arrivals(), 0u);
  EXPECT_EQ(pop.active_total(), 0);
  pop.on_open(10.0, 0);
  pop.finish(12.0);
  EXPECT_DOUBLE_EQ(pop.mean_flows(0), 1.0);
  EXPECT_THROW(pop.on_close(12.0, 1, 1.0, 1.0), std::logic_error);
}

}  // namespace
