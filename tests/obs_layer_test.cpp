// The observability layer:
//   * Histogram bins, clamping, and quantiles,
//   * Registry snapshot order, probe_only exclusion, and the fixed histogram
//     key set,
//   * Probe sampling on a live simulator (interval schedule, ring overwrite),
//   * CellTrace / TraceWriter JSON export,
//   * the determinism contract: a probed run's encoded result is
//     bit-identical to an unprobed run's, and the obs snapshot survives the
//     ResultStore payload codec.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "obs/probe.hpp"
#include "obs/registry.hpp"
#include "obs/run_obs.hpp"
#include "obs/trace.hpp"
#include "sim/simulator.hpp"
#include "test_support.hpp"
#include "testbed/experiment.hpp"
#include "testbed/result_store.hpp"
#include "testbed/scenario.hpp"

namespace {

using ebrc::obs::CellTrace;
using ebrc::obs::Histogram;
using ebrc::obs::Probe;
using ebrc::obs::Registry;
using ebrc::obs::RunObs;
using ebrc::obs::Series;
using ebrc::obs::Snapshot;
using ebrc::obs::TraceWriter;

using ebrc::testing::TempDir;

[[nodiscard]] double snap_value(const Snapshot& s, const std::string& name) {
  for (const auto& [k, v] : s) {
    if (k == name) return v;
  }
  ADD_FAILURE() << "snapshot has no key '" << name << "'";
  return -1.0;
}

[[nodiscard]] bool snap_has(const Snapshot& s, const std::string& name) {
  for (const auto& [k, v] : s) {
    (void)v;
    if (k == name) return true;
  }
  return false;
}

// ---- Histogram --------------------------------------------------------------

TEST(HistogramTest, CountsMeanMaxAndClamping) {
  Histogram h(0.0, 10.0, 10);
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.mean(), 0.0);
  EXPECT_EQ(h.max(), 0.0);
  EXPECT_EQ(h.quantile(0.5), 0.0);

  h.record(1.0);
  h.record(3.0);
  h.record(5.0);
  h.record(-7.0);   // clamps into the low edge bin
  h.record(123.0);  // clamps into the high edge bin
  EXPECT_EQ(h.count(), 5u);
  EXPECT_DOUBLE_EQ(h.mean(), (1.0 + 3.0 + 5.0 - 7.0 + 123.0) / 5.0);
  EXPECT_DOUBLE_EQ(h.max(), 123.0);
}

TEST(HistogramTest, QuantilesAreMonotoneAndInRange) {
  Histogram h(0.0, 100.0, 50);
  for (int i = 0; i < 100; ++i) h.record(static_cast<double>(i));
  const double p10 = h.quantile(0.10);
  const double p50 = h.quantile(0.50);
  const double p90 = h.quantile(0.90);
  EXPECT_LE(p10, p50);
  EXPECT_LE(p50, p90);
  // Linear bins over a uniform sample: quantiles land near their exact spot.
  EXPECT_NEAR(p50, 50.0, 5.0);
  EXPECT_NEAR(p90, 90.0, 5.0);
}

// ---- Registry ---------------------------------------------------------------

TEST(RegistryTest, SnapshotKeepsRegistrationOrderAndExpandsHistograms) {
  Registry reg;
  std::uint64_t pops = 41;
  reg.add_counter("kernel_events", [&](double) { return static_cast<double>(pops); });
  reg.add_gauge("queue_occupancy", [](double) { return 7.0; });
  Histogram* h = reg.add_histogram("completion_s", 0.0, 10.0, 16);
  ASSERT_NE(h, nullptr);
  h->record(2.0);
  h->record(4.0);
  ++pops;

  const Snapshot s = reg.snapshot(/*now=*/1.0);
  ASSERT_EQ(s.size(), 7u);  // counter + gauge + 5 histogram keys
  EXPECT_EQ(s[0].first, "kernel_events");
  EXPECT_DOUBLE_EQ(s[0].second, 42.0);
  EXPECT_EQ(s[1].first, "queue_occupancy");
  EXPECT_DOUBLE_EQ(s[1].second, 7.0);
  EXPECT_EQ(s[2].first, "completion_s_count");
  EXPECT_DOUBLE_EQ(s[2].second, 2.0);
  EXPECT_EQ(s[3].first, "completion_s_mean");
  EXPECT_DOUBLE_EQ(s[3].second, 3.0);
  EXPECT_EQ(s[4].first, "completion_s_p50");
  EXPECT_EQ(s[5].first, "completion_s_p90");
  EXPECT_EQ(s[6].first, "completion_s_max");
  EXPECT_DOUBLE_EQ(s[6].second, 4.0);
}

TEST(RegistryTest, EmptyHistogramStillExportsItsFixedKeySet) {
  Registry reg;
  (void)reg.add_histogram("drops", 0.0, 1.0, 4);
  const Snapshot s = reg.snapshot(0.0);
  ASSERT_EQ(s.size(), 5u);
  for (const auto& [k, v] : s) {
    (void)k;
    EXPECT_EQ(v, 0.0) << "empty histogram keys must read 0";
  }
}

TEST(RegistryTest, ProbeOnlyGaugesAreSampledButNeverSnapshotted) {
  Registry reg;
  int stateful_samples = 0;
  reg.add_gauge("plain", [](double) { return 1.0; });
  reg.add_gauge("rate_estimator",
                [&](double) { return static_cast<double>(++stateful_samples); },
                /*probe_only=*/true);

  EXPECT_EQ(reg.gauge_count(), 2u);  // the probe sees both
  EXPECT_EQ(reg.gauge_name(1), "rate_estimator");
  EXPECT_DOUBLE_EQ(reg.sample_gauge(1, 0.0), 1.0);

  const Snapshot s = reg.snapshot(0.0);
  EXPECT_TRUE(snap_has(s, "plain"));
  EXPECT_FALSE(snap_has(s, "rate_estimator"))
      << "probe_only gauges must not leak into the deterministic snapshot";
  EXPECT_EQ(stateful_samples, 1) << "snapshot() must not sample probe_only gauges";
}

// ---- Probe ------------------------------------------------------------------

// The driver loop every probed run uses: run to each due time, sample, and
// finish at the horizon. Mirrors run_probed_until in experiment.cpp.
void drive(ebrc::sim::Simulator& sim, Probe& probe, double horizon) {
  while (probe.next_due() <= horizon) {
    sim.run_until(probe.next_due());
    probe.sample();
  }
  sim.run_until(horizon);
}

TEST(ProbeTest, SamplesGaugesAtTheConfiguredInterval) {
  ebrc::sim::Simulator sim;
  Registry reg;
  reg.add_gauge("sim_now", [&](double now) { return now; });

  Probe probe(sim, reg, /*interval_s=*/0.5, /*capacity=*/64, /*stop_at=*/10.0);
  drive(sim, probe, 10.0);

  auto series = probe.take_series();
  ASSERT_EQ(series.size(), 1u);
  const Series& s = series[0];
  EXPECT_EQ(s.name, "sim_now");
  EXPECT_EQ(s.size(), 20u);  // samples at 0.5, 1.0, ..., 10.0
  EXPECT_EQ(sim.events_executed(), 0u) << "the probe must not inject kernel events";
  EXPECT_DOUBLE_EQ(s.time_at(0), 0.5);
  for (std::size_t i = 0; i < s.size(); ++i) {
    EXPECT_DOUBLE_EQ(s.at(i), s.time_at(i)) << "gauge read the sim clock at sample time";
  }
}

TEST(ProbeTest, RingKeepsTheMostRecentSamples) {
  ebrc::sim::Simulator sim;
  Registry reg;
  reg.add_gauge("sim_now", [&](double now) { return now; });

  Probe probe(sim, reg, /*interval_s=*/1.0, /*capacity=*/4, /*stop_at=*/10.0);
  drive(sim, probe, 10.0);

  auto series = probe.take_series();
  ASSERT_EQ(series.size(), 1u);
  const Series& s = series[0];
  EXPECT_EQ(s.total, 10u);
  EXPECT_EQ(s.size(), 4u);
  // The ring keeps the last four samples: t = 7, 8, 9, 10.
  EXPECT_DOUBLE_EQ(s.at(0), 7.0);
  EXPECT_DOUBLE_EQ(s.time_at(0), 7.0);
  EXPECT_DOUBLE_EQ(s.at(3), 10.0);
  EXPECT_DOUBLE_EQ(s.time_at(3), 10.0);
}

TEST(ProbeTest, RejectsNonPositiveIntervalAndZeroCapacity) {
  ebrc::sim::Simulator sim;
  Registry reg;
  EXPECT_THROW(Probe(sim, reg, 0.0, 16, 1.0), std::invalid_argument);
  EXPECT_THROW(Probe(sim, reg, -1.0, 16, 1.0), std::invalid_argument);
  EXPECT_THROW(Probe(sim, reg, 0.1, 0, 1.0), std::invalid_argument);
}

// ---- CellTrace / TraceWriter ------------------------------------------------

TEST(TraceTest, WritesChromeTracingJson) {
  TempDir dir;
  CellTrace trace;
  trace.span(1.0, 2.5, "transfer:tfrc", "transfers");
  trace.instant(1.75, "drop", "queue");
  trace.counter(1.0, "queue_occupancy", 12.0);
  trace.counter(2.0, "queue_occupancy", 9.0);
  EXPECT_EQ(trace.size(), 4u);
  EXPECT_EQ(trace.dropped(), 0u);

  TraceWriter writer;
  writer.absorb(3, "cell \"three\"", std::move(trace));
  const std::string path = (dir.path / "trace.json").string();
  ASSERT_TRUE(writer.write(path));

  std::ifstream in(path, std::ios::binary);
  const std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  EXPECT_NE(text.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(text.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  // Sim seconds become microseconds; the span's dur is (2.5 - 1.0) s.
  EXPECT_NE(text.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(text.find("\"dur\":1500000.000"), std::string::npos);
  EXPECT_NE(text.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(text.find("\"ph\":\"C\""), std::string::npos);
  EXPECT_NE(text.find("\"pid\":3"), std::string::npos);
  // Scenario names are escaped into the process_name metadata.
  EXPECT_NE(text.find("cell \\\"three\\\""), std::string::npos);
  EXPECT_NE(text.find("process_name"), std::string::npos);
  EXPECT_EQ(text.find('\t'), std::string::npos) << "no raw control chars in the JSON";
}

TEST(TraceTest, BufferCapCountsDroppedEvents) {
  CellTrace trace(/*max_events=*/2);
  trace.instant(0.0, "a", "t");
  trace.instant(1.0, "b", "t");
  trace.instant(2.0, "c", "t");
  EXPECT_EQ(trace.size(), 2u);
  EXPECT_EQ(trace.dropped(), 1u);

  TraceWriter writer;
  writer.absorb(0, "cell", std::move(trace));
  EXPECT_EQ(writer.dropped(), 1u);
}

// ---- end-to-end determinism -------------------------------------------------

ebrc::testbed::Scenario short_churn(std::uint64_t seed) {
  auto s = ebrc::testbed::churn_scenario(/*rho=*/0.8, /*tfrc_fraction=*/0.5, seed);
  s.duration_s = 6.0;
  s.warmup_s = 1.0;
  return s;
}

TEST(ObsEndToEnd, SnapshotCarriesKernelNetAndWorkloadInstruments) {
  const auto r = ebrc::testbed::run_experiment(short_churn(7));
  EXPECT_GT(snap_value(r.obs, "kernel_events"), 0.0);
  EXPECT_GT(snap_value(r.obs, "queue_accepted"), 0.0);
  EXPECT_GT(snap_value(r.obs, "link_delivered"), 0.0);
  EXPECT_TRUE(snap_has(r.obs, "queue_drops"));
  EXPECT_TRUE(snap_has(r.obs, "queue_drop_occupancy_count"));
  EXPECT_TRUE(snap_has(r.obs, "wl_opens_tfrc"));
  EXPECT_TRUE(snap_has(r.obs, "wl_completion_s_p90"));
  // Every popped entry runs, so the wheel and heap pops split the executed
  // events exactly.
  EXPECT_EQ(snap_value(r.obs, "kernel_wheel_pops") +
                snap_value(r.obs, "kernel_heap_pops"),
            snap_value(r.obs, "kernel_events"));
  // The probe-only aggregate-rate gauge must NOT be in the snapshot.
  EXPECT_FALSE(snap_has(r.obs, "agg_rate_pps"));
  EXPECT_TRUE(r.obs_series.empty()) << "no probe attached, no series";
}

TEST(ObsEndToEnd, ProbedRunIsBitIdenticalToUnprobedRun) {
  const auto sc = short_churn(11);
  const auto plain = ebrc::testbed::run_experiment(sc);

  RunObs ro;
  ro.probe_interval_s = 0.25;
  ro.probe_capacity = 32;
  const auto probed = ebrc::testbed::run_experiment(sc, &ro);

  EXPECT_FALSE(probed.obs_series.empty());
  EXPECT_GT(probed.obs_series.front().total, 0u);
  // Probe events only read state: the encoded payload (metrics + workload
  // telemetry + obs snapshot; series excluded by design) must not move by a
  // single bit.
  EXPECT_EQ(ebrc::testbed::encode_result(plain), ebrc::testbed::encode_result(probed));
}

TEST(ObsEndToEnd, TracedRunRecordsTransfersAndMatchesPlainRun) {
  const auto sc = short_churn(13);
  const auto plain = ebrc::testbed::run_experiment(sc);

  CellTrace trace;
  RunObs ro;
  ro.trace = &trace;
  const auto traced = ebrc::testbed::run_experiment(sc, &ro);
  EXPECT_GT(trace.size(), 0u) << "churn completions must appear as spans";
  EXPECT_EQ(ebrc::testbed::encode_result(plain), ebrc::testbed::encode_result(traced));
}

TEST(ObsEndToEnd, ObsSnapshotSurvivesTheResultStoreCodec) {
  const auto r = ebrc::testbed::run_experiment(short_churn(17));
  ASSERT_FALSE(r.obs.empty());
  const auto decoded = ebrc::testbed::decode_result(ebrc::testbed::encode_result(r));
  ASSERT_TRUE(decoded.has_value());
  ASSERT_EQ(decoded->obs.size(), r.obs.size());
  for (std::size_t i = 0; i < r.obs.size(); ++i) {
    EXPECT_EQ(decoded->obs[i].first, r.obs[i].first);
    EXPECT_EQ(decoded->obs[i].second, r.obs[i].second) << r.obs[i].first;
  }
  EXPECT_TRUE(decoded->obs_series.empty()) << "series are never persisted";
}

}  // namespace
