// The on-disk result cache and the sharded sweep path, locked down:
//   * a cache hit returns bit-identical ExperimentResults to the fresh run,
//   * any scenario-field or seed perturbation misses,
//   * corrupted / truncated / foreign cache files fall back to re-simulation
//     (and are repaired) instead of crashing,
//   * a sweep sharded over {1, 2, 3, 8} processes through a shared store,
//     then folded by an unsharded warm pass, is bit-identical to the
//     unsharded run — per run AND per aggregated metric.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <bit>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "testbed/batch.hpp"
#include "testbed/experiment.hpp"
#include "testbed/fault_injection.hpp"
#include "testbed/result_store.hpp"
#include "testbed/scenario.hpp"
#include "testbed/scenario_io.hpp"

namespace {

namespace fs = std::filesystem;

using ebrc::testbed::BatchRunner;
using ebrc::testbed::ExperimentResult;
using ebrc::testbed::ResultStore;
using ebrc::testbed::Scenario;
using ebrc::testbed::ShardSpec;
using ebrc::testbed::SweepReport;

Scenario short_ns2(std::uint64_t seed) {
  auto s = ebrc::testbed::ns2_scenario(1, 1, 8, seed);
  s.duration_s = 4.0;
  s.warmup_s = 1.0;
  return s;
}

/// A fresh directory under the system temp dir, removed on destruction.
struct TempDir {
  fs::path path;
  TempDir() {
    static std::atomic<int> counter{0};
    path = fs::temp_directory_path() /
           ("ebrc_result_store_test_" + std::to_string(::getpid()) + "_" +
            std::to_string(counter.fetch_add(1)));
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~TempDir() { fs::remove_all(path); }
};

void expect_bits(double a, double b, const char* what) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a), std::bit_cast<std::uint64_t>(b)) << what;
}

/// Full bitwise equality over every ExperimentResult field.
void expect_identical(const ExperimentResult& a, const ExperimentResult& b) {
  EXPECT_EQ(a.scenario_name, b.scenario_name);
  ASSERT_EQ(a.flows.size(), b.flows.size());
  for (std::size_t i = 0; i < a.flows.size(); ++i) {
    EXPECT_EQ(a.flows[i].kind, b.flows[i].kind);
    EXPECT_EQ(a.flows[i].flow_id, b.flows[i].flow_id);
    expect_bits(a.flows[i].throughput_pps, b.flows[i].throughput_pps, "throughput_pps");
    expect_bits(a.flows[i].p, b.flows[i].p, "p");
    expect_bits(a.flows[i].mean_rtt_s, b.flows[i].mean_rtt_s, "mean_rtt_s");
    expect_bits(a.flows[i].formula_rate, b.flows[i].formula_rate, "formula_rate");
    expect_bits(a.flows[i].normalized, b.flows[i].normalized, "normalized");
    expect_bits(a.flows[i].cov_theta_thetahat, b.flows[i].cov_theta_thetahat, "cov");
    expect_bits(a.flows[i].normalized_cov, b.flows[i].normalized_cov, "normalized_cov");
    EXPECT_EQ(a.flows[i].loss_events, b.flows[i].loss_events);
  }
  expect_bits(a.tfrc_throughput, b.tfrc_throughput, "tfrc_throughput");
  expect_bits(a.tcp_throughput, b.tcp_throughput, "tcp_throughput");
  expect_bits(a.tfrc_p, b.tfrc_p, "tfrc_p");
  expect_bits(a.tcp_p, b.tcp_p, "tcp_p");
  expect_bits(a.poisson_p, b.poisson_p, "poisson_p");
  expect_bits(a.tfrc_rtt, b.tfrc_rtt, "tfrc_rtt");
  expect_bits(a.tcp_rtt, b.tcp_rtt, "tcp_rtt");
  expect_bits(a.bottleneck_utilization, b.bottleneck_utilization, "bottleneck_utilization");
  expect_bits(a.breakdown.conservativeness, b.breakdown.conservativeness, "conservativeness");
  expect_bits(a.breakdown.loss_rate_ratio, b.breakdown.loss_rate_ratio, "loss_rate_ratio");
  expect_bits(a.breakdown.rtt_ratio, b.breakdown.rtt_ratio, "rtt_ratio");
  expect_bits(a.breakdown.tcp_formula_ratio, b.breakdown.tcp_formula_ratio,
              "tcp_formula_ratio");
  expect_bits(a.breakdown.friendliness, b.breakdown.friendliness, "friendliness");
  EXPECT_EQ(a.workload_active, b.workload_active);
  EXPECT_EQ(a.workload.arrivals, b.workload.arrivals);
  EXPECT_EQ(a.workload.completions, b.workload.completions);
  EXPECT_EQ(a.workload.rejections, b.workload.rejections);
  expect_bits(a.workload.mean_flows, b.workload.mean_flows, "wl.mean_flows");
  expect_bits(a.workload.mean_flows_tfrc, b.workload.mean_flows_tfrc, "wl.mean_flows_tfrc");
  expect_bits(a.workload.mean_flows_tcp, b.workload.mean_flows_tcp, "wl.mean_flows_tcp");
  EXPECT_EQ(a.workload.peak_flows, b.workload.peak_flows);
  expect_bits(a.workload.tfrc_completion_s, b.workload.tfrc_completion_s,
              "wl.tfrc_completion_s");
  expect_bits(a.workload.tcp_completion_s, b.workload.tcp_completion_s, "wl.tcp_completion_s");
  expect_bits(a.workload.tfrc_completion_cov, b.workload.tfrc_completion_cov,
              "wl.tfrc_completion_cov");
  expect_bits(a.workload.tcp_completion_cov, b.workload.tcp_completion_cov,
              "wl.tcp_completion_cov");
  expect_bits(a.workload.tfrc_goodput_pps, b.workload.tfrc_goodput_pps, "wl.tfrc_goodput_pps");
  expect_bits(a.workload.tcp_goodput_pps, b.workload.tcp_goodput_pps, "wl.tcp_goodput_pps");
  expect_bits(a.workload.tfrc_share, b.workload.tfrc_share, "wl.tfrc_share");
  expect_bits(a.workload.tfrc_p, b.workload.tfrc_p, "wl.tfrc_p");
  expect_bits(a.workload.tcp_p, b.workload.tcp_p, "wl.tcp_p");
}

TEST(ResultStore, HitIsBitIdenticalToFreshRun) {
  TempDir dir;
  ResultStore store(dir.path);
  const Scenario s = short_ns2(123);
  const ExperimentResult fresh = ebrc::testbed::run_experiment(s);
  store.store(s, fresh);

  const auto cached = store.load(s);
  ASSERT_TRUE(cached.has_value());
  expect_identical(fresh, *cached);
  const auto c = store.counters();
  EXPECT_EQ(c.hits, 1u);
  EXPECT_EQ(c.stored, 1u);
  EXPECT_EQ(c.corrupt, 0u);
}

TEST(ResultStore, CodecRoundTripsExactly) {
  const ExperimentResult fresh = ebrc::testbed::run_experiment(short_ns2(7));
  const auto decoded = ebrc::testbed::decode_result(ebrc::testbed::encode_result(fresh));
  ASSERT_TRUE(decoded.has_value());
  expect_identical(fresh, *decoded);
  EXPECT_FALSE(ebrc::testbed::decode_result("garbage").has_value());
  EXPECT_FALSE(ebrc::testbed::decode_result("").has_value());
}

TEST(ResultStore, MissesOnAnyPerturbation) {
  TempDir dir;
  ResultStore store(dir.path);
  const Scenario s = short_ns2(123);
  store.store(s, ebrc::testbed::run_experiment(s));

  Scenario seed_moved = s;
  seed_moved.seed += 1;
  EXPECT_FALSE(store.load(seed_moved).has_value());

  Scenario field_moved = s;
  field_moved.n_tcp += 1;
  EXPECT_FALSE(store.load(field_moved).has_value());

  Scenario tfrc_moved = s;
  tfrc_moved.tfrc.history_length += 1;
  EXPECT_FALSE(store.load(tfrc_moved).has_value());

  Scenario renamed = s;
  renamed.name += "-b";
  EXPECT_FALSE(store.load(renamed).has_value());

  // A different code-version salt must not see the old entry either.
  ResultStore salted(dir.path, ebrc::testbed::kResultCacheSalt + 1);
  EXPECT_FALSE(salted.load(s).has_value());
  EXPECT_EQ(store.counters().misses, 4u);
}

TEST(ResultStore, CorruptAndTruncatedEntriesReadAsMisses) {
  TempDir dir;
  ResultStore store(dir.path);
  const Scenario s = short_ns2(55);
  const ExperimentResult fresh = ebrc::testbed::run_experiment(s);
  store.store(s, fresh);
  const fs::path entry = store.path_for(s);
  ASSERT_TRUE(fs::exists(entry));
  ASSERT_TRUE(ebrc::testbed::validate_result_file(entry));

  // Truncation.
  const auto size = fs::file_size(entry);
  fs::resize_file(entry, size / 2);
  EXPECT_FALSE(store.load(s).has_value());
  EXPECT_FALSE(ebrc::testbed::validate_result_file(entry));

  // Flipped payload byte (restore full length first).
  store.store(s, fresh);
  {
    std::fstream f(entry, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(static_cast<std::streamoff>(size) - 3);
    f.put('\x5a');
  }
  EXPECT_FALSE(store.load(s).has_value());

  // Foreign file content.
  {
    std::ofstream f(entry, std::ios::binary | std::ios::trunc);
    f << "not a result file";
  }
  EXPECT_FALSE(store.load(s).has_value());
  EXPECT_EQ(store.counters().corrupt, 3u);

  // The batch path must fall back to re-simulation and repair the entry.
  SweepReport report;
  const auto out = BatchRunner(2).run({s}, &store, ShardSpec{}, &report);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(report.hits, 0u);
  EXPECT_EQ(report.simulated, 1u);
  expect_identical(fresh, out[0]);
  EXPECT_TRUE(ebrc::testbed::validate_result_file(entry));
  const auto healed = store.load(s);
  ASSERT_TRUE(healed.has_value());
  expect_identical(fresh, *healed);
}

TEST(ResultStore, BatchRunnerWarmCacheSimulatesNothing) {
  TempDir dir;
  ResultStore store(dir.path);
  const auto batch = ebrc::testbed::replicate(short_ns2(0), /*root_seed=*/42, /*reps=*/4);

  SweepReport cold;
  const auto first = BatchRunner(4).run(batch, &store, ShardSpec{}, &cold);
  EXPECT_EQ(cold.simulated, 4u);
  EXPECT_EQ(cold.hits, 0u);
  EXPECT_TRUE(cold.complete());

  SweepReport warm;
  const auto second = BatchRunner(4).run(batch, &store, ShardSpec{}, &warm);
  EXPECT_EQ(warm.simulated, 0u);
  EXPECT_EQ(warm.hits, 4u);
  EXPECT_TRUE(warm.complete());
  ASSERT_EQ(first.size(), second.size());
  for (std::size_t i = 0; i < first.size(); ++i) expect_identical(first[i], second[i]);
}

TEST(ResultStore, ShardedSweepMergesBitIdenticalForEveryShardCount) {
  // The acceptance bar of the sharding layer: for --shard-count in
  // {1, 2, 3, 8}, running every shard against a shared store and then
  // folding with an unsharded warm pass reproduces the direct unsharded
  // run bit-for-bit — per run and per aggregated metric.
  const auto batch = ebrc::testbed::replicate(short_ns2(0), /*root_seed=*/7, /*reps=*/8);
  const BatchRunner runner(4);
  const auto reference = runner.run(batch);
  const auto ref_agg = ebrc::testbed::aggregate(reference);

  for (const std::size_t count : {std::size_t{1}, std::size_t{2}, std::size_t{3},
                                  std::size_t{8}}) {
    TempDir dir;
    ResultStore store(dir.path);
    std::size_t simulated_total = 0;
    for (std::size_t index = 0; index < count; ++index) {
      SweepReport rep;
      const auto part = runner.run(batch, &store, ShardSpec(index, count), &rep);
      simulated_total += rep.simulated;
      // Shard-local cells are already bit-identical to the reference.
      for (std::size_t i = 0; i < batch.size(); ++i) {
        if (rep.available[i] != 0) expect_identical(reference[i], part[i]);
      }
    }
    // Every run simulated exactly once across all shards.
    EXPECT_EQ(simulated_total, batch.size()) << "shard count " << count;

    SweepReport merged_rep;
    const auto merged = runner.run(batch, &store, ShardSpec{}, &merged_rep);
    EXPECT_EQ(merged_rep.simulated, 0u) << "shard count " << count;
    EXPECT_EQ(merged_rep.hits, batch.size()) << "shard count " << count;
    ASSERT_TRUE(merged_rep.complete());
    for (std::size_t i = 0; i < batch.size(); ++i) expect_identical(reference[i], merged[i]);

    // And the aggregate folds to the same accumulators, bit for bit.
    const auto merged_agg = ebrc::testbed::aggregate(merged);
    EXPECT_EQ(merged_agg.runs, ref_agg.runs);
    ASSERT_EQ(merged_agg.metrics.size(), ref_agg.metrics.size());
    for (const auto& [name, m] : ref_agg.metrics) {
      const auto& other = merged_agg.metric(name);
      EXPECT_EQ(other.count(), m.count()) << name;
      expect_bits(other.mean(), m.mean(), name.c_str());
      expect_bits(other.m2(), m.m2(), name.c_str());
      expect_bits(other.min(), m.min(), name.c_str());
      expect_bits(other.max(), m.max(), name.c_str());
    }
  }
}

TEST(ResultStore, ColdShardRunReportsSkippedCells) {
  TempDir dir;
  ResultStore store(dir.path);
  const auto batch = ebrc::testbed::replicate(short_ns2(0), /*root_seed=*/9, /*reps=*/5);
  SweepReport rep;
  const auto out = BatchRunner(2).run(batch, &store, ShardSpec(0, 2), &rep);
  EXPECT_EQ(out.size(), 5u);
  EXPECT_EQ(rep.total, 5u);
  EXPECT_EQ(rep.simulated, 3u);  // cells 0, 2, 4
  EXPECT_EQ(rep.skipped, 2u);
  EXPECT_FALSE(rep.complete());
  EXPECT_EQ(rep.available[0], 1);
  EXPECT_EQ(rep.available[1], 0);
}

TEST(ResultStore, IndexAnswersWarmProbesWithoutFilesystemOps) {
  // The checkpoint-resume acceptance bar: against a 10^4-entry cache, the
  // INDEX sidecar answers presence in memory — absent keys cost ZERO
  // filesystem operations (no per-file stat storm), and only actual hits
  // read a file. Entries are canned results, not simulations: this test is
  // about the index, not the simulator.
  TempDir dir;
  constexpr std::uint64_t kEntries = 10'000;
  const ExperimentResult canned;  // payload content is irrelevant here
  {
    ResultStore writer(dir.path);
    for (std::uint64_t seed = 0; seed < kEntries; ++seed) {
      Scenario s = short_ns2(1);
      s.seed = seed;  // fingerprint excludes the seed: 10^4 distinct keys
      writer.store(s, canned);
    }
    EXPECT_EQ(writer.counters().stored, kEntries);
  }

  // A fresh store loads the index once at construction; probes after that
  // are pure memory lookups.
  ResultStore store(dir.path);
  for (std::uint64_t seed = 0; seed < kEntries; ++seed) {
    Scenario s = short_ns2(1);
    s.seed = seed;
    EXPECT_TRUE(store.probe(s));
  }
  EXPECT_EQ(store.counters().fs_probes, 0u);

  // 10^4 absent keys: all misses, still zero filesystem traffic.
  for (std::uint64_t seed = kEntries; seed < 2 * kEntries; ++seed) {
    Scenario s = short_ns2(1);
    s.seed = seed;
    EXPECT_FALSE(store.probe(s));
    EXPECT_FALSE(store.load(s).has_value());
  }
  auto c = store.counters();
  EXPECT_EQ(c.fs_probes, 0u);
  EXPECT_EQ(c.index_filtered, kEntries);
  EXPECT_EQ(c.misses, kEntries);

  // Only a real hit touches the filesystem — exactly once.
  Scenario present = short_ns2(1);
  present.seed = 123;
  EXPECT_TRUE(store.load(present).has_value());
  c = store.counters();
  EXPECT_EQ(c.fs_probes, 1u);
  EXPECT_EQ(c.hits, 1u);
}

TEST(ResultStore, TornIndexRecordIsDetectedAndRebuiltFromFilenames) {
  TempDir dir;
  const ExperimentResult canned;
  std::vector<Scenario> entries;
  for (std::uint64_t seed = 0; seed < 3; ++seed) {
    Scenario s = short_ns2(1);
    s.seed = seed;
    entries.push_back(s);
  }
  {
    ResultStore writer(dir.path);
    // The second index append (ordinal 1) crashes mid-record: only a prefix
    // of the 32-byte record reaches the file, shifting everything after it.
    ebrc::testbed::fault::arm({{ebrc::testbed::fault::Kind::kTornIndexRecord, 1, 0}});
    for (const auto& s : entries) writer.store(s, canned);
    ebrc::testbed::fault::disarm();
    // The torn append is non-fatal for the writer itself (its in-memory set
    // is intact); the defect bites the NEXT reader of the file.
    for (const auto& s : entries) EXPECT_TRUE(writer.probe(s));
    EXPECT_NE((fs::file_size(writer.index_path()) - 16) % 32, 0u);  // torn: misaligned
  }

  // A fresh store must refuse the torn index and rebuild from the entry
  // filenames: every stored key probes true again, and the rewritten index
  // is whole-record aligned.
  ResultStore store(dir.path);
  for (const auto& s : entries) {
    EXPECT_TRUE(store.probe(s));
    EXPECT_TRUE(store.load(s).has_value());
  }
  EXPECT_EQ(fs::file_size(store.index_path()), 16u + 3u * 32u);
  EXPECT_EQ(store.counters().corrupt, 0u);  // entries themselves untouched
}

TEST(ResultStore, TornCacheWriteIsQuarantinedWithForensicsFile) {
  TempDir dir;
  ResultStore store(dir.path);
  const Scenario s = short_ns2(77);
  const ExperimentResult fresh = ebrc::testbed::run_experiment(s);

  // The first store() write (ordinal 0) is torn in half right after the
  // atomic rename — the post-crash corruption a resumed sweep must survive.
  ebrc::testbed::fault::arm({{ebrc::testbed::fault::Kind::kTornCacheWrite, 0, 0}});
  store.store(s, fresh);
  ebrc::testbed::fault::disarm();
  const fs::path entry = store.path_for(s);
  ASSERT_TRUE(fs::exists(entry));
  EXPECT_FALSE(ebrc::testbed::validate_result_file(entry));

  // Loading diagnoses on stderr and moves the entry aside instead of
  // deleting it — *.corrupt is kept for forensics.
  testing::internal::CaptureStderr();
  EXPECT_FALSE(store.load(s).has_value());
  const std::string err = testing::internal::GetCapturedStderr();
  EXPECT_NE(err.find("[cache] quarantined"), std::string::npos) << err;
  EXPECT_FALSE(fs::exists(entry));
  fs::path forensics = entry;
  forensics += std::string(ebrc::testbed::quarantine_suffix());
  EXPECT_TRUE(fs::exists(forensics));
  auto c = store.counters();
  EXPECT_EQ(c.quarantined, 1u);
  EXPECT_EQ(c.corrupt, 1u);

  // Re-storing heals the cache; the forensics file stays.
  store.store(s, fresh);
  const auto healed = store.load(s);
  ASSERT_TRUE(healed.has_value());
  expect_identical(fresh, *healed);
  EXPECT_TRUE(fs::exists(forensics));
}

TEST(ResultStore, EntriesLandUnderFingerprintFanout) {
  TempDir dir;
  ResultStore store(dir.path);
  const Scenario s = short_ns2(3);
  const auto path = store.path_for(s);
  // <root>/<2 hex>/<fp16>-<seed16>-<salt16>.ebrcres
  EXPECT_EQ(path.parent_path().parent_path(), dir.path);
  EXPECT_EQ(path.parent_path().filename().string().size(), 2u);
  EXPECT_EQ(path.extension().string(), std::string(ebrc::testbed::result_file_extension()));
  const std::string stem = path.stem().string();
  EXPECT_EQ(stem.size(), 16u + 1 + 16u + 1 + 16u);
  EXPECT_EQ(stem.substr(0, 2), path.parent_path().filename().string());
}

}  // namespace
