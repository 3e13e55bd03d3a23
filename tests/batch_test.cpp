#include <gtest/gtest.h>
#include <unistd.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <set>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "stats/online.hpp"
#include "testbed/batch.hpp"
#include "testbed/experiment.hpp"
#include "testbed/wan_paths.hpp"
#include "util/binary_io.hpp"

namespace {

using ebrc::stats::OnlineMoments;
using ebrc::testbed::BatchRunner;
using ebrc::testbed::ExperimentResult;
using ebrc::testbed::Scenario;
using ebrc::testbed::ShardSpec;

Scenario short_ns2(std::uint64_t seed) {
  auto s = ebrc::testbed::ns2_scenario(1, 1, 8, seed);
  s.duration_s = 6.0;
  s.warmup_s = 1.0;
  return s;
}

void expect_identical(const ExperimentResult& a, const ExperimentResult& b) {
  EXPECT_EQ(a.scenario_name, b.scenario_name);
  ASSERT_EQ(a.flows.size(), b.flows.size());
  for (std::size_t i = 0; i < a.flows.size(); ++i) {
    EXPECT_EQ(a.flows[i].kind, b.flows[i].kind);
    EXPECT_EQ(a.flows[i].loss_events, b.flows[i].loss_events);
    // Bit-identical, not merely close: the thread count must not leak into
    // any run's sample path.
    EXPECT_DOUBLE_EQ(a.flows[i].throughput_pps, b.flows[i].throughput_pps);
    EXPECT_DOUBLE_EQ(a.flows[i].p, b.flows[i].p);
    EXPECT_DOUBLE_EQ(a.flows[i].mean_rtt_s, b.flows[i].mean_rtt_s);
    EXPECT_DOUBLE_EQ(a.flows[i].normalized, b.flows[i].normalized);
  }
  EXPECT_DOUBLE_EQ(a.tfrc_throughput, b.tfrc_throughput);
  EXPECT_DOUBLE_EQ(a.tcp_throughput, b.tcp_throughput);
  EXPECT_DOUBLE_EQ(a.bottleneck_utilization, b.bottleneck_utilization);
  EXPECT_DOUBLE_EQ(a.breakdown.friendliness, b.breakdown.friendliness);
  EXPECT_DOUBLE_EQ(a.breakdown.conservativeness, b.breakdown.conservativeness);
}

TEST(BatchRunner, JobCountDoesNotChangeResults) {
  // The acceptance bar of the batch engine: >= 8 replications of the ns-2
  // scenario, --jobs=8 bit-identical to --jobs=1.
  const auto batch = ebrc::testbed::replicate(short_ns2(0), /*root_seed=*/42, /*reps=*/8);
  const auto serial = BatchRunner(1).run(batch);
  const auto parallel = BatchRunner(8).run(batch);
  ASSERT_EQ(serial.size(), 8u);
  ASSERT_EQ(parallel.size(), 8u);
  for (std::size_t i = 0; i < serial.size(); ++i) expect_identical(serial[i], parallel[i]);
}

TEST(BatchRunner, ReplicationsUseDistinctDerivedSeeds) {
  const auto batch = ebrc::testbed::replicate(short_ns2(0), 42, 8);
  std::set<std::uint64_t> seeds;
  for (const auto& s : batch) seeds.insert(s.seed);
  EXPECT_EQ(seeds.size(), 8u);
  // Prefix property: asking for fewer replications yields the same leading
  // seeds, so growing a sweep never perturbs existing runs.
  const auto fewer = ebrc::testbed::replicate(short_ns2(0), 42, 3);
  for (std::size_t i = 0; i < fewer.size(); ++i) EXPECT_EQ(fewer[i].seed, batch[i].seed);
  // And a different root seed moves every replication.
  const auto other_root = ebrc::testbed::replicate(short_ns2(0), 43, 8);
  for (std::size_t i = 0; i < other_root.size(); ++i) {
    EXPECT_NE(other_root[i].seed, batch[i].seed);
  }
}

TEST(BatchRunner, MapPreservesIndexOrder) {
  BatchRunner runner(4);
  const auto out = runner.map<std::size_t>(100, [](std::size_t i) { return i * i; });
  ASSERT_EQ(out.size(), 100u);
  for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], i * i);
}

TEST(BatchRunner, PropagatesWorkerExceptions) {
  BatchRunner runner(4);
  const std::function<int(std::size_t)> boom = [](std::size_t i) -> int {
    if (i == 7) throw std::runtime_error("boom");
    return 0;
  };
  EXPECT_THROW((void)runner.map<int>(16, boom), std::runtime_error);
}

TEST(BatchRunner, ZeroJobsPicksHardwareConcurrency) {
  EXPECT_GE(BatchRunner(0).jobs(), 1u);
  EXPECT_EQ(BatchRunner(3).jobs(), 3u);
}

TEST(BatchResult, AggregatesMeanAndCi) {
  std::vector<ExperimentResult> runs(3);
  runs[0].breakdown.friendliness = 1.0;
  runs[1].breakdown.friendliness = 2.0;
  runs[2].breakdown.friendliness = 3.0;
  const auto agg = ebrc::testbed::aggregate(runs);
  EXPECT_EQ(agg.runs, 3u);
  EXPECT_DOUBLE_EQ(agg.mean("friendliness"), 2.0);
  EXPECT_DOUBLE_EQ(agg.metric("friendliness").stddev(), 1.0);
  EXPECT_NEAR(agg.ci("friendliness"), 1.96 / std::sqrt(3.0), 1e-12);
  EXPECT_THROW((void)agg.metric("no-such-metric"), std::out_of_range);
}

// ---- aggregate() golden ------------------------------------------------------
// Pins the summary metric key set and values: an FNV-1a over the sorted
// (name, count, mean bits) of aggregate() for one static ns-2 batch and one
// churn batch per controller. The roundtrip ctests compare one build's runs
// with each other, so a renamed, dropped or misrouted metric key would pass
// them; it cannot pass this. A mismatch means the summary schema changed.
// Each batch has two digests: `masked` leaves out the means of the kernel's
// own counts (`obs_kernel_*`, names and counts still folded), `full` folds
// every mean.

struct AggregateDigests {
  std::uint64_t masked;
  std::uint64_t full;
};

AggregateDigests aggregate_digests(const Scenario& base) {
  const auto runs = BatchRunner(2).run(ebrc::testbed::replicate(base, /*root_seed=*/11, 2));
  const auto agg = ebrc::testbed::aggregate(runs);
  ebrc::util::Fnv1a masked;
  ebrc::util::Fnv1a full;
  for (ebrc::util::Fnv1a* h : {&masked, &full}) h->u64(agg.runs);
  for (const auto& [name, m] : agg.metrics) {
    for (ebrc::util::Fnv1a* h : {&masked, &full}) {
      h->str(name);
      h->u64(m.count());
    }
    full.f64(m.mean());
    if (name.rfind("obs_kernel_", 0) != 0) masked.f64(m.mean());
  }
  return {masked.digest(), full.digest()};
}

Scenario churn_batch(const std::string& controller) {
  auto s = ebrc::testbed::churn_scenario(/*offered_load=*/0.9, /*tfrc_fraction=*/0.5, 0);
  s.name = "aggregate-golden-" + controller;
  s.workload.controller = controller;
  s.workload.max_concurrent = 32;
  s.duration_s = 8.0;
  s.warmup_s = 2.0;
  return s;
}

#define EXPECT_AGGREGATE(scenario, masked_golden, full_golden)                           \
  do {                                                                                   \
    const AggregateDigests d = aggregate_digests(scenario);                              \
    EXPECT_EQ(d.masked, masked_golden) << std::hex << "masked digest 0x" << d.masked     \
                                       << ", golden 0x" << (masked_golden);              \
    EXPECT_EQ(d.full, full_golden) << std::hex << "full digest 0x" << d.full             \
                                   << ", golden 0x" << (full_golden);                    \
  } while (0)

TEST(AggregateGolden, StaticNs2Batch) {
  EXPECT_AGGREGATE(short_ns2(0), 0x93afc7ccef99ab45ull, 0xf0027f018deadaeaull);
}

TEST(AggregateGolden, ChurnBatchPerController) {
  EXPECT_AGGREGATE(churn_batch("tfrc"), 0xbea890cb4e28125full, 0x329458ace3542966ull);
  EXPECT_AGGREGATE(churn_batch("tcp"), 0xf09d7052029454a3ull, 0x1cf96094f1bf9ab3ull);
  EXPECT_AGGREGATE(churn_batch("delay_aimd"), 0x41ce72511bae795eull, 0xbaac9c771794d330ull);
  EXPECT_AGGREGATE(churn_batch("rcp"), 0x971464d299cee286ull, 0x2bb8831ab0cded12ull);
}

// aggregate() folds obs entries by position and checks each entry's name
// against the slot it cached; this batch breaks the position match every way
// a real mix can (two kinds of result, a missing entry, a reordered pair),
// and every accumulator must still equal a plain by-name fold, bit for bit.
TEST(AggregateObs, MixedSnapshotsMatchAByNameFold) {
  const ExperimentResult ns2 = ebrc::testbed::run_experiment(short_ns2(5));
  const ExperimentResult churn = ebrc::testbed::run_experiment(churn_batch("tcp"));
  ASSERT_GE(ns2.obs.size(), 3u);
  ASSERT_GE(churn.obs.size(), 3u);
  ASSERT_NE(ns2.obs, churn.obs);
  ExperimentResult missing = ns2;
  missing.obs.erase(missing.obs.begin() + 1);
  ExperimentResult reordered = churn;
  std::swap(reordered.obs[0], reordered.obs[2]);
  const std::vector<ExperimentResult> runs = {ns2, churn, missing, ns2, reordered, churn};

  // Reference: the scalar fields through aggregate() without any obs, and
  // every obs entry added under "obs_<name>" in result order.
  std::vector<ExperimentResult> bare = runs;
  for (auto& r : bare) r.obs.clear();
  auto reference = ebrc::testbed::aggregate(bare).metrics;
  for (const auto& r : runs) {
    for (const auto& [name, v] : r.obs) reference["obs_" + name].add(v);
  }

  const auto agg = ebrc::testbed::aggregate(runs);
  EXPECT_EQ(agg.runs, runs.size());
  ASSERT_EQ(agg.metrics.size(), reference.size());
  for (const auto& [name, want] : reference) {
    const auto& got = agg.metric(name);
    EXPECT_EQ(got.count(), want.count()) << name;
    for (const auto& [what, a, b] :
         {std::tuple{"mean", got.mean(), want.mean()}, std::tuple{"m2", got.m2(), want.m2()},
          std::tuple{"min", got.min(), want.min()}, std::tuple{"max", got.max(), want.max()}}) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(a), std::bit_cast<std::uint64_t>(b))
          << name << " " << what;
    }
  }
}

TEST(ReplicatePaired, SharesSeedsWithinPairsDistinctAcrossReps) {
  Scenario a = short_ns2(0);
  a.name = "arm-a";
  Scenario b = short_ns2(0);
  b.name = "arm-b";
  b.n_tcp = 2;
  const auto paired = ebrc::testbed::replicate_paired(a, b, "contrast", 9, 5);
  ASSERT_EQ(paired.a.size(), 5u);
  ASSERT_EQ(paired.b.size(), 5u);
  std::set<std::uint64_t> seeds;
  for (std::size_t i = 0; i < paired.a.size(); ++i) {
    EXPECT_EQ(paired.a[i].seed, paired.b[i].seed);
    seeds.insert(paired.a[i].seed);
    EXPECT_EQ(paired.a[i].n_tcp, 1);  // configs survive, only seeds assigned
    EXPECT_EQ(paired.b[i].n_tcp, 2);
  }
  EXPECT_EQ(seeds.size(), 5u);
  // The seed derivation keys on the pair tag, not either arm's name.
  Scenario renamed = a;
  renamed.name = "renamed";
  const auto again = ebrc::testbed::replicate_paired(renamed, b, "contrast", 9, 5);
  for (std::size_t i = 0; i < 5u; ++i) EXPECT_EQ(again.a[i].seed, paired.a[i].seed);
  EXPECT_THROW((void)ebrc::testbed::replicate_paired(a, b, "contrast", 9, 0),
               std::invalid_argument);
  EXPECT_THROW((void)ebrc::testbed::replicate_paired(a, b, "", 9, 2), std::invalid_argument);
}

TEST(PairedDifference, ExactAlgebraOnSyntheticRuns) {
  // Construct per-pair results whose difference is a known constant plus a
  // pair-specific common term: the paired fold must see EXACTLY the
  // constant with a zero-width interval, while the unpaired CIs are wide.
  std::vector<ExperimentResult> a(4), b(4);
  for (std::size_t i = 0; i < 4; ++i) {
    const double common = static_cast<double>(i) * 10.0;  // shared noise
    a[i].tfrc_throughput = common + 3.0;
    b[i].tfrc_throughput = common;
    a[i].bottleneck_utilization = 0.9;
    b[i].bottleneck_utilization = 0.8;
  }
  const auto diff = ebrc::testbed::paired_difference(a, b);
  EXPECT_EQ(diff.runs, 4u);
  EXPECT_DOUBLE_EQ(diff.mean("tfrc_throughput"), 3.0);
  EXPECT_DOUBLE_EQ(diff.ci("tfrc_throughput"), 0.0);  // noise cancelled exactly
  EXPECT_NEAR(diff.mean("bottleneck_utilization"), 0.1, 1e-12);
  const auto unpaired = ebrc::testbed::aggregate(a).metric("tfrc_throughput");
  EXPECT_GT(unpaired.ci_halfwidth(), 1.0) << "the common term must dominate unpaired spread";
  EXPECT_THROW((void)ebrc::testbed::paired_difference(a, std::vector<ExperimentResult>(3)),
               std::invalid_argument);
}

TEST(Replicate, RejectsNonPositiveReps) {
  EXPECT_THROW((void)ebrc::testbed::replicate(short_ns2(0), 1, 0), std::invalid_argument);
}

TEST(ScenarioFactories, EveryFactoryConstructsAndRuns) {
  // Every scenario factory the figure binaries build batches from
  // constructs and completes a short horizon through the batch engine.
  using ebrc::testbed::QueueKind;
  std::vector<Scenario> batch{
      ebrc::testbed::ns2_scenario(1, 1, 8, /*seed=*/7),
      ebrc::testbed::lab_scenario(QueueKind::kDropTail, 64, 1, 7),
      ebrc::testbed::lab_scenario(QueueKind::kDropTail, 100, 1, 7),
      ebrc::testbed::lab_scenario(QueueKind::kRed, 100, 1, 7),
      ebrc::testbed::churn_scenario(0.85, 0.5, 7),
      ebrc::testbed::churn_scenario(1.2, 0.5, 7),
  };
  for (const auto& path : ebrc::testbed::table1_paths()) {
    batch.push_back(ebrc::testbed::wan_scenario(path, 1, 7));
  }
  ASSERT_GE(batch.size(), 8u);
  for (auto& s : batch) {
    s.duration_s = 4.0;
    s.warmup_s = 1.0;
  }
  const auto results = BatchRunner(4).run(batch);
  ASSERT_EQ(results.size(), batch.size());
  for (const auto& r : results) {
    EXPECT_FALSE(r.scenario_name.empty());
    if (r.workload_active) {
      // Churn scenarios carry no static flows; their population is dynamic.
      EXPECT_GT(r.workload.arrivals + r.workload.rejections, 0u);
    } else {
      EXPECT_FALSE(r.flows.empty());
    }
    EXPECT_GT(r.bottleneck_utilization, 0.0);
  }
}

// ---- shard partitioning ------------------------------------------------------

TEST(ShardSpec, RejectsOutOfRangeIndexWithClearMessage) {
  try {
    (void)ShardSpec(2, 2);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("--shard-index"), std::string::npos);
    EXPECT_NE(msg.find("--shard-count"), std::string::npos);
    EXPECT_NE(msg.find("2"), std::string::npos);
  }
  EXPECT_THROW((void)ShardSpec(0, 0), std::invalid_argument);
  EXPECT_NO_THROW((void)ShardSpec(0, 1));
  EXPECT_NO_THROW((void)ShardSpec(7, 8));
}

TEST(ShardSpec, ShardsPartitionEveryIndexExactlyOnce) {
  for (const std::size_t count : {std::size_t{1}, std::size_t{2}, std::size_t{3},
                                  std::size_t{8}}) {
    for (std::size_t i = 0; i < 100; ++i) {
      std::size_t owners = 0;
      for (std::size_t index = 0; index < count; ++index) {
        if (ShardSpec(index, count).owns(i)) ++owners;
      }
      EXPECT_EQ(owners, 1u) << "index " << i << " count " << count;
    }
  }
  EXPECT_TRUE(ShardSpec{}.whole());
  EXPECT_FALSE(ShardSpec(0, 2).whole());
}

// ---- merge algebra -----------------------------------------------------------

/// Deterministic value stream for the algebra checks.
std::vector<double> algebra_samples(std::size_t n, std::uint64_t seed) {
  std::vector<double> out;
  out.reserve(n);
  std::uint64_t x = seed;
  for (std::size_t i = 0; i < n; ++i) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    // Spread across magnitudes and signs.
    out.push_back((static_cast<double>(x >> 11) * 0x1.0p-53 - 0.5) *
                  static_cast<double>(1 + (x % 1000)));
  }
  return out;
}

OnlineMoments accumulate(const std::vector<double>& xs) {
  OnlineMoments m;
  for (double x : xs) m.add(x);
  return m;
}

void expect_bits(double a, double b, const char* what) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a), std::bit_cast<std::uint64_t>(b)) << what;
}

TEST(OnlineMomentsMerge, CommutativeAndExactOnCountMinMax) {
  const auto xs = algebra_samples(64, 1);
  const auto ys = algebra_samples(41, 2);
  auto ab = accumulate(xs);
  ab.merge(accumulate(ys));
  auto ba = accumulate(ys);
  ba.merge(accumulate(xs));

  EXPECT_EQ(ab.count(), 105u);
  EXPECT_EQ(ab.count(), ba.count());
  expect_bits(ab.min(), ba.min(), "min");
  expect_bits(ab.max(), ba.max(), "max");
  // Mean and variance are mathematically symmetric; allow only rounding.
  EXPECT_NEAR(ab.mean(), ba.mean(), 1e-12 * std::abs(ab.mean()) + 1e-300);
  EXPECT_NEAR(ab.variance(), ba.variance(), 1e-9 * ab.variance() + 1e-300);
}

TEST(OnlineMomentsMerge, AssociativeUpToRounding) {
  const auto xs = algebra_samples(30, 3);
  const auto ys = algebra_samples(50, 4);
  const auto zs = algebra_samples(17, 5);
  auto left = accumulate(xs);
  left.merge(accumulate(ys));
  left.merge(accumulate(zs));
  auto right_tail = accumulate(ys);
  right_tail.merge(accumulate(zs));
  auto right = accumulate(xs);
  right.merge(right_tail);

  EXPECT_EQ(left.count(), right.count());
  expect_bits(left.min(), right.min(), "min");
  expect_bits(left.max(), right.max(), "max");
  EXPECT_NEAR(left.mean(), right.mean(), 1e-12 * std::abs(left.mean()) + 1e-300);
  EXPECT_NEAR(left.variance(), right.variance(), 1e-9 * left.variance() + 1e-300);

  // And both agree with the single-pass accumulation over everything.
  std::vector<double> all;
  all.insert(all.end(), xs.begin(), xs.end());
  all.insert(all.end(), ys.begin(), ys.end());
  all.insert(all.end(), zs.begin(), zs.end());
  const auto direct = accumulate(all);
  EXPECT_EQ(left.count(), direct.count());
  EXPECT_NEAR(left.mean(), direct.mean(), 1e-12 * std::abs(direct.mean()) + 1e-300);
  EXPECT_NEAR(left.variance(), direct.variance(), 1e-9 * direct.variance() + 1e-300);
}

TEST(OnlineMomentsMerge, EmptySidesAreExactIdentities) {
  const auto xs = algebra_samples(23, 6);
  const auto reference = accumulate(xs);

  auto into_empty = OnlineMoments{};
  into_empty.merge(reference);
  EXPECT_EQ(into_empty.count(), reference.count());
  expect_bits(into_empty.mean(), reference.mean(), "mean");
  expect_bits(into_empty.m2(), reference.m2(), "m2");

  auto with_empty = reference;
  with_empty.merge(OnlineMoments{});
  EXPECT_EQ(with_empty.count(), reference.count());
  expect_bits(with_empty.mean(), reference.mean(), "mean");
  expect_bits(with_empty.m2(), reference.m2(), "m2");
}

TEST(BatchResult, MergeBatchResultsFoldsRunsAndMetrics) {
  ebrc::testbed::BatchResult a, b;
  a.runs = 3;
  a.metrics["friendliness"] = accumulate({1.0, 2.0, 3.0});
  a.metrics["only_in_a"] = accumulate({5.0});
  b.runs = 2;
  b.metrics["friendliness"] = accumulate({4.0, 5.0});
  const auto merged = ebrc::testbed::merge_batch_results({a, b});
  EXPECT_EQ(merged.runs, 5u);
  EXPECT_EQ(merged.metric("friendliness").count(), 5u);
  EXPECT_NEAR(merged.mean("friendliness"), 3.0, 1e-12);
  EXPECT_EQ(merged.metric("only_in_a").count(), 1u);
  EXPECT_DOUBLE_EQ(merged.metric("friendliness").min(), 1.0);
  EXPECT_DOUBLE_EQ(merged.metric("friendliness").max(), 5.0);
}

TEST(BatchResult, SummaryFileRoundTripIsExact) {
  namespace fs = std::filesystem;
  ebrc::testbed::BatchResult r;
  r.runs = 4;
  // Values chosen to stress shortest-round-trip formatting.
  r.metrics["alpha"] = accumulate({0.1, 1.0 / 3.0, -0.0, 1e-300});
  r.metrics["beta"] = accumulate(algebra_samples(64, 9));
  const fs::path path =
      fs::temp_directory_path() / ("ebrc_batch_summary_" + std::to_string(::getpid()) + ".txt");
  ebrc::testbed::save_batch_result(r, path);
  const auto back = ebrc::testbed::load_batch_result(path);
  EXPECT_EQ(back.runs, r.runs);
  ASSERT_EQ(back.metrics.size(), r.metrics.size());
  for (const auto& [name, m] : r.metrics) {
    const auto& o = back.metric(name);
    EXPECT_EQ(o.count(), m.count()) << name;
    expect_bits(o.mean(), m.mean(), name.c_str());
    expect_bits(o.m2(), m.m2(), name.c_str());
    expect_bits(o.min(), m.min(), name.c_str());
    expect_bits(o.max(), m.max(), name.c_str());
  }
  fs::remove(path);

  // Malformed inputs fail loudly.
  const fs::path bad =
      fs::temp_directory_path() / ("ebrc_batch_summary_bad_" + std::to_string(::getpid()));
  {
    std::ofstream f(bad);
    f << "not a summary\n";
  }
  EXPECT_THROW((void)ebrc::testbed::load_batch_result(bad), std::invalid_argument);
  {
    std::ofstream f(bad, std::ios::trunc);
    f << "ebrc-batch-result v1\nruns abc\n";
  }
  EXPECT_THROW((void)ebrc::testbed::load_batch_result(bad), std::invalid_argument);
  {
    std::ofstream f(bad, std::ios::trunc);
    f << "ebrc-batch-result v1\nruns 2\nmetric m 1 0.5 0.0 0.5 0.5\nmetric m 1 0.5 0.0 0.5 0.5\n";
  }
  EXPECT_THROW((void)ebrc::testbed::load_batch_result(bad), std::invalid_argument);
  fs::remove(bad);
  EXPECT_THROW((void)ebrc::testbed::load_batch_result(bad), std::runtime_error);
}

}  // namespace
