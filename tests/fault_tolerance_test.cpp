// The fault-tolerant sweep execution layer, proven by injection:
//   * keep_going isolates K injected cell failures — every healthy cell
//     completes bit-identical to a fault-free run and the failure manifest
//     lists exactly the K injected cells,
//   * retries reuse the cell's unchanged seed, so a recovered transient
//     fault is bit-identical to a run that never failed (CRN preserved),
//   * a resumed sweep over the same store simulates ONLY the failed cells
//     and converges to bitwise equality with a clean cold run,
//   * an in-process hang is preempted by the simulator's cooperative
//     deadline poll and captured as a timed_out CellFailure,
//   * fail-fast (the default) rethrows with the cell named,
//   * the --inject-faults spec parser and the failure-manifest file format
//     round-trip and reject malformed input; a fixed-seed mutation fuzzer
//     holds the spec parser to reject-or-round-trip,
//   * --isolate=process: bit-identity with the in-process run, crash / hang /
//     oom containment, one persistent worker per pool thread (respawned
//     after a death), and concurrent isolated sweeps in one process.
#include <gtest/gtest.h>

#include <signal.h>

#include <bit>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "test_support.hpp"
#include "testbed/batch.hpp"
#include "testbed/experiment.hpp"
#include "testbed/fault_injection.hpp"
#include "testbed/result_store.hpp"
#include "testbed/scenario.hpp"
#include "testbed/scenario_io.hpp"

namespace {

namespace fs = std::filesystem;

using ebrc::testbed::BatchRunner;
using ebrc::testbed::CellFailure;
using ebrc::testbed::ExperimentResult;
using ebrc::testbed::ResultStore;
using ebrc::testbed::RunPolicy;
using ebrc::testbed::Scenario;
using ebrc::testbed::ShardSpec;
using ebrc::testbed::SweepReport;
namespace fault = ebrc::testbed::fault;

Scenario short_ns2(std::uint64_t seed) {
  auto s = ebrc::testbed::ns2_scenario(1, 1, 8, seed);
  s.duration_s = 4.0;
  s.warmup_s = 1.0;
  return s;
}

/// Disarms the process-wide injection plan on scope exit, so a failing
/// assertion can never leak an armed plan into the next test.
struct FaultGuard {
  ~FaultGuard() { fault::disarm(); }
};

using ebrc::testing::TempDir;

void expect_bits(double a, double b, const char* what) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a), std::bit_cast<std::uint64_t>(b)) << what;
}

/// Spot-check bitwise equality on the fields that would drift first if a
/// retry or resume perturbed the sample path (result_store_test carries the
/// exhaustive field-by-field comparator).
void expect_same_run(const ExperimentResult& a, const ExperimentResult& b) {
  EXPECT_EQ(a.scenario_name, b.scenario_name);
  expect_bits(a.tfrc_throughput, b.tfrc_throughput, "tfrc_throughput");
  expect_bits(a.tcp_throughput, b.tcp_throughput, "tcp_throughput");
  expect_bits(a.tfrc_p, b.tfrc_p, "tfrc_p");
  expect_bits(a.breakdown.friendliness, b.breakdown.friendliness, "friendliness");
  ASSERT_EQ(a.flows.size(), b.flows.size());
  for (std::size_t i = 0; i < a.flows.size(); ++i) {
    expect_bits(a.flows[i].throughput_pps, b.flows[i].throughput_pps, "flow throughput");
    EXPECT_EQ(a.flows[i].loss_events, b.flows[i].loss_events);
  }
}

TEST(FaultInjection, PlanSpecParsesAndRejectsMalformedInput) {
  const auto plan =
      fault::parse_plan("throw@3,throw@7:1,hang@5:*,torn-cache@0;torn-index@2");
  ASSERT_EQ(plan.size(), 5u);
  EXPECT_EQ(plan[0].kind, fault::Kind::kThrow);
  EXPECT_EQ(plan[0].key, 3u);
  EXPECT_EQ(plan[0].attempt, 0);
  EXPECT_EQ(plan[1].kind, fault::Kind::kThrow);
  EXPECT_EQ(plan[1].key, 7u);
  EXPECT_EQ(plan[1].attempt, 1);
  EXPECT_EQ(plan[2].kind, fault::Kind::kHang);
  EXPECT_EQ(plan[2].attempt, fault::kEveryAttempt);
  EXPECT_EQ(plan[3].kind, fault::Kind::kTornCacheWrite);
  EXPECT_EQ(plan[4].kind, fault::Kind::kTornIndexRecord);
  EXPECT_EQ(plan[4].key, 2u);

  const auto process_plan = fault::parse_plan("crash@1:*,hang@2,oom@4:1");
  ASSERT_EQ(process_plan.size(), 3u);
  EXPECT_EQ(process_plan[0].kind, fault::Kind::kCrash);
  EXPECT_EQ(process_plan[0].key, 1u);
  EXPECT_EQ(process_plan[0].attempt, fault::kEveryAttempt);
  EXPECT_EQ(process_plan[1].kind, fault::Kind::kHang);
  EXPECT_EQ(process_plan[1].attempt, 0);
  EXPECT_EQ(process_plan[2].kind, fault::Kind::kOomStorm);
  EXPECT_EQ(process_plan[2].attempt, 1);

  EXPECT_THROW((void)fault::parse_plan(""), std::invalid_argument);
  EXPECT_THROW((void)fault::parse_plan("explode@1"), std::invalid_argument);
  EXPECT_THROW((void)fault::parse_plan("timeout@5"), std::invalid_argument);
  EXPECT_THROW((void)fault::parse_plan("throw"), std::invalid_argument);
  EXPECT_THROW((void)fault::parse_plan("throw@"), std::invalid_argument);
  EXPECT_THROW((void)fault::parse_plan("throw@x"), std::invalid_argument);
  EXPECT_THROW((void)fault::parse_plan("throw@1:"), std::invalid_argument);
  // An attempt above INT_MAX is rejected, not wrapped into another attempt.
  EXPECT_THROW((void)fault::parse_plan("throw@1:4294967295"), std::invalid_argument);
  EXPECT_THROW((void)fault::parse_plan("throw@1:2147483648"), std::invalid_argument);
  EXPECT_THROW((void)fault::parse_plan("hang@3:8589934593"), std::invalid_argument);
  // Torn kinds fire by ordinal, not attempt — an attempt suffix is an error.
  EXPECT_THROW((void)fault::parse_plan("torn-cache@0:1"), std::invalid_argument);
  EXPECT_THROW((void)fault::parse_plan("torn-index@0:*"), std::invalid_argument);
}

TEST(FaultInjection, FireMatchesKeyAndAttempt) {
  FaultGuard guard;
  fault::arm({{fault::Kind::kThrow, 2, 0},
              {fault::Kind::kThrow, 5, fault::kEveryAttempt},
              {fault::Kind::kTornCacheWrite, 1, 0}});
  EXPECT_TRUE(fault::armed());
  EXPECT_FALSE(fault::fire(fault::Kind::kThrow, 0, 0));  // wrong key
  EXPECT_FALSE(fault::fire(fault::Kind::kThrow, 2, 1));  // wrong attempt
  EXPECT_TRUE(fault::fire(fault::Kind::kThrow, 2, 0));
  EXPECT_TRUE(fault::fire(fault::Kind::kThrow, 5, 0));  // every attempt
  EXPECT_TRUE(fault::fire(fault::Kind::kThrow, 5, 3));
  EXPECT_FALSE(fault::fire(fault::Kind::kHang, 2, 0));  // wrong kind
  EXPECT_TRUE(fault::fire(fault::Kind::kTornCacheWrite, 1));

  fault::disarm();
  EXPECT_FALSE(fault::armed());
  EXPECT_FALSE(fault::fire(fault::Kind::kThrow, 2, 0));
}

/// The canonical `kind@key[:attempt]` form of a parsed plan: every
/// cell-keyed token spells its attempt out (`*` for every attempt).
std::string render_plan(const std::vector<fault::Injection>& plan) {
  std::string out;
  for (const auto& inj : plan) {
    if (!out.empty()) out += ',';
    bool cell_keyed = true;
    switch (inj.kind) {
      case fault::Kind::kThrow: out += "throw"; break;
      case fault::Kind::kCrash: out += "crash"; break;
      case fault::Kind::kHang: out += "hang"; break;
      case fault::Kind::kOomStorm: out += "oom"; break;
      case fault::Kind::kTornCacheWrite: out += "torn-cache"; cell_keyed = false; break;
      case fault::Kind::kTornIndexRecord: out += "torn-index"; cell_keyed = false; break;
    }
    out += '@' + std::to_string(inj.key);
    if (cell_keyed) {
      out += ':';
      out += inj.attempt == fault::kEveryAttempt ? "*" : std::to_string(inj.attempt);
    }
  }
  return out;
}

TEST(FaultInjection, PlanSpecFuzz) {
  // Valid seeds, including attempts and keys at the edge of their range, so
  // a few digit inserts reach values that no longer fit.
  const std::vector<std::string> seeds = {
      "throw@3,throw@7:1,crash@1:*,hang@2:*,oom@4,torn-cache@0;torn-index@2",
      "hang@2147483647:2147483647",
      "oom@18446744073709551615:0, throw@0:*",
      "torn-index@9;crash@12:3",
  };
  static constexpr char kAlphabet[] = "0123456789@:*,; -+xtc";
  ebrc::testing::MutationRng rng(0x5eed'fa17'0000'0001ull);

  std::size_t accepted = 0;
  for (int m = 0; m < 20000; ++m) {
    std::string spec = seeds[rng.below(seeds.size())];
    for (std::size_t r = 1 + rng.below(4); r > 0; --r) {
      switch (rng.below(4)) {
        case 0: rng.flip_bit(spec); break;
        case 1:  // one byte, biased to the plan syntax
          rng.insert(spec, 1,
                     rng.below(4) == 0 ? static_cast<char>(rng.below(256))
                                       : kAlphabet[rng.below(sizeof(kAlphabet) - 1)]);
          break;
        case 2: rng.truncate(spec); break;
        default: {  // splice, drawing the seed's tail before the cut
          const std::string& other = seeds[rng.below(seeds.size())];
          const std::size_t from = rng.below(other.size() + 1);
          spec = spec.substr(0, rng.below(spec.size() + 1)) + other.substr(from);
          break;
        }
      }
    }

    std::vector<fault::Injection> plan;
    try {
      plan = fault::parse_plan(spec);
    } catch (const std::invalid_argument&) {
      continue;  // any other exception type fails the test
    }
    ++accepted;
    for (const auto& inj : plan) {
      // In [kEveryAttempt, INT_MAX]; the upper bound holds by type.
      ASSERT_GE(inj.attempt, fault::kEveryAttempt) << spec;
      if (inj.kind == fault::Kind::kTornCacheWrite || inj.kind == fault::Kind::kTornIndexRecord) {
        ASSERT_EQ(inj.attempt, 0) << spec;
      }
    }
    const std::string canonical = render_plan(plan);
    const auto again = fault::parse_plan(canonical);
    ASSERT_EQ(again.size(), plan.size()) << spec << " -> " << canonical;
    for (std::size_t i = 0; i < plan.size(); ++i) {
      ASSERT_EQ(again[i].kind, plan[i].kind) << spec << " -> " << canonical;
      ASSERT_EQ(again[i].key, plan[i].key) << spec << " -> " << canonical;
      ASSERT_EQ(again[i].attempt, plan[i].attempt) << spec << " -> " << canonical;
    }
  }
  // The mutants must exercise both outcomes, or the oracle proves little.
  EXPECT_GT(accepted, 1000u);
  EXPECT_LT(accepted, 20000u);
}

TEST(FaultTolerance, KeepGoingIsolatesInjectedFailures) {
  FaultGuard guard;
  const auto batch = ebrc::testbed::replicate(short_ns2(0), /*root_seed=*/11, /*reps=*/6);
  const BatchRunner runner(3);
  const auto reference = runner.run(batch);  // faults disarmed: clean baseline

  // Two persistently failing cells; the other four must complete untouched.
  fault::arm({{fault::Kind::kThrow, 1, fault::kEveryAttempt},
              {fault::Kind::kThrow, 4, fault::kEveryAttempt}});
  RunPolicy policy;
  policy.keep_going = true;
  SweepReport rep;
  const auto out = runner.run(batch, nullptr, ShardSpec{}, &rep, policy);

  EXPECT_EQ(rep.failed, 2u);
  EXPECT_EQ(rep.simulated, 4u);
  EXPECT_EQ(rep.timed_out, 0u);
  EXPECT_FALSE(rep.complete());
  ASSERT_EQ(rep.failures.size(), 2u);
  EXPECT_EQ(rep.failures[0].index, 1u);  // manifest is index-ordered
  EXPECT_EQ(rep.failures[1].index, 4u);
  for (const auto& f : rep.failures) {
    EXPECT_EQ(f.scenario, batch[f.index].name);
    EXPECT_EQ(f.seed, batch[f.index].seed);
    EXPECT_EQ(f.attempts, 1);
    EXPECT_NE(f.what.find("injected fault"), std::string::npos) << f.what;
    EXPECT_EQ(rep.available[f.index], 0);
  }
  for (std::size_t i = 0; i < batch.size(); ++i) {
    if (i == 1 || i == 4) continue;
    EXPECT_EQ(rep.available[i], 1);
    expect_same_run(reference[i], out[i]);
  }
}

TEST(FaultTolerance, RetryRecoversTransientFaultBitIdentically) {
  FaultGuard guard;
  const auto batch = ebrc::testbed::replicate(short_ns2(0), /*root_seed=*/13, /*reps=*/3);
  const BatchRunner runner(2);
  const auto reference = runner.run(batch);

  // Attempt 0 of cell 2 throws; attempt 1 (same seed) must succeed and
  // reproduce the fault-free run exactly — retries never perturb seeds.
  fault::arm({{fault::Kind::kThrow, 2, /*attempt=*/0}});
  RunPolicy policy;
  policy.max_retries = 1;
  SweepReport rep;
  const auto out = runner.run(batch, nullptr, ShardSpec{}, &rep, policy);

  EXPECT_EQ(rep.failed, 0u);
  EXPECT_EQ(rep.retried, 1u);
  EXPECT_EQ(rep.simulated, batch.size());
  EXPECT_TRUE(rep.complete());
  for (std::size_t i = 0; i < batch.size(); ++i) expect_same_run(reference[i], out[i]);
}

TEST(FaultTolerance, ResumeConvergesToCleanColdRun) {
  FaultGuard guard;
  TempDir dir;
  const auto batch = ebrc::testbed::replicate(short_ns2(0), /*root_seed=*/17, /*reps=*/6);
  const BatchRunner runner(3);
  const auto reference = runner.run(batch);

  // Faulted first pass: cells 1 and 3 fail, the rest land in the store.
  ResultStore store(dir.path / "cache");
  fault::arm({{fault::Kind::kThrow, 1, fault::kEveryAttempt},
              {fault::Kind::kThrow, 3, fault::kEveryAttempt}});
  RunPolicy policy;
  policy.keep_going = true;
  SweepReport faulted;
  (void)runner.run(batch, &store, ShardSpec{}, &faulted, policy);
  EXPECT_EQ(faulted.failed, 2u);
  EXPECT_EQ(faulted.simulated, 4u);
  EXPECT_FALSE(faulted.complete());

  // Resume with the cause fixed: ONLY the failed cells simulate, and the
  // final sweep is bitwise equal to a clean cold run.
  fault::disarm();
  SweepReport resumed;
  const auto out = runner.run(batch, &store, ShardSpec{}, &resumed, policy);
  EXPECT_EQ(resumed.hits, 4u);
  EXPECT_EQ(resumed.simulated, 2u);
  EXPECT_EQ(resumed.failed, 0u);
  EXPECT_TRUE(resumed.complete());
  for (std::size_t i = 0; i < batch.size(); ++i) expect_same_run(reference[i], out[i]);

  // A fully warm pass touches nothing.
  SweepReport warm;
  (void)runner.run(batch, &store, ShardSpec{}, &warm, policy);
  EXPECT_EQ(warm.hits, batch.size());
  EXPECT_EQ(warm.simulated, 0u);
}

TEST(FaultTolerance, FailFastNamesTheFailingCell) {
  FaultGuard guard;
  const auto batch = ebrc::testbed::replicate(short_ns2(0), /*root_seed=*/23, /*reps=*/3);
  fault::arm({{fault::Kind::kThrow, 1, fault::kEveryAttempt}});
  try {
    (void)BatchRunner(2).run(batch);  // default policy: fail fast
    FAIL() << "expected the injected fault to abort the run";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("sweep cell #1"), std::string::npos) << what;
    EXPECT_NE(what.find(batch[1].name), std::string::npos) << what;
    EXPECT_NE(what.find(std::to_string(batch[1].seed)), std::string::npos) << what;
    EXPECT_NE(what.find("injected fault"), std::string::npos) << what;
  }
}

/// The lines of a text file, without their newlines.
std::vector<std::string> read_lines(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

TEST(FaultTolerance, FailureManifestSanitizesNamesAndFlattensMessages) {
  TempDir dir;
  std::vector<CellFailure> failures(2);
  failures[0].index = 3;
  failures[0].scenario = "grid cell p=0.01 rtt=0.1";  // spaces: sanitized to '_'
  failures[0].seed = 0xdeadbeefcafe1234ull;
  failures[0].shard = 1;
  failures[0].attempts = 3;
  failures[0].timed_out = true;
  failures[0].elapsed_s = 12.5;
  failures[0].what = "line one\nline two";  // newlines: flattened to spaces
  failures[1].index = 7;
  failures[1].scenario = "clean-name";
  failures[1].seed = 42;
  failures[1].attempts = 1;
  failures[1].what = "std::bad_alloc";

  const fs::path path = dir.path / "sweep.failures";
  ebrc::testbed::save_failure_manifest(failures, path);
  const std::vector<std::string> expected{
      "ebrc-failure-manifest v2",
      "failures 2",
      "cell 3 seed " + std::to_string(failures[0].seed) +
          " shard 1 attempts 3 timed_out 1 crashed 0 signal 0 elapsed_s 12.5"
          " scenario grid_cell_p=0.01_rtt=0.1 what line one line two",
      "cell 7 seed 42 shard 0 attempts 1 timed_out 0 crashed 0 signal 0 elapsed_s 0.0"
      " scenario clean-name what std::bad_alloc",
  };
  EXPECT_EQ(read_lines(path), expected);

  EXPECT_THROW(ebrc::testbed::save_failure_manifest(failures, dir.path / "absent" / "x"),
               std::runtime_error);
}

TEST(FaultTolerance, FailureManifestWritesCrashFieldsAndFlattensControlChars) {
  TempDir dir;
  std::vector<CellFailure> failures(2);
  failures[0].index = 2;
  // \v and \f are isspace for operator>> but were NOT sanitized pre-v2;
  // pipes and 0x01 ride along to prove all control chars flatten to '_'.
  failures[0].scenario = std::string("evil\vname\fwith|pipe\x01" "and\nnewline");
  failures[0].seed = 99;
  failures[0].attempts = 2;
  failures[0].crashed = true;
  failures[0].signal = 11;
  failures[0].what = "crashed: SIGSEGV";
  failures[1].index = 5;
  failures[1].scenario = "hung-cell";
  failures[1].timed_out = true;
  failures[1].signal = 9;
  failures[1].attempts = 1;
  failures[1].what = "killed at the cell deadline";

  const fs::path path = dir.path / "sweep.failures";
  ebrc::testbed::save_failure_manifest(failures, path);
  const std::vector<std::string> lines = read_lines(path);
  ASSERT_EQ(lines.size(), 4u);
  EXPECT_EQ(lines[2],
            "cell 2 seed 99 shard 0 attempts 2 timed_out 0 crashed 1 signal 11 elapsed_s 0.0"
            " scenario evil_name_with|pipe_and_newline what crashed: SIGSEGV");
  EXPECT_EQ(lines[3],
            "cell 5 seed 0 shard 0 attempts 1 timed_out 1 crashed 0 signal 9 elapsed_s 0.0"
            " scenario hung-cell what killed at the cell deadline");
}

TEST(FaultTolerance, EmptyFailureManifestHasOnlyTheHeader) {
  TempDir dir;
  const fs::path path = dir.path / "clean.failures";
  ebrc::testbed::save_failure_manifest({}, path);
  EXPECT_EQ(read_lines(path),
            (std::vector<std::string>{"ebrc-failure-manifest v2", "failures 0"}));
}

// ---- process isolation ------------------------------------------------------

TEST(ProcessIsolation, BitIdenticalToInProcessRun) {
  const auto batch = ebrc::testbed::replicate(short_ns2(0), /*root_seed=*/29, /*reps=*/3);
  const BatchRunner runner(2);
  const auto reference = runner.run(batch);

  RunPolicy policy;
  policy.isolate = ebrc::testbed::IsolationMode::kProcess;
  SweepReport rep;
  const auto out = runner.run(batch, nullptr, ShardSpec{}, &rep, policy);
  EXPECT_TRUE(rep.complete());
  EXPECT_EQ(rep.simulated, batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) expect_same_run(reference[i], out[i]);
}

TEST(ProcessIsolation, WorkerCrashIsRetryableAndLeavesABundleAndResumes) {
  FaultGuard guard;
  TempDir dir;
  const auto batch = ebrc::testbed::replicate(short_ns2(0), /*root_seed=*/31, /*reps=*/4);
  const BatchRunner runner(2);
  const auto reference = runner.run(batch);

  // Cell 1 aborts in its worker subprocess on every attempt. In-process this
  // injection would kill the whole test binary — surviving it at all IS the
  // tentpole property.
  ResultStore store(dir.path / "cache");
  fault::arm({{fault::Kind::kCrash, 1, fault::kEveryAttempt}});
  RunPolicy policy;
  policy.keep_going = true;
  policy.max_retries = 1;
  policy.isolate = ebrc::testbed::IsolationMode::kProcess;
  policy.crash_dir = (dir.path / "crashes").string();
  policy.invocation = "unit-test-sweep --reps=4";
  SweepReport rep;
  (void)runner.run(batch, &store, ShardSpec{}, &rep, policy);

  EXPECT_EQ(rep.failed, 1u);
  EXPECT_EQ(rep.crashed, 1u);
  EXPECT_EQ(rep.retried, 1u);
  EXPECT_EQ(rep.simulated, 3u);
  ASSERT_EQ(rep.failures.size(), 1u);
  const CellFailure& f = rep.failures[0];
  EXPECT_EQ(f.index, 1u);
  EXPECT_TRUE(f.crashed);
  EXPECT_EQ(f.signal, SIGABRT);
  EXPECT_FALSE(f.timed_out);
  EXPECT_EQ(f.attempts, 2);
  EXPECT_NE(f.what.find("SIGABRT"), std::string::npos) << f.what;
  EXPECT_NE(f.what.find("injected fault: crash"), std::string::npos)
      << "the worker's stderr tail must ride along: " << f.what;

  // Repro bundle: scenario TOML with the derived seed + forensics.
  const fs::path bundle = dir.path / "crashes" / "cell-1";
  EXPECT_TRUE(fs::exists(bundle / "scenario.toml"));
  EXPECT_TRUE(fs::exists(bundle / "stderr.txt"));
  EXPECT_TRUE(fs::exists(bundle / "status.txt"));
  EXPECT_TRUE(fs::exists(bundle / "repro.txt"));
  const Scenario replay = ebrc::testbed::load_scenario(bundle / "scenario.toml");
  EXPECT_EQ(replay.seed, batch[1].seed) << "the bundle must replay this exact cell";

  // Fault-free resume over the same store: only the crashed cell simulates,
  // and the sweep converges bitwise to the clean cold run.
  fault::disarm();
  RunPolicy resume_policy;
  resume_policy.keep_going = true;
  SweepReport resumed;
  const auto out = runner.run(batch, &store, ShardSpec{}, &resumed, resume_policy);
  EXPECT_EQ(resumed.hits, 3u);
  EXPECT_EQ(resumed.simulated, 1u);
  EXPECT_TRUE(resumed.complete());
  for (std::size_t i = 0; i < batch.size(); ++i) expect_same_run(reference[i], out[i]);
}

TEST(ProcessIsolation, HungWorkerIsKilledAtTheHardDeadline) {
  FaultGuard guard;
  const auto batch = ebrc::testbed::replicate(short_ns2(0), /*root_seed=*/37, /*reps=*/2);
  const BatchRunner runner(2);

  fault::arm({{fault::Kind::kHang, 0, fault::kEveryAttempt}});
  RunPolicy policy;
  policy.keep_going = true;
  policy.cell_deadline_s = 1.0;
  policy.isolate = ebrc::testbed::IsolationMode::kProcess;
  SweepReport rep;
  (void)runner.run(batch, nullptr, ShardSpec{}, &rep, policy);

  EXPECT_EQ(rep.failed, 1u);
  EXPECT_EQ(rep.timed_out, 1u);
  EXPECT_EQ(rep.crashed, 0u) << "a deadline kill is a timeout, not a crash";
  EXPECT_EQ(rep.simulated, 1u);  // the healthy cell completed meanwhile
  ASSERT_EQ(rep.failures.size(), 1u);
  EXPECT_EQ(rep.failures[0].index, 0u);
  EXPECT_TRUE(rep.failures[0].timed_out);
  EXPECT_EQ(rep.failures[0].signal, SIGKILL);
  EXPECT_GE(rep.failures[0].elapsed_s, 1.0);
  EXPECT_LT(rep.failures[0].elapsed_s, 60.0) << "the kill must not wait out the hang";
}

TEST(ProcessIsolation, InjectedOomStormIsContainedAndAttributed) {
  FaultGuard guard;
  const auto batch = ebrc::testbed::replicate(short_ns2(0), /*root_seed=*/41, /*reps=*/2);
  const BatchRunner runner(1);

  fault::arm({{fault::Kind::kOomStorm, 1, fault::kEveryAttempt}});
  RunPolicy policy;
  policy.keep_going = true;
  policy.isolate = ebrc::testbed::IsolationMode::kProcess;
  SweepReport rep;
  (void)runner.run(batch, nullptr, ShardSpec{}, &rep, policy);

  EXPECT_EQ(rep.failed, 1u);
  EXPECT_EQ(rep.crashed, 1u);
  EXPECT_EQ(rep.simulated, 1u);
  ASSERT_EQ(rep.failures.size(), 1u);
  EXPECT_TRUE(rep.failures[0].crashed);
  EXPECT_NE(rep.failures[0].what.find("oom storm"), std::string::npos)
      << rep.failures[0].what;
}

TEST(ProcessIsolation, ConcurrentRunsInOneProcessDoNotCrossResults) {
  // Two sweeps at once in one process, each over its own batch: every
  // result must be its own batch's, bit for bit, with no failed cell.
  std::vector<ebrc::testbed::Scenario> batches[2] = {
      ebrc::testbed::replicate(short_ns2(0), /*root_seed=*/59, /*reps=*/24),
      ebrc::testbed::replicate(short_ns2(0), /*root_seed=*/61, /*reps=*/24)};
  const BatchRunner runner(2);
  std::vector<ExperimentResult> reference[2] = {runner.run(batches[0]),
                                                runner.run(batches[1])};
  RunPolicy policy;
  policy.keep_going = true;
  policy.isolate = ebrc::testbed::IsolationMode::kProcess;
  for (int trial = 0; trial < 3; ++trial) {
    std::vector<ExperimentResult> out[2];
    SweepReport rep[2];
    std::thread other([&] { out[1] = runner.run(batches[1], nullptr, {}, &rep[1], policy); });
    out[0] = runner.run(batches[0], nullptr, {}, &rep[0], policy);
    other.join();
    for (int b = 0; b < 2; ++b) {
      EXPECT_EQ(rep[b].failed, 0u) << "trial " << trial << " batch " << b;
      ASSERT_EQ(out[b].size(), reference[b].size());
      std::size_t crossed = 0;
      for (std::size_t i = 0; i < out[b].size(); ++i) {
        if (ebrc::testbed::encode_result(out[b][i]) !=
            ebrc::testbed::encode_result(reference[b][i])) {
          ++crossed;
        }
      }
      EXPECT_EQ(crossed, 0u) << "trial " << trial << " batch " << b
                             << ": cells differ from the in-process run";
    }
  }
}

TEST(ProcessIsolation, CrashedWorkerIsRespawnedAndItsNeighboursStayBitIdentical) {
  FaultGuard guard;
  TempDir dir;
  const auto batch = ebrc::testbed::replicate(short_ns2(0), /*root_seed=*/67, /*reps=*/4);
  const BatchRunner runner(1);
  const auto reference = runner.run(batch);

  // One worker serves all four cells; cell 1 aborts it mid-sweep.
  fault::arm({{fault::Kind::kCrash, 1, fault::kEveryAttempt}});
  RunPolicy policy;
  policy.keep_going = true;
  policy.isolate = ebrc::testbed::IsolationMode::kProcess;
  policy.crash_dir = (dir.path / "crashes").string();
  SweepReport rep;
  const auto out = runner.run(batch, nullptr, ShardSpec{}, &rep, policy);

  EXPECT_EQ(rep.simulated, 3u);
  ASSERT_EQ(rep.failures.size(), 1u);
  const CellFailure& f = rep.failures[0];
  EXPECT_EQ(f.index, 1u);
  EXPECT_TRUE(f.crashed);
  EXPECT_EQ(f.signal, SIGABRT);
  for (const std::size_t i : {0, 2, 3}) {
    EXPECT_EQ(ebrc::testbed::encode_result(out[i]),
              ebrc::testbed::encode_result(reference[i]))
        << "cell " << i << " is not bit-identical to the in-process run";
  }
  // The tail is cell 1's own output: nothing carried over from cell 0,
  // which ran on the same worker.
  std::ifstream tail_in(dir.path / "crashes" / "cell-1" / "stderr.txt", std::ios::binary);
  const std::string tail((std::istreambuf_iterator<char>(tail_in)),
                         std::istreambuf_iterator<char>());
  EXPECT_EQ(tail, "injected fault: crash at cell #1 attempt 0\n");
  EXPECT_NE(f.what.find("; stderr: injected fault: crash at cell #1 attempt 0"),
            std::string::npos)
      << f.what;
  EXPECT_EQ(rep.workers_spawned, 2u) << "one worker, plus one respawn for the crash";
}

TEST(ProcessIsolation, HungWorkerIsKilledAndTheNextCellRunsOnARespawn) {
  FaultGuard guard;
  const auto batch = ebrc::testbed::replicate(short_ns2(0), /*root_seed=*/71, /*reps=*/3);
  const BatchRunner runner(1);
  const auto reference = runner.run(batch);

  fault::arm({{fault::Kind::kHang, 1, fault::kEveryAttempt}});
  RunPolicy policy;
  policy.keep_going = true;
  policy.cell_deadline_s = 1.0;
  policy.isolate = ebrc::testbed::IsolationMode::kProcess;
  SweepReport rep;
  const auto out = runner.run(batch, nullptr, ShardSpec{}, &rep, policy);

  EXPECT_EQ(rep.timed_out, 1u);
  ASSERT_EQ(rep.failures.size(), 1u);
  EXPECT_EQ(rep.failures[0].index, 1u);
  EXPECT_TRUE(rep.failures[0].timed_out);
  EXPECT_EQ(rep.simulated, 2u);
  ASSERT_EQ(rep.available[2], 1u) << "cell 2 completes after the kill";
  EXPECT_EQ(ebrc::testbed::encode_result(out[2]), ebrc::testbed::encode_result(reference[2]));
  EXPECT_EQ(rep.workers_spawned, 2u);
}

TEST(ProcessIsolation, OneWorkerPerPoolThreadAndNoneForAWarmSweep) {
  TempDir dir;
  const auto batch = ebrc::testbed::replicate(short_ns2(0), /*root_seed=*/73, /*reps=*/5);
  RunPolicy policy;
  policy.isolate = ebrc::testbed::IsolationMode::kProcess;
  const ResultStore store(dir.path / "cache");

  SweepReport cold;
  (void)BatchRunner(2).run(batch, &store, ShardSpec{}, &cold, policy);
  EXPECT_EQ(cold.simulated, 5u);
  EXPECT_GE(cold.workers_spawned, 1u);
  EXPECT_LE(cold.workers_spawned, 2u) << "at most one worker per pool thread";

  SweepReport warm;
  (void)BatchRunner(2).run(batch, &store, ShardSpec{}, &warm, policy);
  EXPECT_EQ(warm.hits, 5u);
  EXPECT_EQ(warm.workers_spawned, 0u) << "a warm sweep forks nothing";

  SweepReport few;
  (void)BatchRunner(8).run({batch[0]}, nullptr, ShardSpec{}, &few, policy);
  EXPECT_EQ(few.workers_spawned, 1u) << "no more workers than cells";
}

// ---- preemptive in-process deadline -----------------------------------------

TEST(InProcessDeadline, EventLoopPollPreemptsARunawayCellMidRun) {
  FaultGuard guard;
  // A cell that would simulate ~1e9 seconds: completing it would take hours,
  // so the ONLY way this test finishes promptly is the 64k-event poll inside
  // Simulator::run throwing WallDeadlineError mid-run.
  Scenario runaway = short_ns2(0);
  runaway.duration_s = 1.0e9;
  runaway.warmup_s = 1.0;
  const auto batch = ebrc::testbed::replicate(runaway, /*root_seed=*/43, /*reps=*/1);
  const BatchRunner runner(1);

  RunPolicy policy;
  policy.keep_going = true;
  policy.cell_deadline_s = 0.3;
  SweepReport rep;
  (void)runner.run(batch, nullptr, ShardSpec{}, &rep, policy);

  EXPECT_EQ(rep.failed, 1u);
  EXPECT_EQ(rep.timed_out, 1u);
  ASSERT_EQ(rep.failures.size(), 1u);
  EXPECT_TRUE(rep.failures[0].timed_out);
  EXPECT_GE(rep.failures[0].elapsed_s, 0.3);
  EXPECT_LT(rep.failures[0].elapsed_s, 120.0);
  EXPECT_NE(rep.failures[0].what.find("--cell-deadline"), std::string::npos)
      << rep.failures[0].what;
}

TEST(InProcessDeadline, InjectedHangTimesOutViaCooperativePoll) {
  FaultGuard guard;
  const auto batch = ebrc::testbed::replicate(short_ns2(0), /*root_seed=*/47, /*reps=*/2);
  const BatchRunner runner(2);

  fault::arm({{fault::Kind::kHang, 1, fault::kEveryAttempt}});
  RunPolicy policy;
  policy.keep_going = true;
  policy.cell_deadline_s = 0.3;
  SweepReport rep;
  (void)runner.run(batch, nullptr, ShardSpec{}, &rep, policy);

  EXPECT_EQ(rep.failed, 1u);
  EXPECT_EQ(rep.timed_out, 1u);
  EXPECT_EQ(rep.simulated, 1u);  // the healthy cell still simulated
  ASSERT_EQ(rep.failures.size(), 1u);
  EXPECT_EQ(rep.failures[0].index, 1u);
  EXPECT_TRUE(rep.failures[0].timed_out);
  EXPECT_GE(rep.failures[0].elapsed_s, policy.cell_deadline_s);
  EXPECT_NE(rep.failures[0].what.find("--cell-deadline"), std::string::npos)
      << rep.failures[0].what;
}

// ---- event feed through the batch layer -------------------------------------

TEST(EventFeed, SweepEmitsLifecycleEvents) {
  FaultGuard guard;
  TempDir dir;
  const auto batch = ebrc::testbed::replicate(short_ns2(0), /*root_seed=*/53, /*reps=*/3);
  const BatchRunner runner(2);

  // Cell 1: throws on attempt 0, recovers on attempt 1 → retry + cell_done.
  // Cell 2: throws on every attempt → cell_failed.
  fault::arm({{fault::Kind::kThrow, 1, 0}, {fault::Kind::kThrow, 2, fault::kEveryAttempt}});
  const fs::path feed_path = dir.path / "events.jsonl";
  ebrc::testbed::SweepEventFeed feed(feed_path);
  RunPolicy policy;
  policy.keep_going = true;
  policy.max_retries = 1;
  policy.events = &feed;
  SweepReport rep;
  (void)runner.run(batch, nullptr, ShardSpec{}, &rep, policy);
  EXPECT_EQ(rep.failed, 1u);

  std::ifstream in(feed_path);
  std::string all((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  EXPECT_NE(all.find("\"event\":\"cell_start\""), std::string::npos);
  EXPECT_NE(all.find("\"event\":\"cell_done\""), std::string::npos);
  EXPECT_NE(all.find("\"event\":\"retry\""), std::string::npos);
  EXPECT_NE(all.find("\"event\":\"cell_failed\""), std::string::npos);
  EXPECT_NE(all.find("\"detail\":\"injected fault"), std::string::npos);
}

TEST(EventFeed, IsolatedSweepReportsEachCellsPeakRss) {
  TempDir dir;
  const auto batch = ebrc::testbed::replicate(short_ns2(0), /*root_seed=*/79, /*reps=*/3);
  const fs::path feed_path = dir.path / "events.jsonl";
  {
    ebrc::testbed::SweepEventFeed feed(feed_path);
    RunPolicy policy;
    policy.isolate = ebrc::testbed::IsolationMode::kProcess;
    policy.events = &feed;
    SweepReport rep;
    (void)BatchRunner(2).run(batch, nullptr, ShardSpec{}, &rep, policy);
    EXPECT_EQ(rep.simulated, 3u);
  }
  std::ifstream in(feed_path);
  std::size_t done = 0;
  for (std::string line; std::getline(in, line);) {
    if (line.find("\"event\":\"cell_done\"") == std::string::npos) continue;
    ++done;
    const std::size_t at = line.find("\"rss_kb\":");
    ASSERT_NE(at, std::string::npos) << line;
    EXPECT_GT(std::stol(line.substr(at + 9)), 0) << line;
  }
  EXPECT_EQ(done, 3u);
}

}  // namespace
