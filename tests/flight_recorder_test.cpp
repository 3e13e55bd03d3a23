// obs::FlightRecorder — the crash-surviving kernel-event ring:
//   * create/record/dump on a live simulator, oldest-first ring order,
//   * each dumped record names its event kind: a slab event by slab index,
//     a pinned one by pin id,
//   * the MAP_SHARED contract: records written before an abort() are
//     readable from the file afterwards with no flush or handler,
//   * dump_to_text rejects missing/foreign/truncated files,
//   * reset() rewinds the ring, so a dump holds only what followed it,
//   * end-to-end: an --isolate=process sweep with an injected crash leaves a
//     parseable flight_recorder.txt, holding only the crashed cell, inside
//     the cell's repro bundle.
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "obs/flight_recorder.hpp"
#include "sim/simulator.hpp"
#include "test_support.hpp"
#include "testbed/batch.hpp"
#include "testbed/fault_injection.hpp"
#include "testbed/scenario.hpp"

namespace {

namespace fs = std::filesystem;

using ebrc::obs::FlightRecorder;
using ebrc::testbed::BatchRunner;
using ebrc::testbed::RunPolicy;
using ebrc::testbed::Scenario;
using ebrc::testbed::ShardSpec;
using ebrc::testbed::SweepReport;
namespace fault = ebrc::testbed::fault;

using ebrc::testing::TempDir;

struct FaultGuard {
  ~FaultGuard() { fault::disarm(); }
};

[[nodiscard]] std::string read_file(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

TEST(FlightRecorderTest, RecordsExecutedEventsAndDumpsOldestFirst) {
  TempDir dir;
  const std::string ring_path = (dir.path / "ring.flight").string();
  auto rec = FlightRecorder::create(ring_path, /*capacity=*/8);
  ASSERT_NE(rec, nullptr);
  EXPECT_EQ(rec->cursor(), 0u);

  ebrc::sim::Simulator sim;
  sim.set_kernel_ring(rec->ring());
  int fired = 0;
  for (int i = 0; i < 5; ++i) {
    sim.schedule(0.5 * (i + 1), [&] { ++fired; });
  }
  sim.run_until(10.0);
  EXPECT_EQ(fired, 5);
  EXPECT_EQ(rec->cursor(), 5u);

  const std::string out_path = (dir.path / "dump.txt").string();
  ASSERT_TRUE(FlightRecorder::dump_to_text(ring_path, out_path));
  const std::string dump = read_file(out_path);
  EXPECT_NE(dump.find("flight-recorder v1"), std::string::npos);
  EXPECT_NE(dump.find("executed=5"), std::string::npos);
  EXPECT_NE(dump.find("kept=5"), std::string::npos);
  // Oldest first: the t=0.5 record precedes the t=2.5 one.
  const auto first = dump.find("t=0.500000000");
  const auto last = dump.find("t=2.500000000");
  ASSERT_NE(first, std::string::npos);
  ASSERT_NE(last, std::string::npos);
  EXPECT_LT(first, last);
}

TEST(FlightRecorderTest, DumpNamesSlabAndPinnedEvents) {
  // A pinned event pops from the wheel and records its pin id; a slab event
  // pops from the heap and records its slab index.
  TempDir dir;
  const std::string ring_path = (dir.path / "ring.flight").string();
  auto rec = FlightRecorder::create(ring_path, /*capacity=*/8);
  ASSERT_NE(rec, nullptr);
  ebrc::sim::Simulator sim;
  sim.set_kernel_ring(rec->ring());
  (void)sim.pin([] {});
  const auto pinned = sim.pin([] {});
  sim.schedule_pinned(1.0, pinned);
  sim.schedule(2.0, [] {});
  sim.run_until(10.0);

  const std::string out_path = (dir.path / "dump.txt").string();
  ASSERT_TRUE(FlightRecorder::dump_to_text(ring_path, out_path));
  const std::string dump = read_file(out_path);
  EXPECT_NE(dump.find("#0 t=1.000000000 slot=0x00000001 src=pinned\n"), std::string::npos)
      << dump;
  EXPECT_NE(dump.find("#1 t=2.000000000 slot=0x00000000 src=slab\n"), std::string::npos)
      << dump;
}

TEST(FlightRecorderTest, RingOverwriteKeepsTheTail) {
  TempDir dir;
  const std::string ring_path = (dir.path / "ring.flight").string();
  auto rec = FlightRecorder::create(ring_path, /*capacity=*/4);
  ASSERT_NE(rec, nullptr);

  ebrc::sim::Simulator sim;
  sim.set_kernel_ring(rec->ring());
  for (int i = 0; i < 10; ++i) sim.schedule(1.0 * (i + 1), [] {});
  sim.run_until(20.0);
  EXPECT_EQ(rec->cursor(), 10u);

  const std::string out_path = (dir.path / "dump.txt").string();
  ASSERT_TRUE(FlightRecorder::dump_to_text(ring_path, out_path));
  const std::string dump = read_file(out_path);
  EXPECT_NE(dump.find("executed=10"), std::string::npos);
  EXPECT_NE(dump.find("kept=4"), std::string::npos);
  EXPECT_EQ(dump.find("t=6.000000000"), std::string::npos) << "overwritten";
  EXPECT_NE(dump.find("t=7.000000000"), std::string::npos);
  EXPECT_NE(dump.find("t=10.000000000"), std::string::npos);
}

TEST(FlightRecorderTest, ResetRewindsTheRingToEmpty) {
  TempDir dir;
  const std::string ring_path = (dir.path / "ring.flight").string();
  auto rec = FlightRecorder::create(ring_path, /*capacity=*/8);
  ASSERT_NE(rec, nullptr);
  {
    ebrc::sim::Simulator sim;
    sim.set_kernel_ring(rec->ring());
    for (int i = 0; i < 6; ++i) sim.schedule(1.0 * (i + 1), [] {});
    sim.run_until(10.0);
  }
  EXPECT_EQ(rec->cursor(), 6u);

  // The next cell on the same ring: only its own events survive.
  rec->reset();
  EXPECT_EQ(rec->cursor(), 0u);
  ebrc::sim::Simulator sim;
  sim.set_kernel_ring(rec->ring());
  sim.schedule(0.25, [] {});
  sim.run_until(1.0);

  const std::string out_path = (dir.path / "dump.txt").string();
  ASSERT_TRUE(FlightRecorder::dump_to_text(ring_path, out_path));
  const std::string dump = read_file(out_path);
  EXPECT_NE(dump.find("executed=1 kept=1"), std::string::npos) << dump;
  EXPECT_NE(dump.find("t=0.250000000"), std::string::npos);
  EXPECT_EQ(dump.find("t=1.000000000"), std::string::npos) << "the earlier run leaked in";
}

TEST(FlightRecorderTest, DumpRejectsMissingAndForeignFiles) {
  TempDir dir;
  const std::string out_path = (dir.path / "dump.txt").string();
  EXPECT_FALSE(
      FlightRecorder::dump_to_text((dir.path / "nope.flight").string(), out_path));

  const fs::path foreign = dir.path / "foreign.flight";
  std::ofstream(foreign, std::ios::binary) << "this is not a flight ring";
  EXPECT_FALSE(FlightRecorder::dump_to_text(foreign.string(), out_path));
}

TEST(FlightRecorderTest, SurvivesAnAbortingChildProcess) {
  TempDir dir;
  const std::string ring_path = (dir.path / "child.flight").string();
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    // ---- child: record some events, then die without any cleanup ----
    auto rec = FlightRecorder::create(ring_path, /*capacity=*/16);
    if (rec == nullptr) ::_exit(2);
    ebrc::sim::Simulator sim;
    sim.set_kernel_ring(rec->ring());
    for (int i = 0; i < 6; ++i) sim.schedule(0.25 * (i + 1), [] {});
    sim.run_until(5.0);
    std::abort();  // MAP_SHARED pages must survive this
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFSIGNALED(status));

  const std::string out_path = (dir.path / "dump.txt").string();
  ASSERT_TRUE(FlightRecorder::dump_to_text(ring_path, out_path));
  const std::string dump = read_file(out_path);
  EXPECT_NE(dump.find("executed=6"), std::string::npos);
  EXPECT_NE(dump.find("t=1.500000000"), std::string::npos);
}

// ---- end-to-end through the isolated sweep path ----------------------------

Scenario short_ns2(std::uint64_t seed) {
  auto s = ebrc::testbed::ns2_scenario(1, 1, 8, seed);
  s.duration_s = 4.0;
  s.warmup_s = 1.0;
  return s;
}

TEST(FlightRecorderTest, CrashedIsolatedCellBundleContainsAParseableDump) {
  FaultGuard guard;
  TempDir dir;
  const auto batch = ebrc::testbed::replicate(short_ns2(0), /*root_seed=*/99, /*reps=*/3);

  // Cell 1 crashes on every attempt; the others complete.
  fault::arm({{fault::Kind::kCrash, 1, fault::kEveryAttempt}});
  RunPolicy policy;
  policy.keep_going = true;
  policy.isolate = ebrc::testbed::IsolationMode::kProcess;
  policy.crash_dir = (dir.path / "crashes").string();
  policy.invocation = "flight_recorder_test";
  SweepReport rep;
  const BatchRunner runner(1);
  (void)runner.run(batch, nullptr, ShardSpec{}, &rep, policy);
  EXPECT_EQ(rep.crashed, 1u);

  const fs::path bundle = dir.path / "crashes" / "cell-1";
  ASSERT_TRUE(fs::exists(bundle / "scenario.toml"));
  ASSERT_TRUE(fs::exists(bundle / "flight_recorder.txt"))
      << "the repro bundle must carry the flight-recorder dump";
  const std::string dump = read_file(bundle / "flight_recorder.txt");
  EXPECT_NE(dump.find("flight-recorder v1"), std::string::npos);
  EXPECT_NE(dump.find("capacity="), std::string::npos);
  // Cell 0 ran on the same worker first, but the ring is rewound at each
  // cell start, and cell 1 crashed before its simulator executed anything.
  EXPECT_NE(dump.find("executed=0 kept=0"), std::string::npos) << dump;

  // The worker's ring file is removed once the sweep is done.
  std::size_t stray = 0;
  for (const auto& e : fs::directory_iterator(fs::temp_directory_path())) {
    const std::string name = e.path().filename().string();
    if (name.find("ebrc-worker-" + std::to_string(::getpid()) + "-") == 0) ++stray;
  }
  EXPECT_EQ(stray, 0u) << "no flight-recorder ring files left behind";
}

}  // namespace
