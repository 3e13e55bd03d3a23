#include "testbed/supervisor.hpp"

#include <gtest/gtest.h>
#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>

namespace {

namespace fs = std::filesystem;
using ebrc::testbed::IsolationMode;
using ebrc::testbed::SweepEventFeed;
using ebrc::testbed::WorkerLimits;
using ebrc::testbed::WorkerOutcome;
using ebrc::testbed::isolation_from;
using ebrc::testbed::isolation_name;
using ebrc::testbed::run_supervised;
using ebrc::testbed::signal_name;

struct TempDir {
  fs::path path;
  TempDir() {
    path = fs::temp_directory_path() /
           ("ebrc-supervisor-test-" + std::to_string(::getpid()) + "-" +
            std::to_string(reinterpret_cast<std::uintptr_t>(this)));
    fs::create_directories(path);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
};

TEST(IsolationModeTest, ParsesAndNames) {
  EXPECT_EQ(isolation_from("none"), IsolationMode::kInProcess);
  EXPECT_EQ(isolation_from("in-process"), IsolationMode::kInProcess);
  EXPECT_EQ(isolation_from("process"), IsolationMode::kProcess);
  EXPECT_THROW((void)isolation_from("container"), std::invalid_argument);
  EXPECT_STREQ(isolation_name(IsolationMode::kInProcess), "none");
  EXPECT_STREQ(isolation_name(IsolationMode::kProcess), "process");
}

TEST(SupervisorTest, CleanExitIsOk) {
  const WorkerOutcome o = run_supervised([] { return 0; }, {});
  EXPECT_TRUE(o.ok);
  EXPECT_FALSE(o.crashed);
  EXPECT_FALSE(o.killed);
  EXPECT_EQ(o.exit_code, 0);
  EXPECT_EQ(o.describe(), "exited 0");
}

TEST(SupervisorTest, NonzeroExitCodeIsReported) {
  const WorkerOutcome o = run_supervised([] { return 7; }, {});
  EXPECT_FALSE(o.ok);
  EXPECT_FALSE(o.crashed);
  EXPECT_EQ(o.exit_code, 7);
  EXPECT_EQ(o.describe(), "exited 7");
}

TEST(SupervisorTest, ThrowingBodyExitsOneWithWhatOnStderr) {
  const WorkerOutcome o = run_supervised(
      []() -> int { throw std::runtime_error("deliberate test failure"); }, {});
  EXPECT_FALSE(o.ok);
  EXPECT_EQ(o.exit_code, 1);
  EXPECT_NE(o.stderr_tail.find("deliberate test failure"), std::string::npos);
}

TEST(SupervisorTest, AbortIsAttributedAsCrashWithSignal) {
  const WorkerOutcome o = run_supervised(
      []() -> int {
        std::abort();
      },
      {});
  EXPECT_FALSE(o.ok);
  EXPECT_TRUE(o.crashed);
  EXPECT_FALSE(o.killed);
  EXPECT_EQ(o.term_signal, SIGABRT);
  EXPECT_NE(o.describe().find("SIGABRT"), std::string::npos);
}

TEST(SupervisorTest, SegfaultIsAttributedAsCrash) {
  const WorkerOutcome o = run_supervised(
      []() -> int {
        ::raise(SIGSEGV);
        return 0;
      },
      {});
  EXPECT_TRUE(o.crashed);
  EXPECT_EQ(o.term_signal, SIGSEGV);
}

TEST(SupervisorTest, DeadlineKillsHungWorker) {
  WorkerLimits limits;
  limits.deadline_s = 0.3;
  const auto t0 = std::chrono::steady_clock::now();
  const WorkerOutcome o = run_supervised(
      []() -> int {
        for (;;) std::this_thread::sleep_for(std::chrono::hours(1));
      },
      limits);
  const double waited = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  EXPECT_FALSE(o.ok);
  EXPECT_TRUE(o.killed);
  EXPECT_FALSE(o.crashed) << "a deadline kill must not be misattributed as a crash";
  EXPECT_GE(o.elapsed_s, 0.3);
  EXPECT_LT(waited, 30.0) << "the supervisor must not wait for the sleep to finish";
  EXPECT_NE(o.describe().find("deadline"), std::string::npos);
}

TEST(SupervisorTest, StderrTailKeepsOnlyTheEnd) {
  WorkerLimits limits;
  limits.stderr_tail_bytes = 256;
  const WorkerOutcome o = run_supervised(
      []() -> int {
        for (int i = 0; i < 1000; ++i) std::fprintf(stderr, "line %04d\n", i);
        return 3;
      },
      limits);
  EXPECT_EQ(o.exit_code, 3);
  EXPECT_LE(o.stderr_tail.size(), 256u);
  EXPECT_NE(o.stderr_tail.find("line 0999"), std::string::npos);
  EXPECT_EQ(o.stderr_tail.find("line 0000"), std::string::npos);
}

TEST(SupervisorTest, WorkerStdoutCannotReachParentStdout) {
  const WorkerOutcome o = run_supervised(
      []() -> int {
        std::printf("worker stdout noise\n");
        return 0;
      },
      {});
  // The worker's stdout is redirected onto the supervision pipe, i.e. it
  // lands in the captured tail rather than the parent's stdout.
  EXPECT_TRUE(o.ok);
  EXPECT_NE(o.stderr_tail.find("worker stdout noise"), std::string::npos);
}

TEST(SupervisorTest, LastWordsOfAnInstantExitAreCaptured) {
  // The worker's output and its exit race: its pipe hits EOF before it is
  // reapable, and the reap can land while the output still sits in the pipe
  // buffer. Whichever wins, the tail must hold every byte.
  for (int i = 0; i < 50; ++i) {
    const WorkerOutcome o = run_supervised(
        []() -> int {
          std::fprintf(stderr, "last words\n");
          return 0;
        },
        {});
    ASSERT_TRUE(o.ok) << "attempt " << i;
    ASSERT_EQ(o.stderr_tail, "last words\n") << "attempt " << i;
  }
}

TEST(SupervisorTest, InstantExitIsNotHeldBackByAPollingFloor) {
  // Waking on the worker's exit itself (not a sleep-and-recheck cadence)
  // makes an empty attempt cost a fork and a reap, well under a
  // millisecond. The fastest of ten attempts stays far below the 10 ms a
  // polling loop's sleep would add, even on a loaded host.
  double fastest = 1e9;
  for (int i = 0; i < 10; ++i) {
    const WorkerOutcome o = run_supervised([] { return 0; }, {});
    ASSERT_TRUE(o.ok);
    fastest = std::min(fastest, o.elapsed_s);
  }
  EXPECT_LT(fastest, 0.005);
}

TEST(SupervisorTest, RusageIsReaped) {
  const WorkerOutcome o = run_supervised([] { return 0; }, {});
  EXPECT_GT(o.max_rss_kb, 0) << "ru_maxrss of a real process is never zero";
}

TEST(SignalNameTest, KnownAndUnknown) {
  EXPECT_EQ(signal_name(SIGSEGV), "SIGSEGV");
  EXPECT_EQ(signal_name(SIGKILL), "SIGKILL");
  EXPECT_EQ(signal_name(SIGABRT), "SIGABRT");
  EXPECT_EQ(signal_name(42), "signal 42");
}

TEST(SweepEventFeedTest, WritesOneJsonObjectPerLineAndEscapes) {
  TempDir dir;
  const fs::path path = dir.path / "events.jsonl";
  {
    SweepEventFeed feed(path);
    feed.emit("cell_start", 3, "fig16/b=0.25", 123, 0);
    feed.emit("cell_done", 3, "fig16/b=0.25", 123, 0, 1.5, 4096);
    feed.emit("cell_failed", 4, "name-with\"quote\nand-newline", 9, 1, 0.25, -1,
              "detail with \\ backslash");
  }
  std::ifstream in(path);
  std::string line;
  std::vector<std::string> lines;
  while (std::getline(in, line)) lines.push_back(line);
  ASSERT_EQ(lines.size(), 4u) << "schema header + 3 events";
  for (const auto& l : lines) {
    EXPECT_EQ(l.front(), '{');
    EXPECT_EQ(l.back(), '}');
  }
  // Line 0 is always the schema header.
  EXPECT_NE(lines[0].find("\"event\":\"schema\""), std::string::npos);
  EXPECT_NE(lines[0].find("\"version\":2"), std::string::npos);
  EXPECT_NE(lines[0].find("sweep_done"), std::string::npos);
  EXPECT_NE(lines[1].find("\"event\":\"cell_start\""), std::string::npos);
  EXPECT_NE(lines[1].find("\"cell\":3"), std::string::npos);
  EXPECT_NE(lines[1].find("\"seed\":123"), std::string::npos);
  EXPECT_EQ(lines[1].find("elapsed_s"), std::string::npos) << "unknown fields are omitted";
  EXPECT_EQ(lines[1].find("rss_kb"), std::string::npos);
  EXPECT_NE(lines[2].find("\"elapsed_s\":1.500000"), std::string::npos);
  EXPECT_NE(lines[2].find("\"rss_kb\":4096"), std::string::npos);
  EXPECT_NE(lines[3].find("name-with\\\"quote\\nand-newline"), std::string::npos);
  EXPECT_NE(lines[3].find("detail with \\\\ backslash"), std::string::npos);
  EXPECT_NE(lines[3].find("\"ts\":"), std::string::npos);
}

TEST(SweepEventFeedTest, ExtraJsonAndSweepEvents) {
  TempDir dir;
  const fs::path path = dir.path / "events.jsonl";
  {
    SweepEventFeed feed(path);
    feed.emit("cell_done", 0, "sc", 1, 0, 0.5, -1, {}, ",\"obs\":{\"kernel_events\":42}");
    feed.emit_sweep("sweep_done", ",\"cells\":7,\"obs\":{\"store_hits\":3}");
  }
  std::ifstream in(path);
  std::string line;
  std::vector<std::string> lines;
  while (std::getline(in, line)) lines.push_back(line);
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_NE(lines[1].find(",\"obs\":{\"kernel_events\":42}}"), std::string::npos);
  EXPECT_NE(lines[2].find("\"event\":\"sweep_done\""), std::string::npos);
  EXPECT_NE(lines[2].find(",\"cells\":7,\"obs\":{\"store_hits\":3}}"), std::string::npos);
  EXPECT_EQ(lines[2].find("\"cell\":"), std::string::npos) << "sweep events carry no cell";
}

TEST(SweepEventFeedTest, UnopenablePathThrows) {
  EXPECT_THROW(SweepEventFeed feed("/nonexistent-dir-ebrc/events.jsonl"), std::runtime_error);
}

}  // namespace
