#include "testbed/supervisor.hpp"

#include <gtest/gtest.h>
#include <signal.h>
#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

namespace {

namespace fs = std::filesystem;
using ebrc::testbed::IsolationMode;
using ebrc::testbed::SupervisedWorker;
using ebrc::testbed::SweepEventFeed;
using ebrc::testbed::WorkerLimits;
using ebrc::testbed::WorkerOutcome;
using ebrc::testbed::WorkerRequest;
using ebrc::testbed::isolation_from;
using ebrc::testbed::isolation_name;
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

// ---- how a worker's end is reported ------------------------------------------

/// Runs one request on a fresh worker whose Serve ends however `body` does.
template <typename Body>
WorkerOutcome one_request(Body body, const WorkerLimits& limits = {}) {
  SupervisedWorker worker([&](const WorkerRequest&) -> std::string { return body(); });
  std::string reply;
  return worker.call({0, 0}, limits, reply);
}

TEST(SupervisorTest, ReplyInTimeIsOk) {
  SupervisedWorker worker([](const WorkerRequest&) { return std::string("done"); });
  std::string reply;
  const WorkerOutcome o = worker.call({0, 0}, {}, reply);
  EXPECT_TRUE(o.ok);
  EXPECT_FALSE(o.crashed);
  EXPECT_FALSE(o.killed);
  EXPECT_EQ(reply, "done");
}

TEST(SupervisorTest, CleanExitBeforeTheReplyIsNotOk) {
  const WorkerOutcome o = one_request([]() -> std::string { ::_exit(0); });
  EXPECT_FALSE(o.ok);
  EXPECT_FALSE(o.crashed);
  EXPECT_EQ(o.exit_code, 0);
  EXPECT_NE(o.stderr_tail.find("worker exited before its reply was complete"),
            std::string::npos)
      << o.stderr_tail;
}

TEST(SupervisorTest, NonzeroExitCodeIsReported) {
  const WorkerOutcome o = one_request([]() -> std::string { ::_exit(7); });
  EXPECT_FALSE(o.ok);
  EXPECT_FALSE(o.crashed);
  EXPECT_EQ(o.exit_code, 7);
  EXPECT_EQ(o.describe(), "exited 7");
}

TEST(SupervisorTest, AbortIsAttributedAsCrashWithSignal) {
  const WorkerOutcome o = one_request([]() -> std::string { std::abort(); });
  EXPECT_FALSE(o.ok);
  EXPECT_TRUE(o.crashed);
  EXPECT_FALSE(o.killed);
  EXPECT_EQ(o.term_signal, SIGABRT);
  EXPECT_NE(o.describe().find("SIGABRT"), std::string::npos);
}

TEST(SupervisorTest, SegfaultIsAttributedAsCrash) {
  const WorkerOutcome o = one_request([]() -> std::string {
    ::raise(SIGSEGV);
    return "survived";
  });
  EXPECT_TRUE(o.crashed);
  EXPECT_EQ(o.term_signal, SIGSEGV);
}

TEST(SupervisorTest, StderrTailKeepsOnlyTheEnd) {
  WorkerLimits limits;
  limits.stderr_tail_bytes = 256;
  const WorkerOutcome o = one_request(
      []() -> std::string {
        for (int i = 0; i < 1000; ++i) std::fprintf(stderr, "line %04d\n", i);
        ::_exit(3);
      },
      limits);
  EXPECT_EQ(o.exit_code, 3);
  EXPECT_LE(o.stderr_tail.size(), 256u);
  EXPECT_NE(o.stderr_tail.find("line 0999"), std::string::npos);
  EXPECT_EQ(o.stderr_tail.find("line 0000"), std::string::npos);
}

TEST(SupervisorTest, WorkerStdoutCannotReachParentStdout) {
  const WorkerOutcome o = one_request([] {
    std::printf("worker stdout noise\n");
    return std::string();
  });
  // The worker's stdout is redirected onto the supervision pipe, i.e. it
  // lands in the captured tail rather than the parent's stdout.
  EXPECT_TRUE(o.ok);
  EXPECT_NE(o.stderr_tail.find("worker stdout noise"), std::string::npos);
}

TEST(SupervisorTest, LastWordsOfAnInstantExitAreCaptured) {
  // The worker's output and its exit race: its pipe hits EOF before it is
  // reapable, and the reap can land while the output still sits in the pipe
  // buffer. Whichever wins, the tail must hold every byte.
  SupervisedWorker worker([](const WorkerRequest&) -> std::string {
    std::fprintf(stderr, "last words\n");
    ::_exit(5);
  });
  for (std::uint64_t i = 0; i < 50; ++i) {
    std::string reply;
    const WorkerOutcome o = worker.call({i, 0}, {}, reply);
    ASSERT_EQ(o.exit_code, 5) << "attempt " << i;
    ASSERT_EQ(o.stderr_tail, "last words\n") << "attempt " << i;
  }
  EXPECT_EQ(worker.spawned(), 50u);
}

TEST(SupervisorTest, InstantExitIsNotHeldBackByAPollingFloor) {
  // Waking on the worker's exit itself (not a sleep-and-recheck cadence)
  // makes a request that ends its worker cost a round trip and a reap, well
  // under a millisecond. The fastest of ten stays far below the 10 ms a
  // polling loop's sleep would add, even on a loaded host.
  SupervisedWorker worker([](const WorkerRequest&) -> std::string { ::_exit(3); });
  double fastest = 1e9;
  for (std::uint64_t i = 0; i < 10; ++i) {
    ASSERT_TRUE(worker.spawn());  // the fork itself is not part of the wait
    std::string reply;
    const WorkerOutcome o = worker.call({i, 0}, {}, reply);
    ASSERT_EQ(o.exit_code, 3);
    fastest = std::min(fastest, o.elapsed_s);
  }
  EXPECT_LT(fastest, 0.005);
}

TEST(SupervisorTest, RusageIsReaped) {
  const WorkerOutcome o = one_request([]() -> std::string { ::_exit(0); });
  EXPECT_GT(o.max_rss_kb, 0) << "ru_maxrss of a real process is never zero";
}

// ---- the persistent worker ----------------------------------------------------

TEST(SupervisedWorkerTest, OneProcessServesEveryRequest) {
  SupervisedWorker worker([](const WorkerRequest& req) {
    return std::to_string(::getpid()) + ":" + std::to_string(req.cell) + ":" +
           std::to_string(req.attempt);
  });
  ASSERT_TRUE(worker.spawn());
  std::string first_pid;
  for (std::uint64_t cell = 0; cell < 5; ++cell) {
    std::string reply;
    const WorkerOutcome o = worker.call({cell, 2}, {}, reply);
    ASSERT_TRUE(o.ok) << o.describe() << " " << o.stderr_tail;
    const std::string pid = reply.substr(0, reply.find(':'));
    EXPECT_NE(pid, std::to_string(::getpid())) << "the request ran in a child";
    if (cell == 0) first_pid = pid;
    EXPECT_EQ(pid, first_pid) << "request " << cell << " forked a new worker";
    EXPECT_EQ(reply.substr(reply.find(':')), ":" + std::to_string(cell) + ":2");
  }
  EXPECT_EQ(worker.spawned(), 1u);
}

TEST(SupervisedWorkerTest, LargeRepliesArriveWhole) {
  SupervisedWorker worker([](const WorkerRequest& req) {
    std::string payload(std::size_t{3} << 20, '\0');
    for (std::size_t i = 0; i < payload.size(); ++i) {
      payload[i] = static_cast<char>((i * 31 + req.cell) & 0xff);
    }
    return payload;
  });
  for (std::uint64_t cell = 0; cell < 2; ++cell) {
    std::string reply;
    ASSERT_TRUE(worker.call({cell, 0}, {}, reply).ok);
    ASSERT_EQ(reply.size(), std::size_t{3} << 20);
    bool same = true;
    for (std::size_t i = 0; i < reply.size(); ++i) {
      same = same && reply[i] == static_cast<char>((i * 31 + cell) & 0xff);
    }
    EXPECT_TRUE(same) << "reply " << cell << " was corrupted in transit";
  }
}

TEST(SupervisedWorkerTest, CrashTailHoldsOnlyTheCrashingRequestsOutput) {
  // Every request prints on buffered stdout and on stderr; request 1 then
  // aborts (which may or may not flush its own stdout). Its tail must hold
  // its own words and nothing of request 0's, buffered or not.
  SupervisedWorker worker([](const WorkerRequest& req) -> std::string {
    std::printf("stdout of request %llu\n", static_cast<unsigned long long>(req.cell));
    std::fprintf(stderr, "stderr of request %llu\n",
                 static_cast<unsigned long long>(req.cell));
    if (req.cell == 1) std::abort();
    return "fine";
  });
  std::string reply;
  const WorkerOutcome first = worker.call({0, 0}, {}, reply);
  ASSERT_TRUE(first.ok);
  EXPECT_NE(first.stderr_tail.find("stdout of request 0"), std::string::npos)
      << first.stderr_tail;
  EXPECT_NE(first.stderr_tail.find("stderr of request 0"), std::string::npos);

  const WorkerOutcome crash = worker.call({1, 0}, {}, reply);
  EXPECT_FALSE(crash.ok);
  EXPECT_TRUE(crash.crashed);
  EXPECT_EQ(crash.term_signal, SIGABRT);
  EXPECT_EQ(crash.stderr_tail.find("request 0"), std::string::npos) << crash.stderr_tail;
  EXPECT_EQ(crash.stderr_tail.rfind("stderr of request 1\n", 0), 0u) << crash.stderr_tail;
  EXPECT_GT(crash.max_rss_kb, 0) << "a dead worker reports its reaped ru_maxrss";

  const WorkerOutcome after = worker.call({2, 0}, {}, reply);
  ASSERT_TRUE(after.ok) << "the next request runs on a respawned worker";
  // stderr is unbuffered; stdout is flushed once the request is done.
  EXPECT_EQ(after.stderr_tail, "stderr of request 2\nstdout of request 2\n");
  EXPECT_EQ(worker.spawned(), 2u);
}

TEST(SupervisedWorkerTest, DeadlineKillIsATimeoutAndTheNextCallRespawns) {
  SupervisedWorker worker([](const WorkerRequest& req) -> std::string {
    if (req.cell == 0) {
      for (;;) std::this_thread::sleep_for(std::chrono::hours(1));
    }
    return "ok";
  });
  WorkerLimits limits;
  limits.deadline_s = 0.3;
  std::string reply;
  const auto t0 = std::chrono::steady_clock::now();
  const WorkerOutcome hung = worker.call({0, 0}, limits, reply);
  const double waited = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  EXPECT_FALSE(hung.ok);
  EXPECT_TRUE(hung.killed);
  EXPECT_FALSE(hung.crashed) << "a deadline kill must not be misattributed as a crash";
  EXPECT_EQ(hung.term_signal, SIGKILL);
  EXPECT_GE(hung.elapsed_s, 0.3);
  EXPECT_LT(waited, 30.0) << "the supervisor must not wait for the sleep to finish";
  EXPECT_NE(hung.describe().find("deadline"), std::string::npos);

  const WorkerOutcome next = worker.call({1, 0}, limits, reply);
  ASSERT_TRUE(next.ok) << next.describe();
  EXPECT_EQ(reply, "ok");
  EXPECT_EQ(worker.spawned(), 2u);
}

TEST(SupervisedWorkerTest, ThrowingRequestEndsTheWorkerWithExitOne) {
  SupervisedWorker worker([](const WorkerRequest& req) -> std::string {
    if (req.attempt == 0) throw std::runtime_error("deliberate request failure");
    return "recovered";
  });
  std::string reply;
  const WorkerOutcome failed = worker.call({7, 0}, {}, reply);
  EXPECT_FALSE(failed.ok);
  EXPECT_FALSE(failed.crashed);
  EXPECT_EQ(failed.exit_code, 1);
  EXPECT_NE(failed.stderr_tail.find("worker: deliberate request failure"), std::string::npos);
  ASSERT_TRUE(worker.call({7, 1}, {}, reply).ok);
  EXPECT_EQ(reply, "recovered");
}

TEST(SupervisedWorkerTest, ReportsEachRequestsOwnPeakRss) {
  // Request 0 touches 64 MB and unmaps it; request 1 touches nothing. The
  // per-request high-water reset keeps request 0's peak out of request 1's.
  // (mmap, not new: an allocator may keep freed memory resident.)
  SupervisedWorker worker([](const WorkerRequest& req) -> std::string {
    if (req.cell == 0) {
      constexpr std::size_t kBytes = std::size_t{64} << 20;
      void* block = ::mmap(nullptr, kBytes, PROT_READ | PROT_WRITE,
                           MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
      if (block == MAP_FAILED) throw std::runtime_error("mmap failed");
      std::memset(block, 1, kBytes);
      const char last = static_cast<const char*>(block)[kBytes - 1];
      ::munmap(block, kBytes);
      return std::string(1, last);
    }
    return "small";
  });
  std::string reply;
  const WorkerOutcome big = worker.call({0, 0}, {}, reply);
  const WorkerOutcome small = worker.call({1, 0}, {}, reply);
  ASSERT_TRUE(big.ok);
  ASSERT_TRUE(small.ok);
  EXPECT_GT(small.max_rss_kb, 0);
  EXPECT_GT(big.max_rss_kb, small.max_rss_kb + 32 * 1024)
      << "big " << big.max_rss_kb << " kB, small " << small.max_rss_kb << " kB";
}

// The worker hands freed heap back with glibc's malloc_trim. A sanitizer's
// allocator replaces glibc's and keeps freed memory (ASan's quarantine,
// TSan's caches), so there the next request's peak includes it.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define EBRC_SANITIZER_ALLOCATOR 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define EBRC_SANITIZER_ALLOCATOR 1
#endif
#endif

TEST(SupervisedWorkerTest, HeapFreedByAnEarlierRequestIsNotCountedInTheNextOnesPeak) {
#if defined(EBRC_SANITIZER_ALLOCATOR) || !defined(__GLIBC__)
  GTEST_SKIP() << "needs glibc's allocator and malloc_trim";
#endif
  // Request 0 fills 64 MB of small heap blocks and frees all but the last,
  // so the freed heap cannot shrink from the top and stays resident until
  // the allocator is told to release it.
  // Request 1 allocates nothing; its peak must not include request 0's heap.
  SupervisedWorker worker([](const WorkerRequest& req) -> std::string {
    if (req.cell != 0) return "small";
    constexpr std::size_t kBlock = 4096;
    constexpr std::size_t kBlocks = (std::size_t{64} << 20) / kBlock;
    std::vector<std::unique_ptr<char[]>> blocks;
    blocks.reserve(kBlocks);
    for (std::size_t i = 0; i < kBlocks; ++i) {
      blocks.emplace_back(new char[kBlock]);
      std::memset(blocks.back().get(), static_cast<int>(i & 0x7f), kBlock);
    }
    long sum = 0;
    for (const auto& b : blocks) sum += b[kBlock - 1];
    // The newest block sits at the top of the heap; it outlives the request
    // on purpose and pins the freed ones below it.
    static char* const pin = blocks.back().release();
    return std::to_string(sum + pin[0]);
  });
  std::string reply;
  const WorkerOutcome big = worker.call({0, 0}, {}, reply);
  const WorkerOutcome small = worker.call({1, 0}, {}, reply);
  ASSERT_TRUE(big.ok) << big.describe() << " " << big.stderr_tail;
  ASSERT_TRUE(small.ok);
  EXPECT_EQ(worker.spawned(), 1u) << "both requests ran in one process";
  EXPECT_GT(small.max_rss_kb, 0);
  EXPECT_GT(big.max_rss_kb, small.max_rss_kb + 32 * 1024)
      << "big " << big.max_rss_kb << " kB, small " << small.max_rss_kb << " kB";
}

TEST(SupervisedWorkerTest, RetireReapsAndTheNextCallRespawns) {
  SupervisedWorker worker([](const WorkerRequest&) { return std::to_string(::getpid()); });
  std::string before;
  std::string after;
  ASSERT_TRUE(worker.call({0, 0}, {}, before).ok);
  worker.retire();
  ASSERT_TRUE(worker.call({0, 0}, {}, after).ok);
  EXPECT_NE(before, after);
  EXPECT_EQ(worker.spawned(), 2u);
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
