// Round-trip of the shared bench flag plumbing (bench_common.hpp): every
// kSweepFlags flag must land in the right BenchArgs field, and the strict
// numeric parsing must reject unit-suffixed or truncated spellings at
// construction — BEFORE hours of simulation, not after.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "bench_common.hpp"

namespace {

using ebrc::bench::BenchArgs;

/// argv adapter: BenchArgs wants (argc, char**).
class Argv {
 public:
  explicit Argv(std::vector<std::string> args) : storage_(std::move(args)) {
    ptrs_.push_back(const_cast<char*>("prog"));
    for (auto& s : storage_) ptrs_.push_back(s.data());
  }
  [[nodiscard]] int argc() const { return static_cast<int>(ptrs_.size()); }
  [[nodiscard]] char** argv() { return ptrs_.data(); }

 private:
  std::vector<std::string> storage_;
  std::vector<char*> ptrs_;
};

TEST(BenchArgs, SweepFlagsRoundTrip) {
  Argv a({"--full", "--seed=9223372036854775819", "--reps=3", "--jobs=4",
          "--duration=12.5", "--cache=/tmp/cache", "--shard-index=1", "--shard-count=2",
          "--summary-out=sum.txt", "--csv=out.csv", "--keep-going", "--max-retries=2",
          "--retry-backoff=0.5", "--cell-deadline=30", "--events-out=ev.jsonl"});
  BenchArgs args(a.argc(), a.argv(), ebrc::bench::kSweepFlags);
  args.cli.finish();
  EXPECT_TRUE(args.full);
  EXPECT_EQ(args.seed, 9223372036854775819ull);  // full uint64 range
  EXPECT_EQ(args.reps, 3);
  EXPECT_EQ(args.jobs, 4u);
  ASSERT_TRUE(args.duration_override.has_value());
  EXPECT_DOUBLE_EQ(*args.duration_override, 12.5);
  ASSERT_TRUE(args.cache_dir.has_value());
  EXPECT_EQ(*args.cache_dir, "/tmp/cache");
  EXPECT_EQ(args.shard_index, 1u);
  EXPECT_EQ(args.shard_count, 2u);
  ASSERT_TRUE(args.summary_out.has_value());
  EXPECT_EQ(*args.summary_out, "sum.txt");
  ASSERT_TRUE(args.csv_path.has_value());
  EXPECT_EQ(*args.csv_path, "out.csv");
  EXPECT_TRUE(args.keep_going);
  EXPECT_EQ(args.max_retries, 2);
  EXPECT_DOUBLE_EQ(args.retry_backoff_s, 0.5);
  EXPECT_DOUBLE_EQ(args.cell_deadline_s, 30.0);
  ASSERT_TRUE(args.events_out.has_value());
  EXPECT_EQ(*args.events_out, "ev.jsonl");
  EXPECT_DOUBLE_EQ(args.seconds(1.0, 2.0), 12.5);  // override wins over --full
}

TEST(BenchArgs, DefaultsWhenNoFlags) {
  Argv a({});
  BenchArgs args(a.argc(), a.argv(), ebrc::bench::kSweepFlags);
  EXPECT_FALSE(args.full);
  EXPECT_EQ(args.seed, 1ull);
  EXPECT_EQ(args.reps, 1);
  EXPECT_EQ(args.jobs, 0u);
  EXPECT_EQ(args.shard_count, 1u);
  EXPECT_FALSE(args.cache_dir);
  EXPECT_FALSE(args.duration_override);
  EXPECT_DOUBLE_EQ(args.seconds(1.0, 2.0), 1.0);
}

TEST(BenchArgs, StrictParsingRejectsUnitSuffixes) {
  // The historical failure: --cell-deadline=10s parsed as 10 via bare stod.
  {
    Argv a({"--cell-deadline=10s"});
    EXPECT_THROW(BenchArgs(a.argc(), a.argv(), ebrc::bench::kSweepFlags),
                 std::invalid_argument);
  }
  {
    Argv a({"--duration=5min"});
    EXPECT_THROW(BenchArgs(a.argc(), a.argv(), ebrc::bench::kSweepFlags),
                 std::invalid_argument);
  }
  {
    Argv a({"--reps=1e2"});  // stoi would read 1
    EXPECT_THROW(BenchArgs(a.argc(), a.argv(), ebrc::bench::kSweepFlags),
                 std::invalid_argument);
  }
  {
    Argv a({"--retry-backoff=0.5sec"});
    EXPECT_THROW(BenchArgs(a.argc(), a.argv(), ebrc::bench::kSweepFlags),
                 std::invalid_argument);
  }
}

/// The message of the std::invalid_argument that parsing `args` throws, or
/// "" if it parses.
std::string rejection_of(std::vector<std::string> args) {
  Argv a(std::move(args));
  try {
    BenchArgs parsed(a.argc(), a.argv(), ebrc::bench::kSweepFlags);
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

TEST(BenchArgs, NonFiniteValuesRejectedNamingTheFlag) {
  // NaN compares false against every bound, so `<= 0` guards let it through:
  // --duration=nan ran every cell and printed empty tables, and
  // --cell-deadline=nan armed no deadline.
  for (const char* flag : {"duration", "cell-deadline", "retry-backoff", "probe-interval"}) {
    for (const char* v : {"nan", "inf"}) {
      const std::string msg = rejection_of({std::string("--") + flag + "=" + v});
      EXPECT_NE(msg.find(std::string("--") + flag), std::string::npos)
          << flag << "=" << v << ": " << msg;
    }
  }
}

TEST(BenchArgs, RepeatedFlagRejected) {
  const std::string msg = rejection_of({"--seed=1", "--seed=2"});
  EXPECT_NE(msg.find("--seed"), std::string::npos) << msg;
}

TEST(BenchArgs, PositionalRejectedNamingIt) {
  // The space form takes numbers only, so `--csv out.csv` leaves out.csv as
  // a positional that nothing reads: the run wrote no CSV and exited 0.
  const std::string msg = rejection_of({"--csv", "out.csv"});
  EXPECT_NE(msg.find("out.csv"), std::string::npos) << msg;
  EXPECT_NE(rejection_of({"stray"}), "");
}

TEST(BenchArgs, RangeGuardsStillFire) {
  {
    Argv a({"--reps=0"});
    EXPECT_THROW(BenchArgs(a.argc(), a.argv(), ebrc::bench::kSweepFlags),
                 std::invalid_argument);
  }
  {
    Argv a({"--shard-index=2", "--shard-count=2", "--cache=/tmp/c"});
    EXPECT_THROW(BenchArgs(a.argc(), a.argv(), ebrc::bench::kSweepFlags),
                 std::invalid_argument);
  }
  {
    Argv a({"--cell-deadline=-1"});
    EXPECT_THROW(BenchArgs(a.argc(), a.argv(), ebrc::bench::kSweepFlags),
                 std::invalid_argument);
  }
}

}  // namespace
