// Deterministic fault-injection harness for the sweep execution layer.
//
// Compiled in unconditionally (the hooks are a disarmed atomic-flag check on
// the hot path, ~1 ns) and armed only by tests and the --inject-faults CLI
// hook, this is how the fault-tolerance machinery in batch.cpp and
// result_store.cpp is PROVEN rather than assumed: a test arms a plan of
// injections at chosen cells, runs a real sweep, and asserts the failure
// manifest, the retry counters, and the resume behavior.
//
// Fault kinds and what their `key` means:
//
//   kThrow            — throw from inside the cell executor. key = batch cell
//                       index; fires on the spec's attempt (default 0, the
//                       first try — so a sweep with --max-retries >= 1
//                       recovers, modeling a transient infra failure;
//                       attempt = kEveryAttempt makes it persistent).
//   kCrash            — abort() inside the cell executor, modeling SIGSEGV /
//                       SIGABRT worker death. Under --isolate=process only
//                       the worker subprocess dies; in-process it takes the
//                       whole driver down (that asymmetry is the point).
//                       key = batch cell index; attempt as above.
//   kHang             — wedge the cell: under --isolate=process the worker
//                       sleeps far past any deadline until the supervisor
//                       SIGKILLs it; in-process it spins on the cooperative
//                       wall-deadline poll until that throws. key = batch
//                       cell index; attempt as above.
//   kOomStorm         — allocate until the allocator gives out: under
//                       --isolate=process the worker caps its own RLIMIT_AS,
//                       allocates to the cap, and aborts (a deterministic
//                       stand-in for the kernel OOM killer; under a
//                       sanitizer its allocator reports and exits instead,
//                       which the supervisor also attributes as a crash,
//                       "out of memory"); in-process it
//                       throws std::bad_alloc. key = batch cell index;
//                       attempt as above.
//   kTornCacheWrite   — truncate a ResultStore entry to half its size right
//                       after the atomic rename, modeling post-crash on-disk
//                       corruption. key = the store's write ordinal (0-based
//                       count of store() calls on that ResultStore).
//   kTornIndexRecord  — write only a prefix of an INDEX.ebrcidx record,
//                       modeling a crash mid-append. key = the store's index
//                       append ordinal.
//
// Plans parse from a compact spec string (the --inject-faults value):
//
//   "throw@3,throw@7:1,crash@1:*,hang@2:*,oom@4,torn-cache@0"
//
// i.e. comma/semicolon-separated `kind@key[:attempt]` tokens where kind is
// throw | crash | hang | oom | torn-cache | torn-index and
// `:attempt` (all cell-keyed kinds) selects the attempt to fire on
// (`:*` = every attempt).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace ebrc::testbed::fault {

enum class Kind {
  kThrow,
  kCrash,
  kHang,
  kOomStorm,
  kTornCacheWrite,
  kTornIndexRecord,
};

/// Fires on every attempt instead of one specific attempt number.
inline constexpr int kEveryAttempt = -1;

struct Injection {
  Kind kind = Kind::kThrow;
  std::uint64_t key = 0;  // cell index or write/append ordinal (see above)
  int attempt = 0;        // cell-keyed kinds only; kEveryAttempt = all
};

/// Replaces the armed plan. Thread-safe against other arm()/disarm() calls,
/// but must not race a concurrent fire(): the read path is deliberately
/// lock-free so a forked worker can fire() without touching a mutex the
/// parent's threads may hold (fork snapshots mutexes mid-lock). Sweeps arm
/// the plan before launching workers and disarm after joining them.
void arm(std::vector<Injection> plan);

/// Clears the plan; every subsequent fire() is false.
void disarm();

/// True when a plan is armed (cheap, lock-free).
[[nodiscard]] bool armed() noexcept;

/// True when the armed plan contains a matching injection — the caller must
/// then inject the fault. Disarmed: always false.
[[nodiscard]] bool fire(Kind kind, std::uint64_t key, int attempt = 0);

/// Parses the --inject-faults spec syntax documented above. Throws
/// std::invalid_argument naming the offending token on malformed input.
[[nodiscard]] std::vector<Injection> parse_plan(const std::string& spec);

}  // namespace ebrc::testbed::fault
