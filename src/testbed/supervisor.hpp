// Process-level supervision for sweep cells.
//
// PR 7's fault tolerance is exception-level: a cell that SIGSEGVs, gets OOM
// killed, or wedges in an infinite loop still takes the whole BatchRunner
// process (and every in-flight cell) with it. This layer closes that gap for
// `--isolate=process` sweeps: cells run in forked worker subprocesses, the
// parent enforces a *hard* wall-clock deadline via SIGKILL, reaps exit status
// / termination signal / rusage, and captures a bounded tail of the worker's
// stderr for the failure manifest and the crash repro bundle.
//
// Design notes:
//  - One worker per pool thread. BatchRunner forks a SupervisedWorker for
//    each of its min(jobs, misses) pool threads before the threads start,
//    and each thread feeds its own worker one cell at a time: a 16-byte
//    (cell index, attempt) request over a socketpair, answered by a
//    length-prefixed encode_result payload. Scenarios, policy and the fault
//    plan are inherited through the fork, so nothing else crosses. A warm
//    sweep has no misses and forks nothing.
//  - fork() without exec(): the worker body is a plain callable, so the cell
//    runs the exact same code path as the in-process mode (bit-identical
//    results are an acceptance criterion). The child inherits the parent's
//    address space, including mutexes another thread may hold at the
//    instant of fork, so a worker only touches fork-safe state: the
//    inherited read-only scenarios, objects it builds itself, and the
//    lock-free fault_injection read path. It never touches a ResultStore;
//    the parent decodes and stores every result.
//  - Nothing that reaches a result persists between cells, just as on an
//    in-process pool thread: each cell builds its own Simulator, Rng and
//    flows from its scenario and seed. A cell that throws ends its worker
//    (it prints the error and exits 1), so no half-run state outlives it.
//  - A dead worker is respawned. A worker that crashes, is SIGKILLed at the
//    deadline, or replies short is reaped and its outcome is attributed to
//    the cell in flight; the next request forks a fresh worker. Every
//    worker is reaped before the sweep returns, so its CPU time lands in
//    the parent's RUSAGE_CHILDREN.
//  - rss_kb is the cell's own peak: before each cell the worker hands the
//    heap earlier cells freed back to the system (malloc_trim), resets its
//    high-water mark (writes 5 to /proc/self/clear_refs), and it replies
//    with VmHWM. A dead worker's rss is its reaped ru_maxrss, which the
//    reset also confines to the dying cell. (A sanitizer's allocator keeps
//    freed memory past malloc_trim, so there it can include earlier cells'.)
//  - One poll() waits on everything that can end an attempt: the worker's
//    output pipe, its reply channel, its pidfd, and the deadline (the poll
//    timeout). There is no fork-per-attempt path beside the worker.
//  - The child's stdout AND stderr are both redirected onto the supervision
//    pipe, flushed after every cell: the parent's stdout stays
//    bit-comparable across runs, and a cell's tail never holds output of
//    the cell before it.
//  - The child exits via _exit(), never exit(): the parent's stdio buffers
//    are inherited by the fork and must not be flushed a second time.
//  - PR_SET_PDEATHSIG ensures no worker outlives a crashed parent.
#pragma once

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <mutex>
#include <string>
#include <string_view>

namespace ebrc::testbed {

/// How BatchRunner executes each cell attempt.
enum class IsolationMode {
  kInProcess,  // PR 7 behavior: cell runs on the pool thread (default)
  kProcess,    // attempts run in forked, supervised worker subprocesses
};

/// Parses an --isolate flag value ("none" | "process"). Throws
/// std::invalid_argument naming the valid values on anything else.
[[nodiscard]] IsolationMode isolation_from(const std::string& name);

/// Inverse of isolation_from, for diagnostics.
[[nodiscard]] const char* isolation_name(IsolationMode mode) noexcept;

/// Limits the supervisor enforces on one worker.
struct WorkerLimits {
  /// Hard wall-clock deadline in seconds; <= 0 disables the kill. Unlike the
  /// in-process --cell-deadline (a cooperative poll), this one is enforced
  /// with SIGKILL and therefore also stops cells wedged outside the
  /// simulator event loop.
  double deadline_s = 0.0;
  /// How much of the end of the worker's stderr to keep.
  std::size_t stderr_tail_bytes = 8192;
};

/// What happened to one supervised worker.
struct WorkerOutcome {
  bool ok = false;       // the worker replied in time
  bool crashed = false;  // died on a signal the supervisor did not send
  bool killed = false;   // SIGKILLed by the supervisor at the deadline
  int exit_code = -1;    // WEXITSTATUS when the worker exited normally
  int term_signal = 0;   // WTERMSIG when the worker died on a signal
  double elapsed_s = 0.0;
  long max_rss_kb = 0;  // ru_maxrss of the reaped worker, else the replying one's VmHWM
  std::string stderr_tail;

  /// One-line human-readable classification ("crashed: SIGSEGV", "killed at
  /// the 30 s cell deadline", "exited 1", ...).
  [[nodiscard]] std::string describe() const;
};

/// One request to a persistent worker: run batch cell `cell`, attempt
/// `attempt`.
struct WorkerRequest {
  std::uint64_t cell = 0;
  std::int64_t attempt = 0;
};

/// A long-lived forked worker that serves requests one at a time (see the
/// design notes above). Not thread-safe: one pool thread owns each worker.
class SupervisedWorker {
 public:
  /// Runs in the child once per request and returns the reply payload. An
  /// escaping exception prints to stderr and ends the worker with exit 1.
  using Serve = std::function<std::string(const WorkerRequest&)>;

  explicit SupervisedWorker(Serve serve);
  /// Stops and reaps a live worker.
  ~SupervisedWorker();
  SupervisedWorker(const SupervisedWorker&) = delete;
  SupervisedWorker& operator=(const SupervisedWorker&) = delete;

  /// Forks the worker unless one is alive. Returns false, with the reason in
  /// `*error` when given, if the pipe or the fork fails.
  bool spawn(std::string* error = nullptr);

  /// Sends `request` (spawning a worker first if none is alive) and waits
  /// for the reply under `limits`. On success the outcome is ok, `reply`
  /// holds the payload, max_rss_kb the worker's peak during this request,
  /// and stderr_tail what it printed meanwhile. Otherwise the worker has
  /// been reaped, the outcome describes its death (signal, deadline kill,
  /// or exit code, with its rusage), and the next call respawns. A fork or
  /// pipe failure reports ok = false with the reason in stderr_tail. Never
  /// throws on worker misbehavior.
  [[nodiscard]] WorkerOutcome call(const WorkerRequest& request, const WorkerLimits& limits,
                                   std::string& reply);

  /// Stops and reaps a live worker (it exits 0 on the closed channel), e.g.
  /// one whose last reply the caller could not use; the next call respawns.
  void retire();

  /// Workers forked over this object's lifetime.
  [[nodiscard]] std::size_t spawned() const noexcept { return spawned_; }

 private:
  /// Closes the descriptors of a worker that has been reaped.
  void forget();

  Serve serve_;
  int pid_ = -1;
  int pidfd_ = -1;  // -1 also where the kernel lacks pidfd_open
  int out_ = -1;    // read end of the worker's stdout+stderr pipe
  int chan_ = -1;   // parent end of the request/reply socketpair
  std::size_t spawned_ = 0;
};

/// Human-readable name for a termination signal ("SIGSEGV", "signal 42").
[[nodiscard]] std::string signal_name(int sig);

/// Append-only JSONL telemetry for a sweep (--events-out). One object per
/// line, flushed per event so `tail -f` works mid-sweep. The first line is
/// always a schema header:
///
///   {"ts":...,"event":"schema","version":2,
///    "events":"cell_start cell_done cell_failed cell_crashed cell_killed retry sweep_done",
///    "fields":"ts event cell scenario seed attempt elapsed_s rss_kb detail obs"}
///
/// then one object per event:
///
///   {"ts":1754650000.123456,"event":"cell_crashed","cell":7,
///    "scenario":"fig16/b=0.25","seed":123456789,"attempt":0,
///    "elapsed_s":1.932,"rss_kb":51240,"detail":"crashed: SIGABRT"}
///
/// cell_done events additionally carry the cell's deterministic obs snapshot
/// as a nested object: ,"obs":{"kernel_events":12345,...}. sweep_done is a
/// sweep-level event (cell fields absent) carrying store counters the same
/// way. elapsed_s / rss_kb / detail are omitted when unknown. Thread-safe:
/// BatchRunner workers emit concurrently. scripts/validate_events.py checks
/// all of this strictly; README documents the schema.
class SweepEventFeed {
 public:
  /// Opens (truncates) the feed file and writes the schema header line.
  /// Throws std::runtime_error if the path cannot be opened — a sweep asked
  /// to record telemetry must not silently drop it.
  explicit SweepEventFeed(const std::filesystem::path& path);

  /// `extra_json` is a pre-rendered fragment appended verbatim before the
  /// closing brace (e.g. `,"obs":{...}`); empty means no extra fields.
  void emit(std::string_view event, std::size_t cell, std::string_view scenario,
            std::uint64_t seed, int attempt, double elapsed_s = -1.0, long rss_kb = -1,
            std::string_view detail = {}, std::string_view extra_json = {});

  /// Sweep-level event: no cell / scenario / seed / attempt fields.
  void emit_sweep(std::string_view event, std::string_view extra_json = {});

 private:
  // Serialises line CONSTRUCTION as well as the write: the ts stamp happens
  // under this lock, so timestamps are non-decreasing in file order — a
  // property scripts/validate_events.py checks.
  std::mutex mu_;
  std::ofstream out_;
};

}  // namespace ebrc::testbed
