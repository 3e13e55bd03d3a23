// Batch execution engine: fans a vector of scenarios (scenarios × seeds) out
// across a bounded team of worker threads and aggregates the per-run
// metrics. Workers are spawned per run()/map() call and joined before it
// returns — there is no persistent pool, so a BatchRunner is cheap to
// construct and carries no state beyond its job count. Every run owns its Simulator and Rng, and every Scenario carries a
// seed assigned BEFORE the batch is launched (see replicate() and the sweep
// generators in scenario_registry.hpp), so per-run results are bit-identical
// regardless of how many workers the pool has — --jobs only changes
// wall-clock time, never numbers.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <filesystem>
#include <map>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "stats/online.hpp"
#include "testbed/experiment.hpp"
#include "testbed/scenario.hpp"
#include "testbed/supervisor.hpp"

namespace ebrc::obs {
class TraceWriter;
}

namespace ebrc::testbed {

class ResultStore;

/// One process's slice of a sweep: this process owns batch indices i with
/// i % count == index (interleaved, so every shard gets a balanced mix of
/// cheap and expensive grid cells). count == 1 is the whole sweep.
struct ShardSpec {
  std::size_t index = 0;
  std::size_t count = 1;

  ShardSpec() = default;
  /// Throws std::invalid_argument unless index < count and count >= 1.
  ShardSpec(std::size_t index, std::size_t count);

  [[nodiscard]] bool owns(std::size_t i) const noexcept { return i % count == index; }
  [[nodiscard]] bool whole() const noexcept { return count == 1; }
};

/// One cell that exhausted its attempts: everything needed to name, triage,
/// and re-run it — the failure manifest is a list of these.
struct CellFailure {
  std::size_t index = 0;      // position in the batch
  std::string scenario;       // cell's scenario name
  std::uint64_t seed = 0;     // derived per-replication seed
  std::size_t shard = 0;      // shard index that owned the cell
  int attempts = 0;           // total attempts made (1 = no retries)
  bool timed_out = false;     // final attempt tripped the cell deadline
  bool crashed = false;       // final attempt's worker died on a signal
  int signal = 0;             // the terminating signal when crashed/killed
  double elapsed_s = 0.0;     // wall-clock of the final attempt
  long max_rss_kb = 0;        // the attempt's peak RSS (process isolation only)
  std::string what;           // exception what() or the supervisor diagnostic
};

/// How run() treats a failing cell. The default is the historical behavior:
/// fail fast, no retries, no deadline — the first failing cell aborts the
/// sweep (with the cell named in the rethrown error). keep_going instead
/// isolates failures: every healthy cell completes, failed cells are
/// captured as CellFailures in the SweepReport, and an attached store makes
/// a re-run simulate only the missing/failed cells, bit-identical to a
/// clean cold run (seeds are never perturbed by retries or resumption).
struct RunPolicy {
  bool keep_going = false;
  int max_retries = 0;        // extra attempts per failing cell, same seed
  double cell_deadline_s = 0;  // > 0: wall-clock budget per attempt
  double backoff_base_s = 0;  // sleep base*2^k before retry k+1 (0 = none)

  /// kProcess runs every simulated attempt in a forked, supervised worker
  /// subprocess, one persistent worker per pool thread (supervisor.hpp): a
  /// SIGSEGV/OOM-killed/wedged cell becomes a retryable CellFailure instead
  /// of taking the sweep down, its worker is respawned, and cell_deadline_s
  /// is enforced with a hard SIGKILL rather than the cooperative in-process
  /// poll. Results cross back bit-exactly (encoded double bit patterns) and
  /// the parent stores them, so isolation never changes numbers. Cache
  /// probes stay in-process either way — a warm sweep forks nothing.
  IsolationMode isolate = IsolationMode::kInProcess;
  /// When non-empty, each crashed/killed cell leaves a repro bundle under
  /// <crash_dir>/cell-<index>/ (scenario TOML with the derived seed, the
  /// worker's stderr tail, exit status, and the sweep invocation).
  std::string crash_dir;
  /// The driver's command line, verbatim, for the repro bundle.
  std::string invocation;
  /// Optional JSONL telemetry sink (not owned; must outlive run()).
  SweepEventFeed* events = nullptr;

  // --- observability (PR 10) ----------------------------------------------
  /// > 0: every simulated cell gets an obs::Probe sampling its registered
  /// gauges at this sim-time interval (series surface via
  /// ExperimentResult::obs_series on freshly simulated cells; cache hits
  /// have no simulator to sample and carry none).
  double probe_interval_s = 0.0;
  /// Ring capacity per probed series.
  std::size_t probe_capacity = 4096;
  /// Optional sweep-wide chrome://tracing sink (not owned; must outlive
  /// run()). In-process cells absorb their full trace (transfer spans, drop
  /// instants, probe counter tracks) as they finish; process-isolated cells
  /// contribute only their attempt span — the cell's buffer stays in the
  /// worker's address space.
  obs::TraceWriter* trace = nullptr;
  /// Process-isolated attempts arm an obs::FlightRecorder automatically
  /// whenever crash_dir is set (one ring per worker, rewound at each cell
  /// start); a crashed/killed cell's bundle then contains flight_recorder.txt
  /// with the kernel's last executed events of that cell.
};

/// What a (possibly cached, possibly sharded) batch run actually did.
/// complete() means every result slot is populated — either freshly
/// simulated or loaded bit-identical from the store — so downstream
/// aggregation and table printing are meaningful.
struct SweepReport {
  std::size_t total = 0;
  std::size_t hits = 0;       // loaded from the store
  std::size_t simulated = 0;  // run here (and stored, when a store is attached)
  std::size_t skipped = 0;    // cache misses owned by other shards
  std::size_t failed = 0;     // cells that exhausted their attempts (keep_going)
  std::size_t retried = 0;    // extra attempts consumed across all cells
  std::size_t timed_out = 0;  // failed cells whose last attempt hit the deadline
  std::size_t crashed = 0;    // failed cells whose last attempt died on a signal
  std::size_t quarantined = 0;  // corrupt cache entries moved to *.corrupt
  std::size_t workers_spawned = 0;  // worker processes forked (process isolation)
  std::vector<std::uint8_t> available;  // per-index: result slot populated
  std::vector<CellFailure> failures;    // index-ordered, one per failed cell

  [[nodiscard]] bool complete() const noexcept { return hits + simulated == total; }
};

/// Expands `base` into `reps` replications whose seeds are derived
/// deterministically from `root_seed` and the replication index (not from the
/// scenario's own seed field, which is overwritten).
[[nodiscard]] std::vector<Scenario> replicate(const Scenario& base, std::uint64_t root_seed,
                                              int reps);

/// A variance-reduction pairing of two configurations: a[i] and b[i] carry
/// the SAME derived seed, so every stochastic component that hashes its name
/// off the scenario seed draws common random numbers in both runs and their
/// metric difference cancels the shared sampling noise.
struct PairedBatch {
  std::vector<Scenario> a;
  std::vector<Scenario> b;
};

/// Expands the (a, b) contrast into `reps` common-random-number pairs. Seeds
/// derive from (root_seed, pair_tag, rep) — NOT from either scenario's name,
/// so renaming one arm never silently unpairs the contrast. The scenarios'
/// fingerprints still differ (name + differing fields), so a shared result
/// cache keeps the two arms' entries apart.
[[nodiscard]] PairedBatch replicate_paired(const Scenario& a, const Scenario& b,
                                           const std::string& pair_tag,
                                           std::uint64_t root_seed, int reps);

/// Per-metric summary of a batch: mean/stddev/CI across runs via
/// stats::OnlineMoments. Metric keys are the ExperimentResult aggregate names
/// ("tfrc_throughput", "friendliness", "conservativeness", ...).
struct BatchResult {
  std::size_t runs = 0;
  std::map<std::string, stats::OnlineMoments> metrics;

  /// Accumulator for `name`; throws std::out_of_range with the known keys
  /// listed when the metric was never recorded.
  [[nodiscard]] const stats::OnlineMoments& metric(const std::string& name) const;
  [[nodiscard]] double mean(const std::string& name) const { return metric(name).mean(); }
  /// 95% normal-approximation half-width on the mean of `name`.
  [[nodiscard]] double ci(const std::string& name) const {
    return metric(name).ci_halfwidth();
  }
};

/// Folds the per-run aggregates (and four-way breakdown) of `runs` into one
/// BatchResult. Runs with a zero metric still contribute zeros — callers that
/// want "valid runs only" should filter first.
[[nodiscard]] BatchResult aggregate(const std::vector<ExperimentResult>& runs);

/// Paired-difference fold over CRN-paired runs: for every metric common to
/// both arms, metric(name) accumulates (a[i] − b[i]) across pairs, so
/// mean(name) is the paired-difference estimate and ci(name) its 95%
/// half-width — typically far tighter than differencing two independent
/// CIs when the arms share seeds (replicate_paired). Requires equal sizes.
[[nodiscard]] BatchResult paired_difference(const std::vector<ExperimentResult>& a,
                                            const std::vector<ExperimentResult>& b);

/// Bounded parallel executor over self-contained simulation runs; at most
/// `jobs` worker threads live at a time, spawned per call.
class BatchRunner {
 public:
  /// `jobs` = 0 picks std::thread::hardware_concurrency() (min 1).
  explicit BatchRunner(std::size_t jobs = 0);

  [[nodiscard]] std::size_t jobs() const noexcept { return jobs_; }

  /// Runs every scenario through run_experiment(); results in input order.
  /// A throwing cell aborts the run with the cell's name and seed wrapped
  /// into the rethrown error.
  [[nodiscard]] std::vector<ExperimentResult> run(const std::vector<Scenario>& scenarios) const;

  /// The sweep-persistence entry point: consults `store` (may be null) before
  /// simulating, simulates only the cache-missing indices owned by `shard`,
  /// and persists what it simulated. Results come back in input order;
  /// indices that were neither cached nor owned stay default-constructed
  /// (report->available tells them apart). Cache hits are bit-identical to
  /// the simulation they stand in for, so a warm-cache run reproduces a cold
  /// run exactly while performing zero simulations.
  ///
  /// `policy` governs failing cells (see RunPolicy): fail fast by default;
  /// under keep_going a failed cell is recorded in report->failures and the
  /// rest of the sweep completes. The per-attempt deadline is cooperative
  /// in-process — polled inside the simulator event loop every 64k events,
  /// so a runaway cell times out mid-run — and a hard SIGKILL under
  /// policy.isolate = kProcess. Either way a timed-out cell is excluded
  /// from results and the store, exactly as if it had thrown.
  [[nodiscard]] std::vector<ExperimentResult> run(const std::vector<Scenario>& scenarios,
                                                  const ResultStore* store,
                                                  ShardSpec shard = {},
                                                  SweepReport* report = nullptr,
                                                  const RunPolicy& policy = {}) const;

  /// run() followed by aggregate().
  [[nodiscard]] BatchResult run_aggregate(const std::vector<Scenario>& scenarios) const;

  /// Deterministic parallel map: evaluates fn(i) for i in [0, n) across the
  /// pool and returns the results in index order. fn must be self-contained
  /// (its own Simulator/Rng/loss process) — it runs concurrently with other
  /// indices. The first exception thrown by any fn is rethrown here after
  /// all workers have stopped. The callable is taken as a template (invoked
  /// through one function pointer + context pointer in the driver), so no
  /// std::function sits on the per-run dispatch path.
  template <typename T, typename Fn>
  [[nodiscard]] std::vector<T> map(std::size_t n, Fn&& fn) const {
    static_assert(std::is_invocable_r_v<T, Fn&, std::size_t>);
    std::vector<T> out(n);
    auto body = [&](std::size_t i) { out[i] = fn(i); };
    dispatch(
        n,
        [](void* ctx, std::size_t, std::size_t i) { (*static_cast<decltype(body)*>(ctx))(i); },
        &body);
    return out;
  }

 private:
  /// Shared work-queue driver behind run() and map(): claims indices off an
  /// atomic counter and invokes `invoke(ctx, slot, i)` on the worker team,
  /// where slot in [0, min(jobs, n)) names the calling thread.
  void dispatch(std::size_t n, void (*invoke)(void*, std::size_t slot, std::size_t i),
                void* ctx) const;

  std::size_t jobs_;
};

// ---- sweep summaries across processes ---------------------------------------

/// Folds per-shard summaries into one via stats::OnlineMoments::merge
/// (count/min/max exact; mean/variance agree with the unsharded aggregate up
/// to floating-point rounding). For BIT-identical merged sweeps, shard
/// through a shared ResultStore and re-run the sweep unsharded against the
/// warm cache instead: aggregate() then folds the same per-run results in
/// the same order as a from-scratch run.
[[nodiscard]] BatchResult merge_batch_results(const std::vector<BatchResult>& parts);

/// Text round-trip for BatchResult summary files (one "metric <name> <count>
/// <mean> <m2> <min> <max>" line per metric; doubles in std::to_chars
/// shortest form, so values survive exactly). load throws
/// std::runtime_error/std::invalid_argument on unreadable or malformed files.
void save_batch_result(const BatchResult& result, const std::filesystem::path& path);
[[nodiscard]] BatchResult load_batch_result(const std::filesystem::path& path);

/// Text round-trip for the failure manifest a keep_going sweep writes next
/// to --summary-out (one "cell <index> seed <seed> shard <shard> attempts
/// <n> timed_out <0|1> crashed <0|1> signal <n> elapsed_s <s> scenario
/// <name> what <message...>" line per failure; whitespace and control
/// characters in scenario names are sanitized to '_', the message keeps the
/// rest of the line with newlines flattened). load throws on unreadable or
/// malformed files.
void save_failure_manifest(const std::vector<CellFailure>& failures,
                           const std::filesystem::path& path);
[[nodiscard]] std::vector<CellFailure> load_failure_manifest(const std::filesystem::path& path);

}  // namespace ebrc::testbed
