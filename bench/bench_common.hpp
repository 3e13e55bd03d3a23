// Shared scaffolding for the figure-reproduction binaries.
//
// Every binary accepts:
//   --full        paper-scale sample sizes (default: reduced but meaningful)
//   --seed=N      root seed, full 64-bit range (default 1)
//   --csv=path    additionally dump the series as CSV
// and prints its series as an aligned table with the same rows/columns the
// paper's figure reports. Binaries ported onto the batch engine (those
// passing kBatchFlags) additionally accept:
//   --reps=N      independent replications per configuration (default 1)
//   --jobs=N      worker threads for the batch engine (default 0 = all cores)
// time-driven binaries (kDurationFlag):
//   --duration=S  override the figure's simulated seconds
// and scenario-sweep binaries (kSweepFlags) the persistence layer:
//   --cache=DIR       on-disk ResultStore; hits skip simulation bit-identically
//   --shard-index=I   this process's shard (0-based)
//   --shard-count=N   total shards; only cells with cell%N == I simulate here
//   --summary-out=F   write the aggregated BatchResult summary file to F
//   --scenario=FILE   run a stored .toml/.json scenario file (replicated
//                     --reps times) through the persistence layer INSTEAD of
//                     the binary's built-in grid, with a generic summary
// and the fault-tolerance policy switches:
//   --keep-going      isolate failing cells (complete the healthy ones,
//                     report failures + write a manifest next to
//                     --summary-out) instead of the default --fail-fast
//   --max-retries=N   extra attempts per failing cell, seeds UNCHANGED
//   --retry-backoff=S deterministic backoff: sleep S*2^k before retry k+1
//   --cell-deadline=S per-attempt wall-clock budget; overruns fail the cell
//                     (polled inside the event loop in-process, enforced
//                     with SIGKILL under --isolate=process)
//   --inject-faults=P arm the fault-injection harness (testbed/
//                     fault_injection.hpp spec syntax) — test/CI hook
//   --isolate=M       none (default) or process: run each simulated cell
//                     attempt in a forked, supervised worker subprocess so
//                     SIGSEGV/OOM/hangs become retryable CellFailures with
//                     repro bundles under <summary-out>.crashes/
//   --events-out=F    append-only JSONL telemetry (schema header + cell_start/
//                     cell_done/cell_failed/cell_crashed/cell_killed/retry/
//                     sweep_done; cell_done carries the obs snapshot)
// and the observability switches (PR 10):
//   --probe-interval=S sample every registered gauge each S simulated seconds
//                     into ring-buffered series (printed, downsampled, by
//                     drivers that call print_probe_series)
//   --trace-out=F     write a chrome://tracing JSON trace of the sweep
//                     (transfer spans, drop instants, probe counter tracks;
//                     load via chrome://tracing or ui.perfetto.dev)
// Multi-rep runs aggregate with mean and a 95% CI; per-run numbers depend
// only on --seed, never on --jobs, the cache, or the shard layout.
// Diagnostics ([cache]/[shard]/[sweep]/[fail] lines) go to stderr so stdout
// stays bit-comparable across cold, warm, shard-merged, and resumed runs.
#pragma once

#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "obs/trace.hpp"
#include "testbed/batch.hpp"
#include "testbed/fault_injection.hpp"
#include "testbed/result_store.hpp"
#include "testbed/scenario_io.hpp"
#include "testbed/wan_paths.hpp"
#include "util/cli.hpp"
#include "util/csv.hpp"
#include "util/table.hpp"

namespace ebrc::bench {

/// Tag for binaries ported onto the batch engine; enables --reps/--jobs.
inline constexpr int kBatchFlags = 1;
/// Tag for binaries whose workload is simulated seconds; enables the
/// --duration override. Event-count-driven binaries (fig03/04/06, ablation)
/// must keep rejecting it loudly rather than silently ignoring it.
inline constexpr int kDurationFlag = 4;
/// Tag for Scenario-sweep binaries; adds --cache/--shard-index/--shard-count/
/// --summary-out (and --duration) on top of kBatchFlags.
inline constexpr int kSweepFlags = kBatchFlags | 2 | kDurationFlag;

struct BenchArgs {
  bool full = false;
  std::uint64_t seed = 1;
  int reps = 1;
  std::size_t jobs = 0;  // 0 = hardware concurrency
  std::size_t shard_index = 0;
  std::size_t shard_count = 1;
  std::optional<std::string> cache_dir;
  std::optional<std::string> summary_out;
  std::optional<std::string> scenario_file;
  std::optional<double> duration_override;
  std::optional<std::string> csv_path;
  bool keep_going = false;
  int max_retries = 0;
  double retry_backoff_s = 0.0;
  double cell_deadline_s = 0.0;  // 0 = no deadline
  std::optional<std::string> fault_plan;
  testbed::IsolationMode isolate = testbed::IsolationMode::kInProcess;
  std::optional<std::string> events_out;
  double probe_interval_s = 0.0;  // 0 = probes off
  std::optional<std::string> trace_out;
  std::string invocation;  // the argv, rejoined — for crash repro bundles
  util::Cli cli;

  /// --reps/--jobs (and the sweep flags) are only registered when the binary
  /// opts in: a binary that still runs its own serial loop must keep
  /// rejecting them loudly rather than silently running one replication.
  BenchArgs(int argc, char** argv, int flags = 0) : cli(argc, argv) {
    cli.know("full").know("seed").know("csv").know("help");
    // No figure binary reads a positional; one is almost always a value
    // meant for the flag before it (`--csv out.csv`, where the space form
    // takes numbers only).
    if (!cli.positional().empty()) {
      throw std::invalid_argument("unexpected argument '" + cli.positional().front() +
                                  "' (give flag values as --flag=value)");
    }
    full = cli.get("full", false);
    seed = cli.get("seed", std::uint64_t{1});
    if ((flags & kDurationFlag) != 0) {
      cli.know("duration");
      if (cli.has("duration")) {
        const double d = cli.get("duration", 0.0);
        if (d <= 0) throw std::invalid_argument("--duration must be > 0 seconds");
        duration_override = d;
      }
    }
    if ((flags & kBatchFlags) != 0) {
      cli.know("reps").know("jobs");
      reps = cli.get("reps", 1);
      if (reps < 1) throw std::invalid_argument("--reps must be >= 1");
      const int jobs_flag = cli.get("jobs", 0);
      if (jobs_flag < 0) throw std::invalid_argument("--jobs must be >= 0");
      jobs = static_cast<std::size_t>(jobs_flag);
    }
    if ((flags & kSweepFlags) == kSweepFlags) {
      cli.know("cache").know("shard-index").know("shard-count").know("summary-out");
      const int count = cli.get("shard-count", 1);
      if (count < 1) throw std::invalid_argument("--shard-count must be >= 1");
      const int index = cli.get("shard-index", 0);
      if (index < 0) throw std::invalid_argument("--shard-index must be >= 0");
      // Delegates the index < count check (and its error message) to ShardSpec.
      const testbed::ShardSpec spec(static_cast<std::size_t>(index),
                                    static_cast<std::size_t>(count));
      shard_index = spec.index;
      shard_count = spec.count;
      if (cli.has("cache")) {
        cache_dir = cli.get("cache", std::string{});
        if (cache_dir->empty()) throw std::invalid_argument("--cache needs a directory path");
      }
      if (shard_count > 1 && !cache_dir) {
        throw std::invalid_argument(
            "--shard-count > 1 requires --cache: shards persist their cells there and a final "
            "unsharded run (or merge_results --into) folds them back together");
      }
      if (cli.has("summary-out")) {
        summary_out = cli.get("summary-out", std::string{});
        // Fail before the sweep, not after hours of simulation.
        if (summary_out->empty()) {
          throw std::invalid_argument("--summary-out needs a file path");
        }
      }
      cli.know("scenario");
      if (cli.has("scenario")) {
        scenario_file = cli.get("scenario", std::string{});
        if (scenario_file->empty()) {
          throw std::invalid_argument("--scenario needs a .toml or .json file path");
        }
      }
      cli.know("keep-going").know("fail-fast").know("max-retries").know("retry-backoff");
      cli.know("cell-deadline").know("inject-faults");
      keep_going = cli.get("keep-going", false);
      if (cli.has("fail-fast") && keep_going) {
        throw std::invalid_argument("--fail-fast and --keep-going are mutually exclusive");
      }
      max_retries = cli.get("max-retries", 0);
      if (max_retries < 0) throw std::invalid_argument("--max-retries must be >= 0");
      retry_backoff_s = cli.get("retry-backoff", 0.0);
      if (retry_backoff_s < 0) throw std::invalid_argument("--retry-backoff must be >= 0");
      if (cli.has("cell-deadline")) {
        cell_deadline_s = cli.get("cell-deadline", 0.0);
        if (cell_deadline_s <= 0) {
          throw std::invalid_argument("--cell-deadline must be > 0 seconds");
        }
      }
      if (cli.has("inject-faults")) {
        fault_plan = cli.get("inject-faults", std::string{});
        // Parse eagerly: a typo'd plan must fail before hours of simulation.
        (void)testbed::fault::parse_plan(*fault_plan);
      }
      cli.know("isolate").know("events-out");
      if (cli.has("isolate")) {
        isolate = testbed::isolation_from(cli.get("isolate", std::string{"none"}));
      }
      if (cli.has("events-out")) {
        events_out = cli.get("events-out", std::string{});
        if (events_out->empty()) throw std::invalid_argument("--events-out needs a file path");
      }
      cli.know("probe-interval").know("trace-out");
      if (cli.has("probe-interval")) {
        probe_interval_s = cli.get("probe-interval", 0.0);
        if (probe_interval_s <= 0) {
          throw std::invalid_argument("--probe-interval must be > 0 simulated seconds");
        }
      }
      if (cli.has("trace-out")) {
        trace_out = cli.get("trace-out", std::string{});
        if (trace_out->empty()) throw std::invalid_argument("--trace-out needs a file path");
      }
    }
    if (cli.has("csv")) csv_path = cli.get("csv", std::string{});
    for (int i = 0; i < argc; ++i) {
      if (i > 0) invocation += ' ';
      invocation += argv[i];
    }
  }

  /// Scales a sample count: reduced by default, paper-scale with --full.
  [[nodiscard]] std::uint64_t events(std::uint64_t reduced, std::uint64_t paper) const {
    return full ? paper : reduced;
  }
  [[nodiscard]] double seconds(double reduced, double paper) const {
    if (duration_override) return *duration_override;
    return full ? paper : reduced;
  }

  /// Batch engine sized by --jobs.
  [[nodiscard]] testbed::BatchRunner runner() const { return testbed::BatchRunner(jobs); }

  [[nodiscard]] testbed::ShardSpec shard() const {
    return testbed::ShardSpec(shard_index, shard_count);
  }

  /// The failure policy the sweep flags configured.
  [[nodiscard]] testbed::RunPolicy policy() const {
    testbed::RunPolicy p;
    p.keep_going = keep_going;
    p.max_retries = max_retries;
    p.cell_deadline_s = cell_deadline_s;
    p.backoff_base_s = retry_backoff_s;
    p.isolate = isolate;
    if (summary_out) p.crash_dir = *summary_out + ".crashes";
    p.invocation = invocation;
    p.probe_interval_s = probe_interval_s;
    return p;
  }
};

/// The outcome of run_sweep: results (input order; unavailable cells are
/// default-constructed) plus what the persistence layer did.
struct SweepRun {
  std::vector<testbed::ExperimentResult> results;
  testbed::SweepReport report;

  /// True when every cell is populated — print the figure. False only on a
  /// sharded run against a cold/partial cache; the merge pass prints it.
  [[nodiscard]] bool complete() const noexcept { return report.complete(); }
};

/// Runs a Scenario batch through the sweep persistence layer: consults
/// --cache, simulates only this shard's cache misses, stores what it
/// simulated, and reports [cache]/[shard] statistics on stderr. Also writes
/// the --summary-out BatchResult file (aggregated over the available cells)
/// when requested.
inline SweepRun run_sweep(const BenchArgs& args, const std::vector<testbed::Scenario>& batch) {
  if (args.fault_plan) testbed::fault::arm(testbed::fault::parse_plan(*args.fault_plan));
  std::unique_ptr<testbed::ResultStore> store;
  if (args.cache_dir) store = std::make_unique<testbed::ResultStore>(*args.cache_dir);
  std::unique_ptr<testbed::SweepEventFeed> events;
  if (args.events_out) events = std::make_unique<testbed::SweepEventFeed>(*args.events_out);
  std::unique_ptr<obs::TraceWriter> trace;
  if (args.trace_out) trace = std::make_unique<obs::TraceWriter>();

  SweepRun out;
  testbed::RunPolicy policy = args.policy();
  policy.events = events.get();
  policy.trace = trace.get();
  out.results = args.runner().run(batch, store.get(), args.shard(), &out.report, policy);

  if (trace) {
    if (trace->write(*args.trace_out)) {
      std::cerr << "[trace] wrote chrome://tracing JSON to " << *args.trace_out;
      if (trace->dropped() > 0) {
        std::cerr << " (" << trace->dropped() << " events dropped at per-cell caps)";
      }
      std::cerr << "\n";
    } else {
      std::cerr << "[trace] FAILED to write " << *args.trace_out << "\n";
    }
  }

  if (store) {
    const auto c = store->counters();
    std::cerr << "[cache] dir=" << store->root().string() << " salt=" << store->salt()
              << " hits=" << out.report.hits << " simulated=" << out.report.simulated
              << " skipped=" << out.report.skipped << " corrupt=" << c.corrupt
              << " quarantined=" << out.report.quarantined
              << " index_filtered=" << c.index_filtered << " fs_probes=" << c.fs_probes << "\n";
  }
  if (args.shard_count > 1) {
    std::cerr << "[shard] index=" << args.shard_index << " count=" << args.shard_count
              << " available=" << (out.report.hits + out.report.simulated) << "/"
              << out.report.total << "\n";
  }
  if (args.keep_going) {
    std::cerr << "[sweep] failed=" << out.report.failed << " retried=" << out.report.retried
              << " timed_out=" << out.report.timed_out << " crashed=" << out.report.crashed
              << " quarantined=" << out.report.quarantined << "\n";
    for (const auto& f : out.report.failures) {
      std::cerr << "[fail] cell=#" << f.index << " scenario=" << f.scenario
                << " seed=" << f.seed << " attempts=" << f.attempts
                << " timed_out=" << (f.timed_out ? 1 : 0) << " crashed=" << (f.crashed ? 1 : 0)
                << " what=" << f.what << "\n";
    }
    if (args.summary_out) {
      const std::string manifest = *args.summary_out + ".failures";
      testbed::save_failure_manifest(out.report.failures, manifest);
      std::cerr << "[sweep] failure manifest (" << out.report.failures.size() << " entries): "
                << manifest << "\n";
    }
  }
  if (args.summary_out) {
    // Summarize only the cells this process OWNS (shards may also hold
    // cache hits for other shards' cells — see run()'s probe-all design);
    // folding per-shard summaries must partition the sweep, never
    // double-count. An unsharded run owns everything.
    const auto shard = args.shard();
    std::vector<testbed::ExperimentResult> owned;
    owned.reserve(out.results.size());
    for (std::size_t i = 0; i < out.results.size(); ++i) {
      if (out.report.available[i] != 0 && shard.owns(i)) owned.push_back(out.results[i]);
    }
    testbed::save_batch_result(testbed::aggregate(owned), *args.summary_out);
    std::cerr << "[summary] wrote " << owned.size() << " runs to " << *args.summary_out << "\n";
  }
  if (!out.complete()) {
    std::cerr << "[sweep] partial results (" << out.report.skipped
              << " cells owned by other shards, " << out.report.failed
              << " failed); re-run with the same --cache (unsharded, after merge_results "
               "--into, or once the failure cause is fixed) to complete and print the figure\n";
  }
  if (events) {
    // Sweep-level telemetry: report counters plus (when a cache is attached)
    // the ResultStore's own instruments, nested under "obs" like cell_done.
    std::string extra = ",\"cells\":" + std::to_string(out.report.total) +
                        ",\"hits\":" + std::to_string(out.report.hits) +
                        ",\"simulated\":" + std::to_string(out.report.simulated) +
                        ",\"failed\":" + std::to_string(out.report.failed) +
                        ",\"retried\":" + std::to_string(out.report.retried);
    if (store) {
      const auto c = store->counters();
      extra += ",\"obs\":{\"store_hits\":" + std::to_string(c.hits) +
               ",\"store_misses\":" + std::to_string(c.misses) +
               ",\"store_stored\":" + std::to_string(c.stored) +
               ",\"store_corrupt\":" + std::to_string(c.corrupt) +
               ",\"store_index_filtered\":" + std::to_string(c.index_filtered) +
               ",\"store_fs_probes\":" + std::to_string(c.fs_probes) + "}";
    }
    events->emit_sweep("sweep_done", extra);
  }
  return out;
}

/// Demonstrates --probe-interval: prints a downsampled table of the first
/// freshly simulated cell's probed gauge series. Prints NOTHING when probes
/// are off, so stdout stays bit-comparable for every existing invocation.
inline void print_probe_series(const BenchArgs& args, const SweepRun& sweep,
                               std::size_t max_rows = 12) {
  if (args.probe_interval_s <= 0.0) return;
  for (std::size_t i = 0; i < sweep.results.size(); ++i) {
    const auto& series = sweep.results[i].obs_series;
    if (series.empty()) continue;
    const std::size_t n = series.front().size();
    if (n == 0) continue;
    std::vector<std::string> header{"t_s"};
    for (const auto& s : series) header.push_back(s.name);
    util::Table t(header);
    const std::size_t rows = std::min(max_rows, n);
    for (std::size_t r = 0; r < rows; ++r) {
      // Even downsample that always includes the first and last sample.
      const std::size_t k = rows == 1 ? 0 : r * (n - 1) / (rows - 1);
      std::vector<std::string> row{util::fmt(series.front().time_at(k), 3)};
      for (const auto& s : series) row.push_back(util::fmt(s.at(k), 4));
      t.row(row);
    }
    t.print("\n[probe] cell #" + std::to_string(i) + " gauges sampled every " +
            util::fmt(args.probe_interval_s, 3) + " s (" + std::to_string(n) +
            " samples kept; showing " + std::to_string(rows) + "):");
    return;  // one cell demonstrates the series; the trace holds them all
  }
  std::cout << "\n[probe] no probed series available (all cells were cache hits)\n";
}

/// Looks up one instrument in a result's obs snapshot (0 when absent — e.g.
/// a cache entry stored before the instrument existed).
[[nodiscard]] inline double obs_value(const testbed::ExperimentResult& r,
                                      std::string_view name) {
  for (const auto& [k, v] : r.obs) {
    if (k == name) return v;
  }
  return 0.0;
}

/// Prints the banner every figure binary starts with.
inline void banner(const std::string& figure, const std::string& what) {
  std::cout << "=== " << figure << " — " << what << " ===\n";
}

/// The --scenario=FILE escape hatch shared by every sweep driver: when the
/// flag was given, loads the stored scenario (load_scenario rejects unknown
/// extensions, naming .toml/.json), replicates it --reps times, runs the
/// batch through the same persistence layer as the built-in grid, prints a
/// generic per-metric table (mean, ci95, min, max over replications), and
/// returns true — the caller skips its figure entirely. A --duration
/// override rescales the stored warmup proportionally when it would
/// otherwise swallow the whole run.
inline bool run_scenario_file(const BenchArgs& args) {
  if (!args.scenario_file) return false;
  testbed::Scenario base = testbed::load_scenario(*args.scenario_file);
  if (args.duration_override) {
    const double d = *args.duration_override;
    if (base.warmup_s >= d) {
      base.warmup_s = base.duration_s > 0 ? d * (base.warmup_s / base.duration_s) : d / 6.0;
    }
    base.duration_s = d;
  }
  std::cout << "[scenario] " << *args.scenario_file << " (" << base.name << ")\n";
  const auto batch = testbed::replicate(base, args.seed, args.reps);
  const auto sweep = run_sweep(args, batch);
  if (!sweep.complete()) return true;  // partial shard pass; the merge run prints

  const auto agg = testbed::aggregate(sweep.results);
  util::Table t({"metric", "mean", "ci95", "min", "max"});
  for (const auto& [name, m] : agg.metrics) {
    t.row({name, util::fmt(m.mean(), 6), util::fmt(m.ci_halfwidth(), 3),
           util::fmt(m.min(), 6), util::fmt(m.max(), 6)});
  }
  t.print("\nStored-scenario batch over " + std::to_string(agg.runs) + " replication(s):");
  return true;
}

/// One-line note on the batch configuration, printed under the banner.
inline void batch_note(const BenchArgs& args) {
  std::cout << "[batch] reps=" << args.reps << " jobs="
            << (args.jobs == 0 ? std::string("auto") : std::to_string(args.jobs))
            << " seed=" << args.seed << "\n";
}

/// Mixed-radix decoder for the flat cell grids the analyzer-style figures
/// fan out through BatchRunner::map. Axes are listed outermost-first and the
/// replication index is innermost, matching a nested
/// `for (axis0) for (axis1) ... for (rep)` fill/consume order.
class CellGrid {
 public:
  CellGrid(std::vector<std::size_t> axes, std::size_t reps)
      : axes_(std::move(axes)), reps_(reps) {
    size_ = reps_;
    for (std::size_t a : axes_) size_ *= a;
  }

  /// Total number of cells: reps × product of the axis sizes.
  [[nodiscard]] std::size_t size() const noexcept { return size_; }

  /// Replication index of a flat cell index.
  [[nodiscard]] std::size_t rep(std::size_t idx) const noexcept { return idx % reps_; }

  /// Index along `axis` (0 = outermost) of a flat cell index.
  [[nodiscard]] std::size_t at(std::size_t axis, std::size_t idx) const noexcept {
    std::size_t stride = reps_;
    for (std::size_t a = axes_.size(); a-- > axis + 1;) stride *= axes_[a];
    return (idx / stride) % axes_[axis];
  }

 private:
  std::vector<std::size_t> axes_;
  std::size_t reps_;
  std::size_t size_;
};

/// The WAN figures' shared batch layout: (path × population) grid with the
/// figure's duration (warmup = duration/6), expanded to `reps` replications
/// per point. Path-major, population-middle, replication-minor — so the
/// result at grid point (path_idx, pop_idx), replication rep sits at index
/// ((path_idx * populations.size()) + pop_idx) * reps + rep.
inline std::vector<testbed::Scenario> wan_batch(const std::vector<testbed::WanPath>& paths,
                                                const std::vector<int>& populations,
                                                double duration, std::uint64_t root_seed,
                                                int reps) {
  std::vector<testbed::Scenario> batch;
  batch.reserve(paths.size() * populations.size() * static_cast<std::size_t>(reps));
  for (const auto& path : paths) {
    for (int n : populations) {
      auto base = testbed::wan_scenario(path, n, /*seed=*/0);
      base.duration_s = duration;
      base.warmup_s = duration / 6.0;
      const auto runs = testbed::replicate(base, root_seed, reps);
      batch.insert(batch.end(), runs.begin(), runs.end());
    }
  }
  return batch;
}

/// The ns-2 figures' shared batch layout: an (L × population) grid of
/// ns2_scenario cells with the figure's duration (warmup = duration/5),
/// expanded to `reps` replications per cell. L-major, population-middle,
/// replication-minor — the result for grid point (L_idx, pop_idx),
/// replication rep sits at index ((L_idx * populations.size()) + pop_idx) *
/// reps + rep. Cell scenarios are named uniquely ("…-L8-n16") so
/// replicate()'s (root, name, rep) seed derivation gives every cell
/// independent streams; `customize` (may be null) tweaks the base scenario
/// before replication (e.g. fig07's poisson probes).
inline std::vector<testbed::Scenario> ns2_batch(
    const std::vector<std::size_t>& windows, const std::vector<int>& populations,
    double duration, std::uint64_t root_seed, int reps,
    const std::function<void(testbed::Scenario&)>& customize = nullptr) {
  std::vector<testbed::Scenario> batch;
  batch.reserve(windows.size() * populations.size() * static_cast<std::size_t>(reps));
  for (std::size_t L : windows) {
    for (int n : populations) {
      testbed::Scenario base = testbed::ns2_scenario(n, n, L, /*seed=*/0);
      base.name += "-L" + std::to_string(L) + "-n" + std::to_string(n);
      base.duration_s = duration;
      base.warmup_s = duration / 5.0;
      if (customize) customize(base);
      const auto runs = testbed::replicate(base, root_seed, reps);
      batch.insert(batch.end(), runs.begin(), runs.end());
    }
  }
  return batch;
}

/// The lab figures' shared batch layout: a (queue × population) grid of
/// lab_scenario(queue, 100, n) cells at `duration` (warmup = duration/6),
/// expanded to `reps` replications per cell. Queue-major,
/// population-middle, replication-minor. `name_suffix` distinguishes the
/// figures' cells — cell names feed both the derived seeds and the cache
/// fingerprint, so two figures sweeping the same grid stay independent.
inline std::vector<testbed::Scenario> lab_batch(const std::vector<testbed::QueueKind>& queues,
                                                const std::vector<int>& populations,
                                                double duration, std::uint64_t root_seed,
                                                int reps, const std::string& name_suffix = "") {
  std::vector<testbed::Scenario> batch;
  batch.reserve(queues.size() * populations.size() * static_cast<std::size_t>(reps));
  for (auto queue : queues) {
    for (int n : populations) {
      auto base = testbed::lab_scenario(queue, 100, n, /*seed=*/0);
      base.name += name_suffix + "-n" + std::to_string(n);
      base.duration_s = duration;
      base.warmup_s = duration / 6.0;
      const auto runs = testbed::replicate(base, root_seed, reps);
      batch.insert(batch.end(), runs.begin(), runs.end());
    }
  }
  return batch;
}

/// Writes the table to CSV when --csv was given.
inline void maybe_csv(const BenchArgs& args, const std::vector<std::string>& header,
                      const std::vector<std::vector<double>>& rows) {
  if (!args.csv_path || args.csv_path->empty()) return;
  util::CsvWriter csv(*args.csv_path, header);
  for (const auto& r : rows) csv.row(r);
  std::cout << "[csv] wrote " << rows.size() << " rows to " << *args.csv_path << "\n";
}

}  // namespace ebrc::bench
