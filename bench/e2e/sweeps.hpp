// The three sweep workloads. A pass is the workload's whole batch run the
// way a figure driver runs it — a ResultStore opened on the pass's cache
// directory, BatchRunner::run with at most 2 workers (closed loop: a worker
// takes the next cell only when its last one is done), then aggregate().
// Passes repeat until the run's time is up; every pass does identical work,
// so its digest must not change.
//
//   fig05_cold       the paper's Fig. 5 RED grid at paper scale, fresh store
//   ctrlmx_isolated  the controller matrix under RunPolicy::isolate=kProcess,
//                    fresh store: per-cell fork, handoff, and store writes
//   sweep_warm       10,000 cached lab cells read back from a warm store
//                    prepared by an untimed --prepare process
//
// The traced pass runs the same batch through BatchRunner::map, calling
// each layer from outside: store.load -> run_experiment -> encode_result /
// decode_result -> store.store, with a span around every call.
#pragma once

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <optional>
#include <string>
#include <vector>

#include "layers.hpp"
#include "measure.hpp"
#include "plan.hpp"
#include "sim/inline_function.hpp"
#include "spans.hpp"
#include "testbed/batch.hpp"
#include "testbed/experiment.hpp"
#include "testbed/result_store.hpp"

namespace ebrc::e2e {

namespace fs = std::filesystem;

enum class Sweep { kFig05Cold, kCtrlmxIsolated, kSweepWarm };

[[nodiscard]] inline std::optional<Sweep> sweep_kind(const std::string& workload) {
  if (workload == "fig05_cold") return Sweep::kFig05Cold;
  if (workload == "ctrlmx_isolated") return Sweep::kCtrlmxIsolated;
  if (workload == "sweep_warm") return Sweep::kSweepWarm;
  return std::nullopt;
}

/// Workers per sweep: half of a 4-core host stays with the harness.
inline constexpr std::size_t kJobs = 2;

/// keep_going, so a failing cell is counted in the result line instead of
/// ending the run.
[[nodiscard]] inline testbed::RunPolicy sweep_policy(Sweep kind) {
  testbed::RunPolicy p;
  p.keep_going = true;
  if (kind == Sweep::kCtrlmxIsolated) p.isolate = testbed::IsolationMode::kProcess;
  return p;
}

[[nodiscard]] inline double sim_seconds(const std::vector<testbed::Scenario>& batch) {
  double s = 0.0;
  for (const auto& sc : batch) s += sc.duration_s;
  return s;
}

/// The warm store's directory: --prepare fills it, timed passes read it.
[[nodiscard]] inline fs::path warm_store(const fs::path& work) { return work / "store"; }

/// Output checks on one pass's results.
inline void check_pass(Sweep kind, const std::vector<testbed::Scenario>& batch,
                       const std::vector<testbed::ExperimentResult>& results,
                       std::size_t hits, std::size_t simulated, std::size_t failed,
                       RunReport& rep) {
  const std::size_t n = batch.size();
  const std::string counts = "hits=" + std::to_string(hits) +
                             " simulated=" + std::to_string(simulated) +
                             " failed=" + std::to_string(failed);
  if (kind == Sweep::kSweepWarm) {
    rep.check("all_cells_hit", hits == n && simulated == 0, counts, n - std::min(n, hits));
  } else {
    rep.check("all_cells_simulated", simulated == n && failed == 0, counts,
              n - std::min(n, simulated));
  }
  for (std::size_t i = 0; i < n; ++i) {
    const auto& r = results[i];
    if (kind == Sweep::kFig05Cold) {
      // Theorem 1: TFRC is conservative on this bottleneck, x̄/f(p,r) < 1.
      const double c = r.breakdown.conservativeness;
      rep.check("theorem1_conservative", c > 0.5 && c < 1.05,
                batch[i].name + " x/f(p,r)=" + std::to_string(c));
    } else if (kind == Sweep::kCtrlmxIsolated) {
      const std::string& ctrl = batch[i].workload.controller;
      if (ctrl == "delay_aimd" || ctrl == "rcp") {
        rep.check("delay_sensing_qdelay_positive", r.workload.qdelay_mean_s > 0,
                  batch[i].name + " qdelay_mean_s=" + std::to_string(r.workload.qdelay_mean_s));
      }
    }
  }
}

/// --prepare: simulate every sweep_warm cell into the warm store.
[[nodiscard]] inline RunReport prepare_warm(const Plan& plan, const fs::path& work) {
  RunReport rep;
  const auto batch = scenarios_of(plan.section("pass"));
  const testbed::ResultStore store(warm_store(work));
  testbed::SweepReport sweep;
  const auto t0 = Clock::now();
  const auto results = testbed::BatchRunner(kJobs)
                           .run(batch, &store, {}, &sweep, sweep_policy(Sweep::kSweepWarm));
  rep.passes.push_back(PassSample{since(t0), 0.0, sim_seconds(batch), batch.size()});
  rep.attempted = batch.size();
  rep.check("all_cells_simulated", sweep.simulated == batch.size() && sweep.failed == 0,
            "simulated=" + std::to_string(sweep.simulated), batch.size() - sweep.simulated);
  rep.digest = digest(results);
  return rep;
}

/// The timed run: passes until `seconds` have elapsed, each after a burst of
/// set-up repetitions (building the batch through the scenario factories),
/// then the untimed end-of-run checks.
[[nodiscard]] inline RunReport time_sweep(Sweep kind, const Plan& plan, const fs::path& work,
                                          double seconds) {
  RunReport rep;
  const auto cells = plan.section("pass");
  const testbed::BatchRunner runner(kJobs);
  const testbed::RunPolicy policy = sweep_policy(kind);
  const std::size_t n = cells.size();
  SetupTimer setup;
  std::vector<testbed::Scenario> batch;
  std::vector<testbed::ExperimentResult> results;
  fs::path last_dir;
  const auto start = Clock::now();
  for (std::size_t p = 0; p == 0 || since(start) < seconds; ++p) {
    setup.burst([&] { batch = scenarios_of(cells); }, [] {});
    const fs::path dir =
        kind == Sweep::kSweepWarm ? warm_store(work) : work / ("pass-" + std::to_string(p));
    if (kind != Sweep::kSweepWarm) fs::remove_all(dir);  // a cold pass starts from nothing
    results = {};  // so peak memory is one pass's results, not two
    reset_peak_rss();
    testbed::SweepReport sweep;
    const double c0 = cpu_seconds();
    const auto t0 = Clock::now();
    {
      const testbed::ResultStore store(dir);
      results = runner.run(batch, &store, {}, &sweep, policy);
      (void)testbed::aggregate(results);
    }
    rep.passes.push_back(
        PassSample{since(t0), cpu_seconds() - c0, sim_seconds(batch), n, peak_rss_mb()});
    rep.attempted += n;

    check_pass(kind, batch, results, sweep.hits, sweep.simulated, sweep.failed, rep);
    const std::uint64_t d = digest(results);
    if (p == 0) {
      rep.digest = d;
    } else {
      rep.check("pass_digest_stable", d == rep.digest, "pass " + std::to_string(p), n);
    }
    if (kind != Sweep::kSweepWarm) {
      if (!last_dir.empty()) fs::remove_all(last_dir);
      last_dir = dir;
    }
  }
  rep.setup_s = setup.median_s();
  rep.setup_reps = setup.count();

  if (kind == Sweep::kFig05Cold) {
    // A second ResultStore over the last pass's cache reads every entry back.
    const testbed::ResultStore second(last_dir);
    std::vector<testbed::ExperimentResult> reread;
    for (const auto& sc : batch) {
      reread.push_back(second.load(sc).value_or(testbed::ExperimentResult{}));
    }
    rep.check("reread_reproduces_digest", digest(reread) == rep.digest, hex(digest(reread)));
  } else if (kind == Sweep::kCtrlmxIsolated) {
    // The first 48 cells again, in-process and storeless: isolation must not
    // change a single bit.
    const std::size_t k = std::min<std::size_t>(48, n);
    const std::vector<testbed::Scenario> head(batch.begin(),
                                              batch.begin() + static_cast<long>(k));
    const auto again = runner.run(head);
    rep.check("inprocess_rerun_matches", digest(again) == digest(results, k),
              hex(digest(again)) + " vs " + hex(digest(results, k)));
  }
  return rep;
}

// ---- the traced pass --------------------------------------------------------

struct TracedSweep {
  std::vector<testbed::ExperimentResult> results;
  std::vector<std::uint8_t> simulated;  // per cell: run here (not a cache hit)
  double wall_s = 0.0;
  testbed::ResultStore::Counters store;
  std::uint64_t heap_allocs = 0;
  std::size_t codec_mismatches = 0;
};

/// One pass over `batch` through BatchRunner::map with a span around every
/// call into a layer. A null recorder gives the untraced twin.
[[nodiscard]] inline TracedSweep traced_sweep_pass(const std::vector<testbed::Scenario>& batch,
                                                   const fs::path& dir, SpanRecorder* rec) {
  TracedSweep out;
  out.simulated.assign(batch.size(), 0);
  std::atomic<std::uint64_t> heap_allocs{0};
  std::atomic<std::size_t> mismatches{0};
  const auto t0 = Clock::now();
  {
    const ScopedSpan workload(rec, "workload");
    std::optional<testbed::ResultStore> store;
    {
      const ScopedSpan s(rec, "store.open", workload.id());
      store.emplace(dir);
    }
    out.results = testbed::BatchRunner(kJobs).map<testbed::ExperimentResult>(
        batch.size(), [&](std::size_t i) {
          const testbed::Scenario& sc = batch[i];
          const auto cell_no = static_cast<long>(i);
          const ScopedSpan cell(rec, "cell", workload.id(), cell_no);
          std::optional<testbed::ExperimentResult> hit;
          {
            const ScopedSpan s(rec, "store.load", cell.id(), cell_no);
            hit = store->load(sc);
          }
          if (hit) return std::move(*hit);
          testbed::ExperimentResult r;
          {
            const ScopedSpan s(rec, "experiment.run", cell.id(), cell_no);
            const std::uint64_t a0 = sim::inline_function_heap_allocs();
            r = testbed::run_experiment(sc);
            heap_allocs += sim::inline_function_heap_allocs() - a0;
          }
          std::string payload;
          {
            const ScopedSpan s(rec, "codec.encode", cell.id(), cell_no);
            payload = testbed::encode_result(r);
          }
          std::optional<testbed::ExperimentResult> back;
          {
            const ScopedSpan s(rec, "codec.decode", cell.id(), cell_no);
            back = testbed::decode_result(payload);
          }
          if (!back || testbed::encode_result(*back) != payload) ++mismatches;
          {
            const ScopedSpan s(rec, "store.store", cell.id(), cell_no);
            store->store(sc, r);
          }
          out.simulated[i] = 1;
          return r;
        });
    {
      const ScopedSpan s(rec, "aggregate", workload.id());
      (void)testbed::aggregate(out.results);
    }
    out.store = store->counters();
  }
  out.wall_s = since(t0);
  out.heap_allocs = heap_allocs.load();
  out.codec_mismatches = mismatches.load();
  return out;
}

/// The traced run's workload part: after one warm-up pass, untraced and
/// traced passes of the same batch in ABBA order (so slow drift of the host
/// cancels out of bench.trace_overhead_frac); the first traced pass's spans
/// give the pass metrics.
[[nodiscard]] inline RunReport trace_sweep(Sweep kind, const Plan& plan, const fs::path& work,
                                           SpanRecorder& rec, Layers& layers) {
  RunReport rep;
  const auto batch = scenarios_of(plan.section("pass"));
  const bool warm = kind == Sweep::kSweepWarm;
  std::vector<std::uint64_t> digests;
  const auto pass = [&](int k, SpanRecorder* r) {
    const fs::path dir = warm ? warm_store(work) : work / ("trace-pass-" + std::to_string(k));
    if (!warm) fs::remove_all(dir);
    TracedSweep out = traced_sweep_pass(batch, dir, r);
    if (!warm) fs::remove_all(dir);
    std::size_t simulated = 0;
    for (const auto s : out.simulated) simulated += s;
    check_pass(kind, batch, out.results, out.store.hits, simulated, 0, rep);
    rep.check("codec_roundtrip_exact", out.codec_mismatches == 0,
              std::to_string(out.codec_mismatches) + " mismatches", out.codec_mismatches);
    rep.attempted += batch.size();
    digests.push_back(digest(out.results));
    return out;
  };
  SpanRecorder spare;
  (void)pass(0, nullptr);
  const double a1 = pass(1, nullptr).wall_s;
  const TracedSweep traced = pass(2, &rec);
  const double b2 = pass(3, &spare).wall_s;
  const double a2 = pass(4, nullptr).wall_s;
  rep.digest = digests[2];
  rep.check("traced_pass_matches_untraced",
            std::count(digests.begin(), digests.end(), rep.digest) == 5,
            hex(digests[0]) + " " + hex(digests[4]), batch.size());

  PassCounts counts;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    if (traced.simulated[i] != 0) counts.add(traced.results[i].obs);
  }
  counts.heap_allocs = static_cast<double>(traced.heap_allocs);
  counts.run_s = rec.total("experiment.run");
  set_pass_layers(layers, counts);

  const auto cell_s = rec.durations("cell");
  double busy = 0.0;
  for (const double d : cell_s) busy += d;
  const double workers = static_cast<double>(std::min(kJobs, batch.size()));
  layers["testbed.cell_p50_ms"] = quantile(cell_s, 0.5) * 1e3;
  layers["testbed.cell_p90_ms"] = quantile(cell_s, 0.9) * 1e3;
  layers["testbed.worker_busy_frac"] = ratio(busy, workers * rec.total("workload"));
  layers["testbed.aggregate_ms"] = rec.total("aggregate") * 1e3;
  layers["testbed.fs_probes_per_hit"] = ratio(static_cast<double>(traced.store.fs_probes),
                                              static_cast<double>(traced.store.hits));
  layers["bench.trace_overhead_frac"] = (traced.wall_s + b2) / (a1 + a2) - 1.0;
  return rep;
}

}  // namespace ebrc::e2e
