// The churn_100k workload: one saturated 100,000-slot churn cell driven
// single-threaded through Simulator / Dumbbell / FlowManager. Set-up is the
// cell's constructors, before any event executes; a pass runs the ramp that
// fills the pool, then the measured window, and passes repeat until the
// run's time is up.
#pragma once

#include <optional>
#include <string>

#include "layers.hpp"
#include "measure.hpp"
#include "plan.hpp"
#include "pool.hpp"
#include "sim/inline_function.hpp"
#include "spans.hpp"
#include "testbed/batch.hpp"
#include "testbed/result_store.hpp"

namespace ebrc::e2e {

[[nodiscard]] inline const PlanLine& pool_line(const Plan& plan) {
  const auto lines = plan.section("pass");
  if (lines.size() != 1 || lines.front()->kind != "pool") {
    throw std::invalid_argument("churn_100k: the plan needs exactly one `pass pool` line");
  }
  return *lines.front();
}

inline void check_churn(const PoolCell& cell, const workload::WorkloadSummary& s,
                        double utilization, std::uint64_t window_allocs, RunReport& rep) {
  const auto slots = static_cast<std::uint64_t>(cell.spec().slots);
  rep.check("pool_saturated", s.peak_flows * 100 >= slots * 99,
            "peak_flows=" + std::to_string(s.peak_flows));
  rep.check("link_utilized", utilization >= 0.95, "utilization=" + std::to_string(utilization));
  rep.check("transfers_complete", s.completions > 0,
            "completions=" + std::to_string(s.completions));
  rep.check("zero_heap_allocs_in_window", window_allocs == 0,
            "inline_function_heap_allocs=" + std::to_string(window_allocs));
}

[[nodiscard]] inline RunReport time_churn(const Plan& plan, double seconds) {
  RunReport rep;
  const PoolSpec spec = pool_spec(pool_line(plan));
  SetupTimer setup;
  const auto start = Clock::now();
  for (std::size_t p = 0; p == 0 || since(start) < seconds; ++p) {
    std::optional<PoolCell> built;
    setup.burst([&] { built.emplace(spec); }, [&] { built.reset(); });
    reset_peak_rss();
    PoolCell cell(spec);
    const double c0 = cpu_seconds();
    const auto t1 = Clock::now();
    cell.ramp();
    const std::uint64_t a0 = sim::inline_function_heap_allocs();
    const auto summary = cell.window();
    const std::uint64_t allocs = sim::inline_function_heap_allocs() - a0;
    rep.passes.push_back(PassSample{since(t1), cpu_seconds() - c0, spec.ramp_s + spec.window_s,
                                    1, peak_rss_mb()});
    rep.attempted += 1;

    check_churn(cell, summary, cell.net().bottleneck().utilization(), allocs, rep);
    const std::uint64_t d = digest({cell.result(summary)});
    if (p == 0) {
      rep.digest = d;
    } else {
      rep.check("pass_digest_stable", d == rep.digest, "pass " + std::to_string(p));
    }
  }
  rep.setup_s = setup.median_s();
  rep.setup_reps = setup.count();
  return rep;
}

/// The cell traced once between untraced twins, after a warm-up cell that
/// first-touches the memory: untraced, traced, traced, untraced (ABBA), so
/// slow drift of the host cancels out of bench.trace_overhead_frac. The
/// first traced cell's spans give the pass metrics.
[[nodiscard]] inline RunReport trace_churn(const Plan& plan, SpanRecorder& rec, Layers& layers) {
  RunReport rep;
  const PoolSpec spec = pool_spec(pool_line(plan));
  struct Pass {
    double wall_s = 0.0;
    std::uint64_t digest = 0;
    PassCounts counts;
  };
  const auto pass = [&](SpanRecorder* r) {
    Pass out;
    std::optional<PoolCell> cell;
    const auto t0 = Clock::now();
    {
      const ScopedSpan workload(r, "workload");
      const ScopedSpan c(r, "cell", workload.id(), 0);
      {
        const ScopedSpan s(r, "workload.construct", c.id(), 0);
        cell.emplace(spec);
      }
      const auto tr = Clock::now();
      {
        const ScopedSpan s(r, "sim.ramp", c.id(), 0);
        cell->ramp();
      }
      const std::uint64_t a0 = sim::inline_function_heap_allocs();
      workload::WorkloadSummary summary;
      {
        const ScopedSpan s(r, "sim.window", c.id(), 0);
        summary = cell->window();
      }
      out.counts.run_s = since(tr);
      out.counts.heap_allocs = static_cast<double>(sim::inline_function_heap_allocs() - a0);
      const auto result = cell->result(summary);
      out.counts.add(result.obs);
      {
        const ScopedSpan s(r, "codec.encode", c.id(), 0);
        out.digest = digest({result});
      }
      {
        const ScopedSpan s(r, "aggregate", workload.id());
        (void)testbed::aggregate({result});
      }
      check_churn(*cell, summary, result.bottleneck_utilization,
                  static_cast<std::uint64_t>(out.counts.heap_allocs), rep);
      rep.attempted += 1;
    }
    out.wall_s = since(t0);
    return out;
  };
  SpanRecorder spare;
  const Pass warm = pass(nullptr);
  const Pass a1 = pass(nullptr);
  const Pass traced = pass(&rec);
  const Pass b2 = pass(&spare);
  const Pass a2 = pass(nullptr);
  rep.digest = traced.digest;
  bool same = true;
  for (const Pass* p : {&warm, &a1, &b2, &a2}) same = same && p->digest == rep.digest;
  rep.check("traced_pass_matches_untraced", same, hex(a2.digest));

  set_pass_layers(layers, traced.counts);
  const double cell_ms = rec.total("cell") * 1e3;
  layers["testbed.cell_p50_ms"] = cell_ms;
  layers["testbed.cell_p90_ms"] = cell_ms;
  layers["testbed.worker_busy_frac"] = ratio(rec.total("cell"), rec.total("workload"));
  layers["testbed.aggregate_ms"] = rec.total("aggregate") * 1e3;
  layers["testbed.fs_probes_per_hit"] = 0.0;  // no store on this path
  layers["bench.trace_overhead_frac"] =
      (traced.wall_s + b2.wall_s) / (a1.wall_s + a2.wall_s) - 1.0;
  return rep;
}

}  // namespace ebrc::e2e
