// The layer probe suite every traced run shares. Each probe builds its own
// representative cells from the plan and times calls into one layer:
//
//   arms     one cell per controller: TFRC and TCP as static flows on the
//            ns-2 RED dumbbell, delay-AIMD and RCP as pinned-controller
//            FlowManager churn (RCP with the router stamp on). Spans cover
//            construction, run_until(warm-up), run_until(end), and, for the
//            loss-based pair, the post-run analysis
//            (core::check_covariance_conditions on the recorded intervals).
//   pool     the 100,000-slot churn cell: constructors, ramp, window, and
//            heap bytes per slot.
//   codec    encode_result / decode_result time and bytes, ResultStore
//            store / open / load over a 10,000-entry store.
//   isolate  one batch through BatchRunner::run in-process and under
//            kProcess (ABBA order, medians): supervision cost per cell.
//   obs      fig05 cells plain, with a 0.5 s probe, and with a TraceWriter
//            attached, interleaved cell by cell: obs overhead, and a check
//            that obs never changes a result bit.
#pragma once

#include <malloc.h>

#include <deque>
#include <filesystem>
#include <optional>
#include <string>
#include <vector>

#include "core/conditions.hpp"
#include "core/weights.hpp"
#include "layers.hpp"
#include "measure.hpp"
#include "model/throughput_function.hpp"
#include "net/dumbbell.hpp"
#include "obs/trace.hpp"
#include "plan.hpp"
#include "pool.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "spans.hpp"
#include "stats/loss_events.hpp"
#include "tcp/tcp_connection.hpp"
#include "testbed/batch.hpp"
#include "testbed/experiment.hpp"
#include "testbed/result_store.hpp"
#include "tfrc/tfrc_connection.hpp"

namespace ebrc::e2e {

namespace probe_detail {

namespace fs = std::filesystem;

/// Heap bytes in use (all malloc arenas), independent of what the
/// allocator keeps resident after frees.
[[nodiscard]] inline double heap_in_use() {
  const struct mallinfo2 mi = ::mallinfo2();
  return static_cast<double>(mi.uordblks + mi.hblkhd);
}

[[nodiscard]] inline const PlanLine& only(const Plan& plan, const std::string& section) {
  const auto lines = plan.section(section);
  if (lines.size() != 1) throw std::invalid_argument("plan: expected one `" + section + "` line");
  return *lines.front();
}

struct ArmTimes {
  double run_s = 0.0;
  double analysis_s = 0.0;
};

/// Post-run analysis of one static flow, as run_experiment does it: replay
/// the measured window's loss intervals through the estimator.
template <typename Conn>
void analyze(const Conn& c, std::size_t intervals0, const tfrc::TfrcConfig& cfg) {
  const auto& all = c.recorder().intervals_packets();
  if (all.size() <= intervals0 + 2 * cfg.history_length) return;
  const double rtt = c.rtt_stats().count() > 0 ? c.rtt_stats().mean() : c.srtt();
  const auto f = model::make_throughput_function(cfg.formula, rtt);
  const std::vector<double> tail(all.begin() + static_cast<long>(intervals0), all.end());
  (void)core::check_covariance_conditions(*f, tail, core::tfrc_weights(cfg.history_length));
}

/// `arm static ctrl=tfrc|tcp flows=N duration=S warmup=S seed=N`
inline ArmTimes static_arm(const PlanLine& c, SpanRecorder* rec, int parent, Layers& out,
                           RunReport& rep) {
  const std::string ctrl = c.text("ctrl");
  const bool tcp = ctrl == "tcp";
  const int flows = c.count("flows");
  const testbed::Scenario sc = testbed::ns2_scenario(flows, flows, 8, c.u64("seed"));
  const ScopedSpan arm(rec, tcp ? "probe.arm.tcp" : "probe.arm.tfrc", parent);
  ArmTimes t;
  const auto t0 = Clock::now();
  std::optional<sim::Simulator> sim;
  std::optional<net::Dumbbell> net;
  std::deque<tfrc::TfrcConnection> tfrcs;
  std::deque<tcp::TcpConnection> tcps;
  {
    const ScopedSpan s(rec, "construct", arm.id());
    sim.emplace();
    net.emplace(*sim,
                net::Queue::red(net::red_params_for_bdp(sc.bottleneck_bps, sc.base_rtt_s,
                                                        sc.tfrc.packet_bytes),
                                sim::hash_seed(sc.seed, "red")),
                sc.bottleneck_bps, 0.001);
    sim::Rng rng(sim::hash_seed(sc.seed, "arm"));
    for (int i = 0; i < flows; ++i) {
      const double rtt = sc.base_rtt_s * (1.0 + sc.rtt_spread * (rng.uniform() - 0.5));
      const int id = net->add_flow(std::max(0.0, rtt / 2.0 - 0.001), rtt / 2.0);
      if (tcp) {
        tcps.emplace_back(*net, id, rtt, sc.tcp).start(rng.uniform(0.0, 1.0));
      } else {
        tfrcs.emplace_back(*net, id, rtt, sc.tfrc).start(rng.uniform(0.0, 1.0));
      }
    }
  }
  {
    const ScopedSpan s(rec, "sim.warmup", arm.id());
    sim->run_until(c.num("warmup"));
  }
  std::vector<std::size_t> intervals0;
  for (const auto& f : tfrcs) intervals0.push_back(f.recorder().intervals_packets().size());
  for (const auto& f : tcps) intervals0.push_back(f.recorder().intervals_packets().size());
  const std::uint64_t pkts0 = net->bottleneck().delivered();
  const auto tm = Clock::now();
  {
    const ScopedSpan s(rec, "sim.measure", arm.id());
    sim->run_until(c.num("duration"));
  }
  const double measure_s = since(tm);
  const auto pkts = static_cast<double>(net->bottleneck().delivered() - pkts0);
  t.run_s = since(t0);
  const auto ta = Clock::now();
  {
    const ScopedSpan s(rec, "core.analysis", arm.id());
    std::size_t k = 0;
    for (const auto& f : tfrcs) analyze(f, intervals0[k++], sc.tfrc);
    for (const auto& f : tcps) analyze(f, intervals0[k++], sc.tfrc);
  }
  t.analysis_s = since(ta);
  out[ctrl + ".ns_per_pkt"] = ratio(measure_s * 1e9, pkts);
  rep.check("arm_delivers_packets", pkts > 0, ctrl + " pkts=" + std::to_string(pkts));
  return t;
}

/// `arm churn ctrl=delay_aimd|rcp slots=N rho=R arrivals=A ramp=S window=S seed=N`
inline void churn_arm(const PlanLine& c, SpanRecorder* rec, int parent, Layers& out,
                      RunReport& rep) {
  const PoolSpec spec = pool_spec(c);
  const std::string ctrl = c.text("ctrl");
  const ScopedSpan arm(rec, ctrl == "rcp" ? "probe.arm.rcp" : "probe.arm.delay_aimd", parent);
  std::optional<PoolCell> cell;
  {
    const ScopedSpan s(rec, "construct", arm.id());
    cell.emplace(spec);
  }
  {
    const ScopedSpan s(rec, "sim.warmup", arm.id());
    cell->ramp();
  }
  const std::uint64_t pkts0 = cell->net().bottleneck().delivered();
  const auto tm = Clock::now();
  workload::WorkloadSummary summary;
  {
    const ScopedSpan s(rec, "sim.measure", arm.id());
    summary = cell->window();
  }
  const double measure_s = since(tm);
  const auto pkts = static_cast<double>(cell->net().bottleneck().delivered() - pkts0);
  out[ctrl + ".ns_per_pkt"] = ratio(measure_s * 1e9, pkts);
  rep.check("arm_delivers_packets", pkts > 0, ctrl + " pkts=" + std::to_string(pkts));
  rep.check("delay_sensing_qdelay_positive", summary.qdelay_mean_s > 0,
            ctrl + " qdelay_mean_s=" + std::to_string(summary.qdelay_mean_s));
}

inline void arms(const Plan& plan, SpanRecorder* rec, int parent, Layers& out, RunReport& rep) {
  double run_s = 0.0;
  double analysis_s = 0.0;
  int static_arms = 0;
  for (const PlanLine* c : plan.section("arm")) {
    if (c->kind == "static") {
      const ArmTimes t = static_arm(*c, rec, parent, out, rep);
      run_s += t.run_s;
      analysis_s += t.analysis_s;
      ++static_arms;
    } else if (c->kind == "churn") {
      churn_arm(*c, rec, parent, out, rep);
    } else {
      c->fail("unknown arm kind " + c->kind);
    }
  }
  out["core.analysis_ms_per_cell"] = ratio(analysis_s * 1e3, static_arms);
  out["core.analysis_share"] = ratio(analysis_s, run_s + analysis_s);
}

inline void pool(const Plan& plan, SpanRecorder* rec, int parent, Layers& out, RunReport& rep) {
  const PoolSpec spec = pool_spec(only(plan, "pool"));
  const ScopedSpan probe(rec, "probe.pool", parent);
  ::malloc_trim(0);
  const double heap0 = heap_in_use();
  std::optional<PoolCell> cell;
  const auto t0 = Clock::now();
  {
    const ScopedSpan s(rec, "pool.construct", probe.id());
    cell.emplace(spec);
  }
  out["workload.setup_s"] = since(t0);
  const auto t1 = Clock::now();
  {
    const ScopedSpan s(rec, "pool.ramp", probe.id());
    cell->ramp();
  }
  out["workload.ramp_s"] = since(t1);
  out["workload.bytes_per_slot"] = (heap_in_use() - heap0) / spec.slots;
  const auto t2 = Clock::now();
  workload::WorkloadSummary summary;
  {
    const ScopedSpan s(rec, "pool.window", probe.id());
    summary = cell->window();
  }
  out["workload.completions_per_s"] = static_cast<double>(summary.completions) / since(t2);
  rep.check("pool_probe_completes_transfers", summary.completions > 0,
            "completions=" + std::to_string(summary.completions));
}

/// `codec lab ... entries=N`: one lab cell's result stored under N seeds.
inline void codec(const Plan& plan, const fs::path& work, SpanRecorder* rec, int parent,
                  Layers& out, RunReport& rep) {
  const PlanLine& line = only(plan, "codec");
  const testbed::Scenario base = scenario_of(line);
  const int entries = line.count("entries");
  const ScopedSpan probe(rec, "probe.codec", parent);
  testbed::ExperimentResult r;
  {
    const ScopedSpan s(rec, "codec.cell", probe.id());
    r = testbed::run_experiment(base);
  }
  const std::string payload = testbed::encode_result(r);
  constexpr int kCodecReps = 2000;
  std::vector<double> enc_us;
  std::vector<double> dec_us;
  bool exact = true;
  {
    const ScopedSpan s(rec, "codec.encode_loop", probe.id());
    for (int k = 0; k < kCodecReps; ++k) {
      const auto t0 = Clock::now();
      const std::string p = testbed::encode_result(r);
      enc_us.push_back(since(t0) * 1e6);
      exact = exact && p.size() == payload.size();
    }
  }
  {
    const ScopedSpan s(rec, "codec.decode_loop", probe.id());
    for (int k = 0; k < kCodecReps; ++k) {
      const auto t0 = Clock::now();
      const auto back = testbed::decode_result(payload);
      dec_us.push_back(since(t0) * 1e6);
      exact = exact && back.has_value();
    }
  }
  const auto back = testbed::decode_result(payload);
  exact = exact && back && testbed::encode_result(*back) == payload;
  rep.check("codec_roundtrip_exact", exact, "payload_bytes=" + std::to_string(payload.size()));
  out["testbed.encode_us"] = median(enc_us);
  out["testbed.decode_us"] = median(dec_us);
  out["testbed.payload_bytes"] = static_cast<double>(payload.size());

  std::vector<testbed::Scenario> keys(static_cast<std::size_t>(entries), base);
  for (std::size_t k = 0; k < keys.size(); ++k) keys[k].seed = base.seed + k;
  const fs::path dir = work / "codec-store";
  std::vector<double> store_us;
  {
    const ScopedSpan s(rec, "store.store_loop", probe.id());
    const testbed::ResultStore store(dir);
    for (const auto& key : keys) {
      const auto t0 = Clock::now();
      store.store(key, r);
      store_us.push_back(since(t0) * 1e6);
    }
  }
  std::vector<double> open_s;
  {
    const ScopedSpan s(rec, "store.open_loop", probe.id());
    for (int k = 0; k < 5; ++k) {
      const auto t0 = Clock::now();
      const testbed::ResultStore reopened(dir);
      open_s.push_back(since(t0));
    }
  }
  std::vector<double> load_us;
  std::size_t hits = 0;
  {
    const ScopedSpan s(rec, "store.load_loop", probe.id());
    const testbed::ResultStore store(dir);
    for (const auto& key : keys) {
      const auto t0 = Clock::now();
      const auto hit = store.load(key);
      load_us.push_back(since(t0) * 1e6);
      hits += hit.has_value() ? 1 : 0;
    }
  }
  rep.check("codec_store_all_hit", hits == keys.size(), "hits=" + std::to_string(hits));
  out["testbed.store_store_us_p50"] = quantile(store_us, 0.5);
  out["testbed.store_store_us_p90"] = quantile(store_us, 0.9);
  out["testbed.store_open_ms"] = median(open_s) * 1e3 * 10'000.0 / entries;
  out["testbed.store_load_us_p50"] = quantile(load_us, 0.5);
  out["testbed.store_load_us_p90"] = quantile(load_us, 0.9);
  fs::remove_all(dir);
}

/// Wall time of BatchRunner::run over `batch` with no store.
[[nodiscard]] inline double timed_batch(const std::vector<testbed::Scenario>& batch,
                                        std::size_t jobs, const testbed::RunPolicy& policy,
                                        std::uint64_t& digest_out, std::size_t& failed_out) {
  testbed::SweepReport sweep;
  const auto t0 = Clock::now();
  const auto results = testbed::BatchRunner(jobs).run(batch, nullptr, {}, &sweep, policy);
  const double wall = since(t0);
  digest_out = digest(results);
  failed_out += sweep.failed;
  return wall;
}

inline void isolate(const Plan& plan, std::size_t jobs, SpanRecorder* rec, int parent,
                    Layers& out, RunReport& rep) {
  const auto batch = scenarios_of(plan.section("isolate"));
  const ScopedSpan probe(rec, "probe.isolate", parent);
  testbed::RunPolicy in_process;
  in_process.keep_going = true;
  testbed::RunPolicy forked = in_process;
  forked.isolate = testbed::IsolationMode::kProcess;
  std::vector<double> walls[2];
  std::uint64_t digests[2] = {0, 0};
  std::size_t failed = 0;
  for (const int mode : {0, 1, 1, 0}) {
    const ScopedSpan s(rec, mode == 0 ? "batch.in_process" : "batch.process", probe.id());
    walls[mode].push_back(timed_batch(batch, jobs, mode == 0 ? in_process : forked,
                                      digests[mode], failed));
  }
  rep.check("isolation_is_result_neutral", digests[0] == digests[1] && failed == 0,
            hex(digests[0]) + " vs " + hex(digests[1]));
  out["testbed.isolate_overhead_ms_per_cell"] =
      (median(walls[1]) - median(walls[0])) * 1e3 / static_cast<double>(batch.size());
}

/// The probed obs cells' sampling interval, in simulated seconds.
inline constexpr double kProbeIntervalS = 0.5;

/// Each obs cell as a one-cell batch three ways, back to back — plain, with
/// a probe, with a TraceWriter — in a rotating order, twice; the overheads
/// are medians of the per-cell ratios, so slow drift of the host cancels.
inline void obs_overhead(const Plan& plan, SpanRecorder* rec, int parent, Layers& out,
                         RunReport& rep) {
  const auto cells = scenarios_of(plan.section("obs"));
  const ScopedSpan probe(rec, "probe.obs", parent);
  static constexpr const char* kSpan[3] = {"cell.plain", "cell.probed", "cell.traced"};
  std::vector<double> probed;
  std::vector<double> traced;
  bool neutral = true;
  std::size_t failed = 0;
  for (std::size_t round = 0; round < 2; ++round) {
    for (std::size_t i = 0; i < cells.size(); ++i) {
      double wall[3] = {0.0, 0.0, 0.0};
      std::uint64_t digests[3] = {0, 0, 0};
      for (std::size_t k = 0; k < 3; ++k) {
        const std::size_t mode = (i + round + k) % 3;
        const ScopedSpan s(rec, kSpan[mode], probe.id(), static_cast<long>(i));
        testbed::RunPolicy policy;
        policy.keep_going = true;
        obs::TraceWriter writer;
        if (mode == 1) policy.probe_interval_s = kProbeIntervalS;
        if (mode == 2) policy.trace = &writer;
        wall[mode] = timed_batch({cells[i]}, 1, policy, digests[mode], failed);
      }
      neutral = neutral && digests[0] == digests[1] && digests[0] == digests[2];
      probed.push_back(wall[1] / wall[0] - 1.0);
      traced.push_back(wall[2] / wall[0] - 1.0);
    }
  }
  rep.check("obs_is_result_neutral", neutral && failed == 0,
            "failed=" + std::to_string(failed));
  out["obs.probe_overhead_frac"] = median(probed);
  out["obs.trace_overhead_frac"] = median(traced);
}

}  // namespace probe_detail

/// Runs the whole suite under one "probes" span.
inline void run_probes(const Plan& plan, const std::filesystem::path& work, std::size_t jobs,
                       SpanRecorder& rec, Layers& out, RunReport& rep) {
  const ScopedSpan root(&rec, "probes");
  probe_detail::arms(plan, &rec, root.id(), out, rep);
  probe_detail::pool(plan, &rec, root.id(), out, rep);
  probe_detail::codec(plan, work, &rec, root.id(), out, rep);
  probe_detail::isolate(plan, jobs, &rec, root.id(), out, rep);
  probe_detail::obs_overhead(plan, &rec, root.id(), out, rep);
}

}  // namespace ebrc::e2e
