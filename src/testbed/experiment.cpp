#include "testbed/experiment.hpp"

#include <algorithm>
#include <cmath>
#include <deque>
#include <optional>
#include <stdexcept>

#include "core/conditions.hpp"
#include "core/weights.hpp"
#include "model/throughput_function.hpp"
#include "net/dumbbell.hpp"
#include "obs/run_obs.hpp"
#include "obs/trace.hpp"
#include "net/probe_senders.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "tcp/tcp_connection.hpp"
#include "tfrc/tfrc_connection.hpp"
#include "util/math.hpp"

namespace ebrc::testbed {
namespace {

constexpr double kSharedProp = 0.001;  // s, propagation of the shared segment

struct RecorderSnapshot {
  std::uint64_t packets = 0;
  std::uint64_t losses = 0;
  std::uint64_t events = 0;
  std::size_t intervals = 0;
};

RecorderSnapshot snap(const stats::LossEventRecorder& rec) {
  return {rec.packets(), rec.losses(), rec.events(), rec.intervals_packets().size()};
}

/// Loss-event rate over the measurement window: new events / new packets
/// (arrived + lost), the empirical Eq. (1).
double delta_loss_rate(const stats::LossEventRecorder& rec, const RecorderSnapshot& s0) {
  const auto packets = (rec.packets() - s0.packets) + (rec.losses() - s0.losses);
  const auto events = rec.events() - s0.events;
  if (packets == 0 || events == 0) return 0.0;
  return static_cast<double>(events) / static_cast<double>(packets);
}

double mean_of(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

net::Queue make_queue(const Scenario& sc) {
  if (sc.queue == QueueKind::kDropTail) {
    return net::Queue::drop_tail(sc.droptail_buffer);
  }
  const net::RedParams prm = sc.red ? *sc.red
                                    : net::red_params_for_bdp(sc.bottleneck_bps, sc.base_rtt_s,
                                                              sc.tfrc.packet_bytes);
  return net::Queue::red(prm, sim::hash_seed(sc.seed, "red"));
}

/// Upper bound on how long a retired dynamic flow's packets can stay in the
/// network: worst-case bottleneck queueing plus a full (spread-inflated)
/// round trip, plus the delayed-ACK timeout a receiver may sit on before
/// answering the transfer's final packet. The flow pool quarantines retired
/// slots this long before reusing them.
double drain_guard(const Scenario& sc) {
  double buffer_packets;
  if (sc.queue == QueueKind::kDropTail) {
    buffer_packets = static_cast<double>(sc.droptail_buffer);
  } else if (sc.red) {
    buffer_packets = static_cast<double>(sc.red->buffer_packets);
  } else {
    buffer_packets = static_cast<double>(
        net::red_params_for_bdp(sc.bottleneck_bps, sc.base_rtt_s, sc.tfrc.packet_bytes)
            .buffer_packets);
  }
  const double packet_time = 8.0 * sc.tfrc.packet_bytes / sc.bottleneck_bps;
  return sc.base_rtt_s * (1.0 + sc.rtt_spread) + buffer_packets * packet_time +
         sc.tcp.delayed_ack_timeout + 0.05;
}

}  // namespace

std::vector<const FlowStats*> ExperimentResult::of_kind(const std::string& kind) const {
  std::vector<const FlowStats*> out;
  for (const auto& f : flows) {
    if (f.kind == kind) out.push_back(&f);
  }
  return out;
}

ExperimentResult run_experiment(const Scenario& sc, const obs::RunObs* ro) {
  // NaN compares false against the warm-up, so the ordering check alone
  // would let it through.
  if (!std::isfinite(sc.duration_s) || !std::isfinite(sc.warmup_s)) {
    throw std::invalid_argument("run_experiment: duration_s and warmup_s must be finite");
  }
  if (sc.duration_s <= sc.warmup_s) {
    throw std::invalid_argument("run_experiment: duration must exceed warmup");
  }
  sim::Simulator sim;
  sim::Rng rng(sim::hash_seed(sc.seed, "experiment"));

  net::Dumbbell net(sim, make_queue(sc), sc.bottleneck_bps, kSharedProp);

  // Per-flow RTT spread (the lab/Internet flows never share exactly one RTT).
  const auto flow_rtt = [&]() {
    const double jitter = sc.rtt_spread > 0 ? sc.rtt_spread * (rng.uniform() - 0.5) : 0.0;
    return sc.base_rtt_s * (1.0 + jitter);
  };
  const auto add_flow = [&](double rtt) {
    const double one_way = std::max(0.0, rtt / 2.0 - kSharedProp);
    return net.add_flow(one_way, rtt / 2.0);
  };

  // Connections live by value in deques (stable addresses for their wired
  // callbacks, no per-flow unique_ptr hop on the delivery path).
  std::deque<tfrc::TfrcConnection> tfrcs;
  std::deque<tcp::TcpConnection> tcps;
  std::deque<net::ProbeSender> probes;
  std::deque<net::OnOffSender> onoffs;

  for (int i = 0; i < sc.n_tfrc; ++i) {
    const double rtt = flow_rtt();
    const int id = add_flow(rtt);
    tfrcs.emplace_back(net, id, rtt, sc.tfrc).start(rng.uniform(0.0, 1.0));
  }
  for (int i = 0; i < sc.n_tcp; ++i) {
    const double rtt = flow_rtt();
    const int id = add_flow(rtt);
    tcps.emplace_back(net, id, rtt, sc.tcp).start(rng.uniform(0.0, 1.0));
  }
  for (int i = 0; i < sc.n_poisson; ++i) {
    const double rtt = flow_rtt();
    const int id = add_flow(rtt);
    probes
        .emplace_back(net, id, sc.poisson_rate_pps, sc.tfrc.packet_bytes,
                      net::ProbePattern::kPoisson, rtt,
                      sim::hash_seed(sc.seed, "poisson" + std::to_string(i)))
        .start(rng.uniform(0.0, 1.0));
  }
  for (int i = 0; i < sc.n_onoff; ++i) {
    const double rtt = flow_rtt();
    const int id = add_flow(rtt);
    onoffs
        .emplace_back(net, id, sc.onoff_peak_pps, sc.tfrc.packet_bytes, sc.onoff_mean_on_s,
                      sc.onoff_mean_off_s, sim::hash_seed(sc.seed, "onoff" + std::to_string(i)))
        .start(rng.uniform(0.0, 1.0));
  }

  // Dynamic workload: flow churn on the same bottleneck, after the static
  // population so flow-id assignment of existing scenarios is untouched.
  std::optional<workload::FlowManager> churn;
  if (workload::workload_enabled(sc.workload)) {
    // Router-assisted controller: the bottleneck computes the RCP fair share
    // and stamps it into passing data packets.
    if (sc.workload.controller == "rcp") {
      net::RcpParams rp;
      rp.d0_s = sc.base_rtt_s;
      rp.packet_bytes = sc.tfrc.packet_bytes;
      net.bottleneck().enable_rcp(rp);
    }
    workload::FlowManagerConfig wcfg;
    wcfg.workload = sc.workload;
    wcfg.tfrc = sc.tfrc;
    wcfg.tcp = sc.tcp;
    wcfg.aimd.packet_bytes = sc.tfrc.packet_bytes;
    wcfg.rcp.packet_bytes = sc.tfrc.packet_bytes;
    wcfg.base_rtt_s = sc.base_rtt_s;
    wcfg.rtt_spread = sc.rtt_spread;
    wcfg.shared_prop_s = kSharedProp;
    wcfg.drain_s = drain_guard(sc);
    wcfg.seed = sim::hash_seed(sc.seed, "workload");
    churn.emplace(net, wcfg);
    churn->start(rng.uniform(0.0, 1.0));
  }

  // --- observability -------------------------------------------------------
  // Instruments are registered unconditionally (construction-time, off the
  // hot path) so every result carries the same deterministic obs snapshot;
  // only the probe / trace / flight ring are gated on `ro`.
  obs::CellTrace* trace = ro != nullptr ? ro->trace : nullptr;
  obs::Registry reg;
  reg.add_counter("kernel_events",
                  [&sim](double) { return static_cast<double>(sim.events_executed()); });
  reg.add_counter("kernel_wheel_pops",
                  [&sim](double) { return static_cast<double>(sim.wheel_pops()); });
  reg.add_counter("kernel_heap_pops",
                  [&sim](double) { return static_cast<double>(sim.heap_pops()); });
  reg.add_counter("queue_drops",
                  [&net](double) { return static_cast<double>(net.bottleneck().queue().drops()); });
  reg.add_counter("queue_accepted", [&net](double) {
    return static_cast<double>(net.bottleneck().queue().accepted());
  });
  reg.add_counter("link_delivered",
                  [&net](double) { return static_cast<double>(net.bottleneck().delivered()); });
  reg.add_gauge("queue_occupancy", [&net](double now) {
    return static_cast<double>(net.bottleneck().queue().packets(now));
  });
  reg.add_gauge("queue_avg",
                [&net](double) { return net.bottleneck().queue().average_queue(); });

  // Occupancy-at-drop histogram, fed by the queue's drop hook — a rare path,
  // always installed, so the snapshot never depends on probing.
  struct DropObs {
    obs::Histogram* occupancy = nullptr;
    obs::CellTrace* trace = nullptr;
  } drop_obs;
  const auto cap = static_cast<double>(net.bottleneck().queue().capacity());
  drop_obs.occupancy = reg.add_histogram("queue_drop_occupancy", 0.0, std::max(1.0, cap), 32);
  drop_obs.trace = trace;
  net.bottleneck().queue().set_drop_hook(
      [](void* ctx, double now, std::size_t occ) {
        auto* d = static_cast<DropObs*>(ctx);
        d->occupancy->record(static_cast<double>(occ));
        if (d->trace != nullptr) d->trace->instant(now, "drop", "queue");
      },
      &drop_obs);

  // Churn instruments: per-class open/close totals, the live population, and
  // a completion-time histogram fed from the FlowManager's completion hook.
  struct CompObs {
    obs::Histogram* duration = nullptr;
    obs::CellTrace* trace = nullptr;
  } comp_obs;
  if (churn) {
    for (int c = 0; c < workload::kFlowClasses; ++c) {
      const std::string tag(workload::kClassTags[c]);
      reg.add_counter("wl_opens_" + tag, [&churn, c](double) {
        return static_cast<double>(churn->population().class_opens(c));
      });
      reg.add_counter("wl_closes_" + tag, [&churn, c](double) {
        return static_cast<double>(churn->population().class_closes(c));
      });
    }
    reg.add_gauge("wl_active_flows",
                  [&churn](double) { return static_cast<double>(churn->active_flows()); });
    comp_obs.duration =
        reg.add_histogram("wl_completion_s", 0.0, std::max(1.0, sc.duration_s), 64);
    comp_obs.trace = trace;
    churn->set_completion_hook(
        [](void* ctx, double t0, double t1, int cls, double size_pkts) {
          (void)size_pkts;
          auto* co = static_cast<CompObs*>(ctx);
          co->duration->record(t1 - t0);
          if (co->trace != nullptr) {
            co->trace->span(t0, t1, "transfer:" + std::string(workload::kClassTags[cls]),
                            "transfers");
          }
        },
        &comp_obs);
  }

  // Aggregate delivery rate: stateful (differences the delivered counter
  // between samples), so probe-only — it never enters the snapshot.
  struct RateState {
    double last_t = 0.0;
    double last_delivered = 0.0;
  } rate_state;
  reg.add_gauge(
      "agg_rate_pps",
      [&net, &rate_state](double now) {
        const auto d = static_cast<double>(net.bottleneck().delivered());
        const double dt = now - rate_state.last_t;
        const double r = dt > 0.0 ? (d - rate_state.last_delivered) / dt : 0.0;
        rate_state.last_t = now;
        rate_state.last_delivered = d;
        return r;
      },
      /*probe_only=*/true);

  std::optional<obs::Probe> probe;
  if (ro != nullptr) {
    if (ro->ring.records != nullptr) sim.set_kernel_ring(ro->ring);
    if (ro->probe_interval_s > 0.0) {
      probe.emplace(sim, reg, ro->probe_interval_s, ro->probe_capacity, sc.duration_s, trace);
    }
  }
  // The probe is driven from outside the kernel: run to each sample time,
  // read the gauges, continue. No event is ever inserted on its behalf, so
  // the executed event sequence — pops, wheel routing, everything — is
  // byte-for-byte the same as an unprobed run's.
  const auto run_probed_until = [&](double horizon) {
    if (probe) {
      while (probe->next_due() <= horizon) {
        sim.run_until(probe->next_due());
        probe->sample();
      }
    }
    sim.run_until(horizon);
  };

  // Warm-up, snapshot, measure.
  run_probed_until(sc.warmup_s);
  if (trace != nullptr) trace->instant(sc.warmup_s, "warmup_end", "run");
  if (churn) churn->begin_epoch();
  std::vector<RecorderSnapshot> tfrc_s, tcp_s, probe_s;
  std::vector<std::uint64_t> tfrc_d0, tcp_d0;
  for (auto& c : tfrcs) {
    tfrc_s.push_back(snap(c.recorder()));
    tfrc_d0.push_back(c.delivered());
  }
  for (auto& c : tcps) {
    tcp_s.push_back(snap(c.recorder()));
    tcp_d0.push_back(c.delivered());
  }
  for (auto& p : probes) probe_s.push_back(snap(p.recorder()));

  run_probed_until(sc.duration_s);
  const double window = sc.duration_s - sc.warmup_s;

  ExperimentResult out;
  out.scenario_name = sc.name;
  out.bottleneck_utilization = net.bottleneck().utilization();
  if (churn) {
    out.workload_active = true;
    out.workload = churn->summarize();
  }
  out.obs = reg.snapshot(sim.now());
  if (probe) out.obs_series = probe->take_series();

  const auto analyze = [&](const std::string& kind, int flow_id,
                           const stats::LossEventRecorder& rec, const RecorderSnapshot& s0,
                           double goodput, double mean_rtt) {
    FlowStats fs;
    fs.kind = kind;
    fs.flow_id = flow_id;
    fs.throughput_pps = goodput;
    fs.p = delta_loss_rate(rec, s0);
    fs.mean_rtt_s = mean_rtt;
    fs.loss_events = rec.events() - s0.events;
    if (fs.p > 0.0 && mean_rtt > 0.0) {
      const auto f = model::make_throughput_function(sc.tfrc.formula, mean_rtt);
      fs.formula_rate = f->rate(std::min(1.0, fs.p));
      fs.normalized = fs.throughput_pps / fs.formula_rate;
      const auto& all = rec.intervals_packets();
      if (all.size() > s0.intervals + 2 * sc.tfrc.history_length) {
        const std::vector<double> tail(all.begin() + static_cast<long>(s0.intervals),
                                       all.end());
        const auto cov = core::check_covariance_conditions(
            *f, tail, core::tfrc_weights(sc.tfrc.history_length));
        fs.cov_theta_thetahat = cov.cov_theta_thetahat;
        fs.normalized_cov = cov.cov_theta_thetahat * util::sq(fs.p);
      }
    }
    out.flows.push_back(fs);
  };

  for (std::size_t i = 0; i < tfrcs.size(); ++i) {
    auto& c = tfrcs[i];
    const double goodput = static_cast<double>(c.delivered() - tfrc_d0[i]) / window;
    analyze("tfrc", i < tfrc_s.size() ? static_cast<int>(i) : 0, c.recorder(), tfrc_s[i],
            goodput, c.rtt_stats().count() > 0 ? c.rtt_stats().mean() : c.srtt());
  }
  for (std::size_t i = 0; i < tcps.size(); ++i) {
    auto& c = tcps[i];
    const double goodput = static_cast<double>(c.delivered() - tcp_d0[i]) / window;
    analyze("tcp", static_cast<int>(i), c.recorder(), tcp_s[i], goodput,
            c.rtt_stats().count() > 0 ? c.rtt_stats().mean() : c.srtt());
  }
  for (std::size_t i = 0; i < probes.size(); ++i) {
    auto& p = probes[i];
    FlowStats fs;
    fs.kind = "poisson";
    fs.flow_id = static_cast<int>(i);
    fs.p = delta_loss_rate(p.recorder(), probe_s[i]);
    fs.loss_events = p.recorder().events() - probe_s[i].events;
    out.flows.push_back(fs);
  }

  // Aggregates and the breakdown.
  std::vector<double> tfrc_x, tcp_x, tfrc_p, tcp_p, poisson_p, tfrc_r, tcp_r, tfrc_norm,
      tcp_norm;
  for (const auto& f : out.flows) {
    if (f.kind == "tfrc") {
      tfrc_x.push_back(f.throughput_pps);
      if (f.p > 0) tfrc_p.push_back(f.p);
      tfrc_r.push_back(f.mean_rtt_s);
      if (f.normalized > 0) tfrc_norm.push_back(f.normalized);
    } else if (f.kind == "tcp") {
      tcp_x.push_back(f.throughput_pps);
      if (f.p > 0) tcp_p.push_back(f.p);
      tcp_r.push_back(f.mean_rtt_s);
      if (f.normalized > 0) tcp_norm.push_back(f.normalized);
    } else if (f.p > 0) {
      poisson_p.push_back(f.p);
    }
  }
  out.tfrc_throughput = mean_of(tfrc_x);
  out.tcp_throughput = mean_of(tcp_x);
  out.tfrc_p = mean_of(tfrc_p);
  out.tcp_p = mean_of(tcp_p);
  out.poisson_p = mean_of(poisson_p);
  out.tfrc_rtt = mean_of(tfrc_r);
  out.tcp_rtt = mean_of(tcp_r);

  out.breakdown.conservativeness = mean_of(tfrc_norm);
  out.breakdown.tcp_formula_ratio = mean_of(tcp_norm);
  out.breakdown.loss_rate_ratio = out.tfrc_p > 0 ? out.tcp_p / out.tfrc_p : 0.0;
  out.breakdown.rtt_ratio = out.tfrc_rtt > 0 ? out.tcp_rtt / out.tfrc_rtt : 0.0;
  out.breakdown.friendliness =
      out.tcp_throughput > 0 ? out.tfrc_throughput / out.tcp_throughput : 0.0;
  return out;
}

}  // namespace ebrc::testbed
