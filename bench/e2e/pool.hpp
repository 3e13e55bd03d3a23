// A churn cell driven directly through Simulator / Dumbbell / FlowManager,
// with no testbed around it: the million-flow engine path (timing wheel,
// SoA flow pools, per-slot wiring). churn_100k's pass is one of these at
// 100,000 slots; the traced run's delay_aimd and rcp arms are small ones.
#pragma once

#include <algorithm>
#include <string>

#include "net/dumbbell.hpp"
#include "net/queue.hpp"
#include "plan.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "testbed/experiment.hpp"
#include "testbed/scenario.hpp"
#include "workload/flow_manager.hpp"

namespace ebrc::e2e {

struct PoolSpec {
  testbed::Scenario sc;
  int slots = 0;
  double ramp_s = 0.0;    // warm-up: the pool fills and saturates
  double window_s = 0.0;  // the measured window after the ramp
  // A `pool` cell's arrivals are raised only to fill it during the ramp and
  // stop when the ramp ends, so its window runs the admitted flows instead
  // of turning raised arrivals away at the cap. A `churn` cell keeps its
  // natural arrival rate throughout.
  bool fill = false;
};

/// `<section> pool|churn slots=N rho=R arrivals=A ramp=S window=S seed=N [ctrl=C]`
[[nodiscard]] inline PoolSpec pool_spec(const PlanLine& c) {
  PoolSpec p;
  p.fill = c.kind == "pool";
  p.slots = c.count("slots");
  p.ramp_s = c.num("ramp");
  p.window_s = c.num("window");
  p.sc = testbed::churn_scenario(c.num("rho"), 0.5, c.u64("seed"));
  p.sc.name = c.text("name");
  p.sc.workload.controller = c.text("ctrl", "");
  p.sc.workload.max_concurrent = p.slots;
  p.sc.workload.arrival_rate_per_s = c.num("arrivals");
  return p;
}

class PoolCell {
 public:
  /// Everything constructed here is set-up: no event has executed yet.
  explicit PoolCell(const PoolSpec& spec)
      : spec_(spec),
        net_(reserved(sim_, 4 * static_cast<std::size_t>(spec.slots)),
             net::Queue::red(net::red_params_for_bdp(spec.sc.bottleneck_bps, spec.sc.base_rtt_s,
                                                     spec.sc.tfrc.packet_bytes),
                             sim::hash_seed(spec.sc.seed, "red")),
             spec.sc.bottleneck_bps, kSharedProp),
        fm_(with_rcp(net_, spec.sc), config(spec.sc)) {}

  PoolCell(const PoolCell&) = delete;
  PoolCell& operator=(const PoolCell&) = delete;

  /// Starts arrivals and runs to the end of the ramp (stopping a filled
  /// pool's arrivals there), then opens the epoch.
  void ramp() {
    fm_.start(0.0);
    sim_.run_until(spec_.ramp_s);
    if (spec_.fill) fm_.stop();
    fm_.begin_epoch();
  }

  /// Runs the measured window and folds its telemetry.
  [[nodiscard]] workload::WorkloadSummary window() {
    sim_.run_until(spec_.ramp_s + spec_.window_s);
    return fm_.summarize();
  }

  /// The cell's outputs as an ExperimentResult, so the digest runs through
  /// the same encode_result as every sweep cell.
  [[nodiscard]] testbed::ExperimentResult result(const workload::WorkloadSummary& s) {
    testbed::ExperimentResult r;
    r.scenario_name = spec_.sc.name;
    r.bottleneck_utilization = net_.bottleneck().utilization();
    r.workload_active = true;
    r.workload = s;
    const auto& q = net_.bottleneck().queue();
    r.obs = {{"kernel_events", static_cast<double>(sim_.events_executed())},
             {"kernel_wheel_pops", static_cast<double>(sim_.wheel_pops())},
             {"kernel_heap_pops", static_cast<double>(sim_.heap_pops())},
             {"queue_drops", static_cast<double>(q.drops())},
             {"queue_accepted", static_cast<double>(q.accepted())},
             {"link_delivered", static_cast<double>(net_.bottleneck().delivered())}};
    return r;
  }

  [[nodiscard]] const PoolSpec& spec() const noexcept { return spec_; }
  [[nodiscard]] net::Dumbbell& net() noexcept { return net_; }

 private:
  static constexpr double kSharedProp = 0.001;

  static sim::Simulator& reserved(sim::Simulator& sim, std::size_t events) {
    sim.reserve(events);
    return sim;
  }
  /// Turns the bottleneck into an RCP router for RCP cells before the
  /// FlowManager exists, as run_experiment does.
  static net::Dumbbell& with_rcp(net::Dumbbell& net, const testbed::Scenario& sc) {
    if (sc.workload.controller == "rcp") {
      net::RcpParams rp;
      rp.d0_s = sc.base_rtt_s;
      rp.packet_bytes = sc.tfrc.packet_bytes;
      net.bottleneck().enable_rcp(rp);
    }
    return net;
  }
  static workload::FlowManagerConfig config(const testbed::Scenario& sc) {
    workload::FlowManagerConfig w;
    w.workload = sc.workload;
    w.tfrc = sc.tfrc;
    w.tcp = sc.tcp;
    w.aimd.packet_bytes = sc.tfrc.packet_bytes;
    w.rcp.packet_bytes = sc.tfrc.packet_bytes;
    w.base_rtt_s = sc.base_rtt_s;
    w.rtt_spread = sc.rtt_spread;
    w.shared_prop_s = kSharedProp;
    w.drain_s = 0.5;
    w.seed = sim::hash_seed(sc.seed, "workload");
    return w;
  }

  PoolSpec spec_;
  sim::Simulator sim_;
  net::Dumbbell net_;
  workload::FlowManager fm_;
};

}  // namespace ebrc::e2e
