// Per-layer metrics of the traced run, named by src/ module. The pass
// metrics (sim.*, net.*, most of testbed.*, bench.*) come from the
// workload's own traced pass; the probe metrics (per-controller packet
// cost, core.*, workload.*, the codec/index and isolation numbers, obs.*)
// come from the layer probe suite every traced run shares (probes.hpp).
// A layer that does no work in a workload's pass reads 0 there.
#pragma once

#include <map>
#include <string>

#include "obs/registry.hpp"

namespace ebrc::e2e {

using Layers = std::map<std::string, double>;

[[nodiscard]] inline double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

[[nodiscard]] inline double snapshot_value(const obs::Snapshot& snap, const char* name) {
  for (const auto& [k, v] : snap) {
    if (k == name) return v;
  }
  return 0.0;
}

/// Kernel and packet-path totals over the cells a traced pass simulated.
struct PassCounts {
  double events = 0.0;
  double pkts = 0.0;
  double drops = 0.0;
  double accepted = 0.0;
  double wheel_pops = 0.0;
  double heap_pops = 0.0;
  double heap_allocs = 0.0;  // InlineFunction heap fallbacks
  double run_s = 0.0;        // wall time inside the simulating calls

  void add(const obs::Snapshot& snap) {
    events += snapshot_value(snap, "kernel_events");
    pkts += snapshot_value(snap, "link_delivered");
    drops += snapshot_value(snap, "queue_drops");
    accepted += snapshot_value(snap, "queue_accepted");
    wheel_pops += snapshot_value(snap, "kernel_wheel_pops");
    heap_pops += snapshot_value(snap, "kernel_heap_pops");
  }
};

inline void set_pass_layers(Layers& out, const PassCounts& c) {
  out["sim.events"] = c.events;
  out["sim.events_per_pkt"] = ratio(c.events, c.pkts);
  out["sim.ns_per_event"] = ratio(c.run_s * 1e9, c.events);
  out["sim.wheel_share"] = ratio(c.wheel_pops, c.wheel_pops + c.heap_pops);
  out["sim.heap_allocs_per_event"] = ratio(c.heap_allocs, c.events);
  out["net.pkts_delivered"] = c.pkts;
  out["net.ns_per_pkt"] = ratio(c.run_s * 1e9, c.pkts);
  out["net.drop_ratio"] = ratio(c.drops, c.accepted + c.drops);
}

}  // namespace ebrc::e2e
