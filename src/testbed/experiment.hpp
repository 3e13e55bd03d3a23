// The experiment runner: builds the dumbbell, attaches the flow population,
// runs with warm-up truncation, and evaluates the paper's per-flow metrics
// and the four-way TCP-friendliness breakdown (Section I-A):
//
//   (1) conservativeness      x̄  / f(p, r)       (TFRC)
//   (2) loss-event rates      p' / p              (TCP vs TFRC)
//   (3) round-trip times      r' / r
//   (4) TCP formula obedience x̄' / f(p', r')
//
// plus the headline friendliness ratio x̄ / x̄'.
#pragma once

#include <string>
#include <vector>

#include "obs/probe.hpp"
#include "obs/registry.hpp"
#include "testbed/scenario.hpp"
#include "workload/flow_manager.hpp"

namespace ebrc::obs {
struct RunObs;
}

namespace ebrc::testbed {

struct FlowStats {
  std::string kind;          // "tfrc" | "tcp" | "poisson"
  int flow_id = 0;
  double throughput_pps = 0.0;  // goodput over the measurement window
  double p = 0.0;               // loss-event rate (one-RTT grouping)
  double mean_rtt_s = 0.0;      // event-average RTT
  double formula_rate = 0.0;    // f(p, r) at this flow's p and r
  double normalized = 0.0;      // throughput / formula_rate
  double cov_theta_thetahat = 0.0;  // replayed with the scenario's weights
  double normalized_cov = 0.0;      // cov * p^2 (Figures 5 and 10)
  std::uint64_t loss_events = 0;
};

struct Breakdown {
  double conservativeness = 0.0;  // x̄/f(p,r), TFRC aggregate
  double loss_rate_ratio = 0.0;   // p'/p
  double rtt_ratio = 0.0;         // r'/r
  double tcp_formula_ratio = 0.0; // x̄'/f(p',r')
  double friendliness = 0.0;      // x̄/x̄'
};

struct ExperimentResult {
  std::string scenario_name;
  std::vector<FlowStats> flows;

  // population aggregates (means over flows of the kind)
  double tfrc_throughput = 0.0;
  double tcp_throughput = 0.0;
  double tfrc_p = 0.0;
  double tcp_p = 0.0;
  double poisson_p = 0.0;
  double tfrc_rtt = 0.0;
  double tcp_rtt = 0.0;
  double bottleneck_utilization = 0.0;

  Breakdown breakdown;

  // Dynamic-workload telemetry; meaningful only when workload_active (the
  // scenario's workload block was enabled).
  bool workload_active = false;
  workload::WorkloadSummary workload;

  /// End-of-run obs::Registry snapshot (kernel pops, queue drops, per-class
  /// transfer counts, ...). Deterministic — depends only on the scenario and
  /// seed, never on probing — so it is cached alongside the other metrics
  /// and surfaces as `obs_<name>` in batch aggregates and the event feed.
  obs::Snapshot obs;
  /// Probe time series (--probe-interval only). Never cached: a warm cell
  /// replays its metrics from the store but has no simulator to sample.
  std::vector<obs::Series> obs_series;

  [[nodiscard]] std::vector<const FlowStats*> of_kind(const std::string& kind) const;
};

/// The one traversal of ExperimentResult's encoded fields, in wire order,
/// walked by the payload codec, aggregate() and the cache salt's schema hash.
/// A visitor provides field(FieldName, T&) for T = std::string, double,
/// std::uint64_t, int (an i64 word) and bool (a 0/1 word), and
/// list(FieldName, vector&, elem): a count, then elem(visitor, item) each.
template <class V, class R>
constexpr void visit_result(V& v, R& r) {
  v.field("scenario_name", r.scenario_name);
  v.list("flows", r.flows, [](auto& vv, auto& f) {
    vv.field("kind", f.kind);
    vv.field("flow_id", f.flow_id);
    vv.field("throughput_pps", f.throughput_pps);
    vv.field("p", f.p);
    vv.field("mean_rtt_s", f.mean_rtt_s);
    vv.field("formula_rate", f.formula_rate);
    vv.field("normalized", f.normalized);
    vv.field("cov_theta_thetahat", f.cov_theta_thetahat);
    vv.field("normalized_cov", f.normalized_cov);
    vv.field("loss_events", f.loss_events);
  });
  v.field("tfrc_throughput", r.tfrc_throughput);
  v.field("tcp_throughput", r.tcp_throughput);
  v.field("tfrc_p", r.tfrc_p);
  v.field("tcp_p", r.tcp_p);
  v.field("poisson_p", r.poisson_p);
  v.field("tfrc_rtt", r.tfrc_rtt);
  v.field("tcp_rtt", r.tcp_rtt);
  v.field("bottleneck_utilization", r.bottleneck_utilization);
  v.field("conservativeness", r.breakdown.conservativeness);
  v.field("loss_rate_ratio", r.breakdown.loss_rate_ratio);
  v.field("rtt_ratio", r.breakdown.rtt_ratio);
  v.field("tcp_formula_ratio", r.breakdown.tcp_formula_ratio);
  v.field("friendliness", r.breakdown.friendliness);
  // Always encoded; aggregate() skips the workload block while the flag that
  // precedes it is false.
  v.field("workload_active", r.workload_active);
  workload::visit_workload(v, r.workload);
  v.list("obs", r.obs, [](auto& vv, auto& e) {
    vv.field("name", e.first);
    vv.field("value", e.second);
  });
}

/// Runs the scenario to completion and computes all metrics. `ro` carries
/// the optional observability request (probe interval, trace buffer, flight
/// ring); null means instruments-only (snapshot still taken, no sampling).
[[nodiscard]] ExperimentResult run_experiment(const Scenario& scenario,
                                              const obs::RunObs* ro = nullptr);

}  // namespace ebrc::testbed
