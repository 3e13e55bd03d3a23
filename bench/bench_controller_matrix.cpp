// The controller-zoo fairness matrix: the churn fairness contrast rerun over
// every rate controller the repo implements — TFRC and TCP (loss-based, the
// paper's pair) beside delay-AIMD (goog_cc-style overuse detection) and RCP
// (router-assisted explicit rate).
//
// Grid: {tfrc, tcp, delay_aimd, rcp} × offered load. Every cell is a churn
// scenario (Poisson arrivals of finite transfers over the ns-2 bottleneck)
// with [workload] controller pinned, so ALL transfers in a cell run one
// controller class. At each load the four arms are common-random-number
// paired: seeds derive from one per-load pair tag, so all arms see identical
// arrival times, transfer sizes, and class draws (pinned controllers still
// burn the class draw), and per-controller differences cancel the shared
// sampling noise. Contrasts are folded per pair (controller − TFRC at the
// same load) into paired mean/CI estimates.
//
// Reported per (load, controller): goodput, aggregate loss-event rate, mean
// completion time and its CoV, mean queuing delay over the delay-sensing
// samples (zero for the loss-based classes, which take no delay samples),
// and mean concurrent flows. Runs through the sweep persistence layer
// (--cache/--shard-index/--shard-count) and is bit-identical for any --jobs.
//
// The matrix also reports the kernel's timing-wheel share per cell (from the
// obs snapshot: wheel pops / total pops — the million-flow engine's pinned
// deliveries should keep this high under churn), and --out=FILE dumps the
// per-(load, controller) engine split as JSON with wheel_pops / heap_pops
// fields in the same shape bench_churn_longrun --engine writes.
//
//   ./bench_controller_matrix [--full] [--reps=N] [--jobs=N] [--seed=N]
//                             [--duration=S] [--cache=DIR]
//                             [--shard-index/-count] [--summary-out=F]
//                             [--scenario=FILE] [--csv=path] [--out=FILE]
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "testbed/scenario.hpp"
#include "workload/flow_manager.hpp"

namespace {

using namespace ebrc;

// In FlowClass order: controller c fills slot c of the per-class results.
constexpr const char* kControllers[] = {"tfrc", "tcp", "delay_aimd", "rcp"};
constexpr std::size_t kNumControllers = 4;
static_assert(kNumControllers == workload::kFlowClasses);

std::string load_tag(double rho) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%g", rho);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ebrc;
  bench::BenchArgs args(argc, argv, bench::kSweepFlags);
  args.cli.know("out");
  const std::string out_path = args.cli.get("out", std::string{});
  args.cli.finish();
  bench::banner("Controller matrix",
                "TFRC / TCP / delay-AIMD / RCP under flow churn (CRN-paired arms)");
  bench::batch_note(args);
  if (bench::run_scenario_file(args)) return 0;

  const std::vector<double> loads = args.full ? std::vector<double>{0.4, 0.6, 0.8, 0.95, 1.1}
                                              : std::vector<double>{0.5, 0.8, 1.2};
  const double duration = args.seconds(60.0, 600.0);

  // One flat batch, load-major / controller-middle / replication-minor: at
  // load index l, controller c, replication r the result sits at
  // ((l * 4) + c) * reps + r. The four arms at one load share derived seeds
  // (one pair tag per load), so any cross-controller fold at that load is a
  // CRN paired difference.
  std::vector<testbed::Scenario> batch;
  for (double rho : loads) {
    const std::string tag = load_tag(rho);
    auto make_arm = [&](const char* ctrl) {
      auto sc = testbed::churn_scenario(rho, /*tfrc_fraction=*/0.5, /*seed=*/0);
      sc.name = "ctrlmx-" + std::string(ctrl) + "-rho" + tag;
      sc.workload.controller = ctrl;
      sc.duration_s = duration;
      sc.warmup_s = duration / 6.0;
      return sc;
    };
    // replicate_paired derives one seed stream per (root, tag, rep); reusing
    // the pair's seeds for the two extra arms extends CRN to all four.
    const auto pair = testbed::replicate_paired(make_arm("tfrc"), make_arm("tcp"),
                                                "ctrlmx-rho" + tag, args.seed, args.reps);
    std::vector<testbed::Scenario> arms[kNumControllers] = {pair.a, pair.b, pair.b, pair.b};
    for (std::size_t c = 2; c < kNumControllers; ++c) {
      for (auto& sc : arms[c]) {
        sc.workload.controller = kControllers[c];
        sc.name = "ctrlmx-" + std::string(kControllers[c]) + "-rho" + tag;
      }
    }
    for (const auto& arm : arms) batch.insert(batch.end(), arm.begin(), arm.end());
  }

  const auto sweep = bench::run_sweep(args, batch);
  if (!sweep.complete()) return 0;
  const auto& results = sweep.results;
  const auto reps = static_cast<std::size_t>(args.reps);
  auto cell = [&](std::size_t l, std::size_t c, std::size_t r) -> const testbed::ExperimentResult& {
    return results[((l * kNumControllers) + c) * reps + r];
  };

  // --- the per-controller matrix ----------------------------------------
  util::Table t({"rho", "controller", "goodput pkt/s", "loss p", "qdelay ms", "T(xfer) s",
                 "cov(T)", "mean flows", "util", "wheel share"});
  std::vector<std::vector<double>> csv_rows;
  struct EngineCell {
    double rho = 0.0;
    std::string controller;
    std::uint64_t wheel_pops = 0;
    std::uint64_t heap_pops = 0;
  };
  std::vector<EngineCell> engine_cells;
  for (std::size_t l = 0; l < loads.size(); ++l) {
    for (std::size_t c = 0; c < kNumControllers; ++c) {
      stats::OnlineMoments goodput, loss, qdelay, completion, cov, flows, util_m;
      double wheel_pops = 0.0;
      double heap_pops = 0.0;
      for (std::size_t r = 0; r < reps; ++r) {
        const auto& res = cell(l, c, r);
        const auto& wl = res.workload;
        goodput.add(wl.goodput_pps[c]);
        loss.add(wl.p[c]);
        qdelay.add(wl.qdelay_mean_s * 1e3);
        completion.add(wl.completion_s[c]);
        cov.add(wl.completion_cov[c]);
        flows.add(wl.mean_flows);
        util_m.add(res.bottleneck_utilization);
        wheel_pops += bench::obs_value(res, "kernel_wheel_pops");
        heap_pops += bench::obs_value(res, "kernel_heap_pops");
      }
      const double pops = wheel_pops + heap_pops;
      const double wheel_share = pops > 0 ? wheel_pops / pops : 0.0;
      t.row({util::fmt(loads[l], 3), std::string(kControllers[c]), util::fmt(goodput.mean(), 5),
             util::fmt(loss.mean(), 4), util::fmt(qdelay.mean(), 4),
             util::fmt(completion.mean(), 5), util::fmt(cov.mean(), 4),
             util::fmt(flows.mean(), 4), util::fmt(util_m.mean(), 3),
             util::fmt(wheel_share, 3)});
      csv_rows.push_back({loads[l], static_cast<double>(c), goodput.mean(), loss.mean(),
                          qdelay.mean(), completion.mean(), cov.mean(), flows.mean(),
                          util_m.mean(), wheel_share});
      engine_cells.push_back({loads[l], kControllers[c],
                              static_cast<std::uint64_t>(wheel_pops),
                              static_cast<std::uint64_t>(heap_pops)});
    }
  }
  t.print("\nController matrix (per-load CRN arms; qdelay is the delay-sensing classes'\n"
          "mean queuing-delay sample, zero for loss-based TFRC/TCP; wheel share is the\n"
          "kernel's timing-wheel fraction of event pops, from the obs snapshot):");

  // --- paired contrasts vs TFRC -----------------------------------------
  util::Table ct({"rho", "contrast", "d goodput", "ci95", "d T(xfer) s", "ci95",
                  "d completions", "ci95"});
  for (std::size_t l = 0; l < loads.size(); ++l) {
    for (std::size_t c = 1; c < kNumControllers; ++c) {
      stats::OnlineMoments d_goodput, d_completion, d_completions;
      for (std::size_t r = 0; r < reps; ++r) {
        const auto& a = cell(l, c, r);  // challenger controller
        const auto& b = cell(l, 0, r);  // TFRC arm, same derived seed
        d_goodput.add(a.workload.goodput_pps[c] - b.workload.goodput_pps[0]);
        d_completion.add(a.workload.completion_s[c] - b.workload.completion_s[0]);
        d_completions.add(static_cast<double>(a.workload.completions) -
                          static_cast<double>(b.workload.completions));
      }
      ct.row({util::fmt(loads[l], 3), std::string(kControllers[c]) + " - tfrc",
              util::fmt(d_goodput.mean(), 5), util::fmt(d_goodput.ci_halfwidth(), 3),
              util::fmt(d_completion.mean(), 5), util::fmt(d_completion.ci_halfwidth(), 3),
              util::fmt(d_completions.mean(), 5), util::fmt(d_completions.ci_halfwidth(), 3)});
    }
  }
  ct.print("\nCRN paired contrasts (controller - TFRC at the same load, same derived seeds):");

  std::cout << "\nWhat to look for: the loss-based pair (TFRC, TCP) fills the RED queue and\n"
            << "pays for it in loss; delay-AIMD backs off on queuing-delay overuse before\n"
            << "drops, trading a little goodput for near-zero qdelay; RCP's router-assigned\n"
            << "fair share converges fastest as load crosses 1 and the pool saturates.\n";
  bench::maybe_csv(args,
                   {"rho", "controller", "goodput_pps", "loss_p", "qdelay_ms", "t_xfer_s",
                    "cov_t", "mean_flows", "util", "wheel_share"},
                   csv_rows);
  if (!out_path.empty()) {
    // Machine-readable engine split, same field names bench_churn_longrun
    // --engine writes, one object per (load, controller) cell (summed over
    // replications).
    std::FILE* f = std::fopen(out_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "[json] cannot open %s\n", out_path.c_str());
      return 1;
    }
    std::fprintf(f, "{\n  \"bench\": \"controller_matrix\",\n  \"cells\": [\n");
    for (std::size_t i = 0; i < engine_cells.size(); ++i) {
      const auto& e = engine_cells[i];
      const double pops = static_cast<double>(e.wheel_pops + e.heap_pops);
      std::fprintf(f,
                   "    {\"rho\": %g, \"controller\": \"%s\", \"wheel_pops\": %llu, "
                   "\"heap_pops\": %llu, \"wheel_share\": %.3f}%s\n",
                   e.rho, e.controller.c_str(), static_cast<unsigned long long>(e.wheel_pops),
                   static_cast<unsigned long long>(e.heap_pops),
                   pops > 0 ? static_cast<double>(e.wheel_pops) / pops : 0.0,
                   i + 1 < engine_cells.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("[json] wrote %s\n", out_path.c_str());
  }
  // Last, so the figure output stays a byte-exact prefix of a probed run's.
  bench::print_probe_series(args, sweep);  // no-op unless --probe-interval set
  return 0;
}
