// Section IV-A.2 (Claim 4): the deterministic one-link analysis of AIMD
// versus equation-based rate control, in three layers:
//   1. the closed forms (p', p, and the ratio 4/(1+beta)^2),
//   2. the fluid sawtooth simulation cross-checking them, and
//   3. a stochastic packet-level run (rate-based AIMD vs TFRC on a DropTail
//      link) showing the deviation "holds, but is somewhat less pronounced"
//      — exactly the paper's remark about its own (undisplayed) numerics.
//
// Layer 3 fans out through BatchRunner::map: one cell for the deterministic
// AIMD sender, --reps cells for independent TFRC replications (per-rep
// derived seeds, mean ± 95% CI on p). Both senders run on the paced
// transport, each alone on the same path shape.
#include "bench_common.hpp"
#include "model/aimd.hpp"
#include "net/dumbbell.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "stats/online.hpp"
#include "tcp/aimd_connection.hpp"
#include "testbed/experiment.hpp"
#include "testbed/scenario.hpp"

int main(int argc, char** argv) {
  using namespace ebrc;
  bench::BenchArgs args(argc, argv, bench::kBatchFlags | bench::kDurationFlag);
  args.cli.finish();
  bench::banner("Claim 4", "AIMD vs equation-based control on one fixed-capacity link");
  bench::batch_note(args);

  // Layer 1: closed forms across beta.
  util::Table closed({"beta", "p' (AIMD)", "p (EBRC)", "p'/p", "4/(1+beta)^2"});
  const double c = 100.0;  // packets per RTT
  std::vector<std::vector<double>> csv_rows;
  for (double beta : {0.25, 0.5, 0.7, 0.9}) {
    const model::AimdParams a{1.0, beta};
    const double pp = model::aimd_loss_event_rate(a, c);
    const double p = model::ebrc_fixed_point_loss_rate(a, c);
    closed.row({beta, pp, p, pp / p, model::claim4_ratio(a)});
    csv_rows.push_back({beta, pp, p, pp / p});
  }
  closed.print("\nClosed forms (c = 100 pkts/RTT, alpha = 1). Note the TR's printed\n"
               "formula 4/(1-beta)^2 is a typo; its own rates give 4/(1+beta)^2 = 16/9\n"
               "at beta = 1/2, matching the paper's quoted 1.7778 (DESIGN.md erratum):");

  // Layer 2: fluid sawtooth.
  const model::AimdParams a{1.0, 0.5};
  const auto fluid = model::simulate_fluid_aimd(a, c, 256);
  std::cout << "\nFluid AIMD simulation at beta = 1/2:\n"
            << "  loss-event rate  " << util::fmt(fluid.loss_event_rate, 5) << "  (closed form "
            << util::fmt(model::aimd_loss_event_rate(a, c), 5) << ")\n"
            << "  time-avg rate    " << util::fmt(fluid.time_average_rate, 5)
            << "  (closed form " << util::fmt(model::aimd_time_average_rate(a, c), 5) << ")\n";

  // Layer 3: stochastic packet-level — rate-based AIMD alone vs an
  // equation-based sender alone on the same path shape (1 Mb/s
  // DropTail(5), 1 ms shared propagation, 100 ms base RTT, which the TFRC
  // cells jitter by up to ±5%), then their loss-rate ratio (the "numerical
  // simulations" the paper mentions but does not display).
  // The comparison is only meaningful when both use the SAME
  // loss-throughput law: AIMD(alpha = 0.5, beta = 0.5) has the constant
  // sqrt(alpha(1+beta)/(2(1-beta))) = sqrt(0.375) = 1/c1 for b = 2, i.e.
  // exactly our SQRT formula.
  const double duration = args.seconds(1200.0, 6000.0);
  // Cell 0 is the (deterministic) AIMD sender; cells 1..reps are independent
  // TFRC replications. Each cell owns its Simulator, so the whole layer runs
  // through the batch engine's worker pool.
  const auto cells = args.runner().map<double>(
      static_cast<std::size_t>(args.reps) + 1, [&](std::size_t idx) {
        if (idx == 0) {
          sim::Simulator sim_a;
          net::Dumbbell net_a(sim_a, net::Queue::drop_tail(5), 1e6, 0.001);
          const int id_a = net_a.add_flow(0.049, 0.05);
          tcp::AimdConfig acfg;
          acfg.alpha = 0.5;  // matches SQRT's c1 at beta = 1/2
          acfg.beta = 0.5;
          acfg.initial_rate = 70.0;
          tcp::AimdConnection aimd(net_a, id_a, 0.1, acfg);
          aimd.start(0.0);
          sim_a.run_until(duration);
          return aimd.recorder().loss_event_rate();
        }
        auto s = testbed::lab_scenario(testbed::QueueKind::kDropTail, 5, 1, /*seed=*/0);
        s.name = "claim4-tfrc-alone";
        s.n_tcp = 0;
        s.bottleneck_bps = 1e6;
        s.base_rtt_s = 0.1;
        // The comprehensive control is what keeps an isolated sender probing
        // the capacity (the EBRC counterpart of the AIMD sawtooth); SQRT is
        // the matched formula.
        s.tfrc.comprehensive = true;
        s.tfrc.formula = "sqrt";
        s.duration_s = duration;
        s.warmup_s = duration / 5.0;
        s.seed = sim::hash_seed(args.seed, s.name + "#rep" + std::to_string(idx - 1));
        return testbed::run_experiment(s).tfrc_p;
      });
  const double p_aimd = cells[0];
  stats::OnlineMoments p_tfrc;
  for (int rep = 0; rep < args.reps; ++rep) p_tfrc.add(cells[static_cast<std::size_t>(rep) + 1]);

  const model::AimdParams matched{0.5, 0.5};
  const double c_rtt = 12.5;  // 125 pkt/s * 0.1 s
  std::cout << "\nPacket-level (1 Mb/s DropTail(5), RTT 100 ms, each alone, matched f):\n"
            << "  p' (AIMD sender)  " << util::fmt(p_aimd, 4) << "   (deterministic model "
            << util::fmt(model::aimd_loss_event_rate(matched, c_rtt), 4) << ")\n"
            << "  p  (EBRC sender)  " << util::fmt(p_tfrc.mean(), 4) << " ± "
            << util::fmt(p_tfrc.ci_halfwidth(), 3) << " (deterministic model "
            << util::fmt(model::ebrc_fixed_point_loss_rate(matched, c_rtt), 4) << ")\n"
            << "  ratio             "
            << util::fmt(p_tfrc.mean() > 0 ? p_aimd / p_tfrc.mean() : 0.0, 4)
            << "   (idealized 16/9 = 1.778; paper: 'holds, but somewhat less\n"
            << "                      pronounced')\n";
  bench::maybe_csv(args, {"beta", "p_aimd", "p_ebrc", "ratio"}, csv_rows);
  return 0;
}
