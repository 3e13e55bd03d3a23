// Microbenchmarks (google-benchmark) of the library's hot paths: the event
// queue, the moving-average estimator, RED enqueue/dequeue, the throughput
// formulas, and a Proposition-1 Monte-Carlo step.
#include <benchmark/benchmark.h>

#include <memory>

#include "core/analyzer.hpp"
#include "core/estimator.hpp"
#include "core/weights.hpp"
#include "loss/loss_process.hpp"
#include "model/throughput_function.hpp"
#include "net/queue.hpp"
#include "sim/simulator.hpp"

namespace {

using namespace ebrc;

void BM_EventQueueScheduleRun(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator sim;
    for (int i = 0; i < state.range(0); ++i) {
      sim.schedule(static_cast<double>(i % 97) * 1e-3, [] {});
    }
    sim.run();
    benchmark::DoNotOptimize(sim.events_executed());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_EventQueueScheduleRun)->Arg(1024)->Arg(16384);

// The capture-heavy variant: 48-byte captures land in the slab's wide slots
// (inline, zero heap allocations) where the seed kernel's std::function paid
// a malloc/free per event.
void BM_EventQueueScheduleRunCaptureHeavy(benchmark::State& state) {
  struct Big {
    double a[6];
  };
  double sink = 0;
  for (auto _ : state) {
    sim::Simulator sim;
    Big big{{1, 2, 3, 4, 5, 6}};
    double* out = &sink;
    for (int i = 0; i < state.range(0); ++i) {
      big.a[0] = static_cast<double>(i);
      sim.schedule(static_cast<double>(i % 97) * 1e-3, [out, big] { *out += big.a[0]; });
    }
    sim.run();
    benchmark::DoNotOptimize(sim.events_executed());
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_EventQueueScheduleRunCaptureHeavy)->Arg(1024)->Arg(16384);

void BM_EstimatorPush(benchmark::State& state) {
  core::MovingAverageEstimator est(core::tfrc_weights(static_cast<std::size_t>(state.range(0))));
  est.seed(10.0);
  double v = 10.0;
  for (auto _ : state) {
    v = v * 0.999 + 0.01;
    est.push(v);
    benchmark::DoNotOptimize(est.value());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EstimatorPush)->Arg(8)->Arg(16)->Arg(128);

void BM_RedEnqueueDequeue(benchmark::State& state) {
  net::Queue q = net::Queue::red(net::red_params_for_bdp(15e6, 0.05), 1);
  net::Packet p;
  net::Packet out;
  double t = 0.0;
  for (auto _ : state) {
    t += 1e-4;
    if (q.enqueue(p, t)) benchmark::DoNotOptimize(q.packets(t));
    if (q.packets(t) > 40) benchmark::DoNotOptimize(q.dequeue(out, t));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RedEnqueueDequeue);

void BM_ThroughputFormula(benchmark::State& state) {
  const auto f = model::make_throughput_function(
      state.range(0) == 0 ? "sqrt" : (state.range(0) == 1 ? "pftk" : "pftk-simplified"), 0.05);
  double p = 1e-4;
  for (auto _ : state) {
    p = p < 0.5 ? p * 1.01 : 1e-4;
    benchmark::DoNotOptimize(f->rate(p));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ThroughputFormula)->Arg(0)->Arg(1)->Arg(2);

void BM_Proposition1MonteCarlo(benchmark::State& state) {
  const auto f = model::make_throughput_function("pftk-simplified", 1.0);
  for (auto _ : state) {
    loss::ShiftedExponentialProcess proc(0.1, 0.9, 42);
    const auto r = core::run_basic_control(
        *f, proc, core::tfrc_weights(8),
        {.events = static_cast<std::uint64_t>(state.range(0)), .warmup = 100});
    benchmark::DoNotOptimize(r.normalized);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Proposition1MonteCarlo)->Arg(10000);

}  // namespace

BENCHMARK_MAIN();
