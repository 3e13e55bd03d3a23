// Event-kernel throughput benchmark: the first point of the repo's perf
// trajectory. Drives the simulator's schedule/run hot paths with
// capture classes that exercise every storage tier of the kernel —
//
//   empty_capture    captureless closures (tiny slot, no state)
//   capture8         one-pointer captures, the protocols' [this] timers
//   capture48        48-byte captures (wide slot, still zero-allocation)
//   boxed96          oversized captures (heap box: exactly 1 alloc/event)
//   timer_churn      a timer re-armed earlier plus a plain event, the
//                    RTO/delayed-ACK pattern: superseded firings run and
//                    drop themselves by event id (3 executed per 3 scheduled)
//   steady_state     self-rescheduling chains holding a bounded pending set,
//                    the shape of a real experiment run
//   pinned_steady    the same chain shape on pinned events: every schedule
//                    is an O(1) timing-wheel bucket append and every pop
//                    drains from the wheel (the "wheel share" column
//                    reports the wheel-vs-heap pop split: 1 here)
//
// and reports events/second (best of --reps measurement slices, so a loaded
// CI box reports its least-interfered slice) plus InlineFunction
// heap-fallback allocations per event. Results go to stdout as a table and
// to --out (default BENCH_kernel.json) as machine-readable JSON; CI uploads
// the JSON as an artifact so the trajectory is comparable across commits.
//
//   ./bench_kernel_throughput [--events=N] [--reps=R] [--out=path.json]
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/inline_function.hpp"
#include "sim/simulator.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

namespace {

using Clock = std::chrono::steady_clock;
using ebrc::sim::EventId;
using ebrc::sim::Simulator;

struct WorkloadResult {
  std::string name;
  std::uint64_t events = 0;         // events executed per slice
  double best_events_per_sec = 0;   // best slice
  double heap_allocs_per_event = 0; // InlineFunction heap fallbacks
  std::uint64_t wheel_pops = 0;     // timing-wheel vs heap split of the pops
  std::uint64_t heap_pops = 0;
};

/// What one measurement slice hands back: the kernel's event count plus its
/// wheel-vs-heap pop telemetry.
struct RunStats {
  std::uint64_t events = 0;
  std::uint64_t wheel_pops = 0;
  std::uint64_t heap_pops = 0;
};

RunStats stats_of(const Simulator& sim) {
  return {sim.events_executed(), sim.wheel_pops(), sim.heap_pops()};
}

template <typename Body>
WorkloadResult measure(const std::string& name, int reps, Body&& body) {
  WorkloadResult r;
  r.name = name;
  double best = 0;
  for (int rep = 0; rep < reps; ++rep) {
    const std::uint64_t allocs0 = ebrc::sim::inline_function_heap_allocs();
    const auto t0 = Clock::now();
    const RunStats run = body();
    const double secs = std::chrono::duration<double>(Clock::now() - t0).count();
    const std::uint64_t allocs = ebrc::sim::inline_function_heap_allocs() - allocs0;
    r.events = run.events;
    r.wheel_pops = run.wheel_pops;
    r.heap_pops = run.heap_pops;
    r.heap_allocs_per_event = static_cast<double>(allocs) / static_cast<double>(run.events);
    best = std::max(best, static_cast<double>(run.events) / secs);
  }
  r.best_events_per_sec = best;
  return r;
}

// All-pending-then-drain with a given capture payload: stresses the heap at
// its deepest and the slab at its coldest.
template <typename MakeFn>
RunStats bulk_run(std::uint64_t n, MakeFn&& make_fn) {
  Simulator sim;
  for (std::uint64_t i = 0; i < n; ++i) {
    sim.schedule(static_cast<double>(i % 97) * 1e-3, make_fn(i));
  }
  sim.run();
  return stats_of(sim);
}

RunStats churn_run(std::uint64_t n, double& sink) {
  Simulator sim;
  double* out = &sink;
  // One timer, armed and then re-armed earlier every iteration — the TCP
  // RTO / delayed-ACK pattern of sim::LazyTimer. Every firing but the live
  // event's runs and drops itself by its event id.
  struct Timer {
    const Simulator* sim;
    EventId live;
    double* out;
    void fire() const {
      if (sim->current_event() == live) *out += 1;
    }
  } timer{&sim, 0, out};
  const Timer* t = &timer;
  for (std::uint64_t i = 0; i < n; ++i) {
    sim.schedule(1.0 + static_cast<double>(i % 13) * 1e-3, [t] { t->fire(); });
    timer.live = sim.schedule(static_cast<double>(i % 97) * 1e-3, [t] { t->fire(); });
    sim.schedule(static_cast<double>(i % 89) * 1e-3, [out] { *out += 1; });
  }
  sim.run();
  return stats_of(sim);
}

RunStats steady_run(std::uint64_t n, double& sink) {
  // kChains self-rescheduling event chains (a bounded pending set, like a
  // population of senders with in-flight packets), each hopping a pseudo-
  // random delay forward until the event budget is spent.
  constexpr int kChains = 512;
  Simulator sim;
  struct Chain {
    Simulator* sim;
    double* sink;
    std::uint64_t* remaining;
    std::uint32_t state;
    void hop() {
      *sink += 1;
      if (*remaining == 0) return;
      --*remaining;
      state = state * 1664525u + 1013904223u;  // lcg: deterministic delays
      sim->schedule((1 + (state >> 20)) * 1e-6, [c = *this]() mutable { c.hop(); });
    }
  };
  std::uint64_t remaining = n > kChains ? n - kChains : 0;
  std::vector<Chain> chains;
  chains.reserve(kChains);
  for (int i = 0; i < kChains; ++i) {
    chains.push_back(Chain{&sim, &sink, &remaining, static_cast<std::uint32_t>(i * 2654435761u)});
    Chain* c = &chains.back();
    sim.schedule(i * 1e-6, [c] { c->hop(); });
  }
  sim.run();
  return stats_of(sim);
}

// The pinned-delivery shape: self-rescheduling PINNED chains (pipe
// deliveries, pacing ticks). The timing wheel absorbs every schedule as an
// O(1) bucket append, and every pop drains from the wheel's front run.
RunStats pinned_run(std::uint64_t n, double& sink) {
  constexpr int kChains = 512;
  Simulator sim;
  std::vector<Simulator::PinnedEvent> evs;
  evs.reserve(kChains);
  std::vector<std::uint32_t> states(kChains);
  std::uint64_t remaining = n > static_cast<std::uint64_t>(kChains)
                                ? n - static_cast<std::uint64_t>(kChains)
                                : 0;
  for (int i = 0; i < kChains; ++i) {
    states[i] = static_cast<std::uint32_t>(i) * 2654435761u;
    evs.push_back(sim.pin([&sim, &evs, &states, &remaining, &sink, i] {
      sink += 1;
      if (remaining == 0) return;
      --remaining;
      states[i] = states[i] * 1664525u + 1013904223u;  // lcg: deterministic delays
      sim.schedule_pinned((1 + (states[i] >> 20)) * 1e-6, evs[i]);
    }));
  }
  for (int i = 0; i < kChains; ++i) sim.schedule_pinned((i + 1) * 1e-6, evs[i]);
  sim.run();
  return stats_of(sim);
}

void write_json(const std::string& path, std::uint64_t events, int reps,
                const std::vector<WorkloadResult>& results) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "[json] cannot open %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\n  \"bench\": \"kernel_throughput\",\n");
#ifdef NDEBUG
  std::fprintf(f, "  \"build\": \"release\",\n");
#else
  std::fprintf(f, "  \"build\": \"debug\",\n");
#endif
  std::fprintf(f, "  \"events_per_workload\": %llu,\n  \"repetitions\": %d,\n",
               static_cast<unsigned long long>(events), reps);
  std::fprintf(f, "  \"workloads\": [\n");
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& r = results[i];
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"events\": %llu, \"events_per_sec\": %.0f, "
                 "\"ns_per_event\": %.2f, \"heap_allocs_per_event\": %.6f, "
                 "\"wheel_pops\": %llu, \"heap_pops\": %llu}%s\n",
                 r.name.c_str(), static_cast<unsigned long long>(r.events),
                 r.best_events_per_sec, 1e9 / r.best_events_per_sec,
                 r.heap_allocs_per_event, static_cast<unsigned long long>(r.wheel_pops),
                 static_cast<unsigned long long>(r.heap_pops),
                 i + 1 < results.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("[json] wrote %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ebrc;
  util::Cli cli(argc, argv);
  cli.know("events").know("reps").know("out").know("help");
  const std::uint64_t events = cli.get("events", std::uint64_t{2'000'000});
  const int reps = cli.get("reps", 3);
  const std::string out = cli.get("out", std::string("BENCH_kernel.json"));
  cli.finish();
  if (reps < 1) throw std::invalid_argument("--reps must be >= 1");
  if (events < 1000) throw std::invalid_argument("--events must be >= 1000");

  std::printf("=== event-kernel throughput — %llu events/workload, best of %d ===\n",
              static_cast<unsigned long long>(events), reps);

  double sink = 0;
  struct Big48 {
    double a[6];
  };
  struct Big96 {
    double a[12];
  };
  std::vector<WorkloadResult> results;
  results.push_back(measure("empty_capture", reps, [&] {
    return bulk_run(events, [](std::uint64_t) { return [] {}; });
  }));
  results.push_back(measure("capture8", reps, [&] {
    double* out_p = &sink;
    return bulk_run(events, [out_p](std::uint64_t) {
      return [out_p] { *out_p += 1; };
    });
  }));
  results.push_back(measure("capture48", reps, [&] {
    double* out_p = &sink;
    Big48 big{{1, 2, 3, 4, 5, 6}};
    return bulk_run(events, [out_p, big](std::uint64_t i) {
      Big48 b = big;
      b.a[0] = static_cast<double>(i);
      return [out_p, b] { *out_p += b.a[0] + b.a[5]; };
    });
  }));
  results.push_back(measure("boxed96", reps, [&] {
    double* out_p = &sink;
    Big96 big{};
    big.a[11] = 1;
    return bulk_run(events, [out_p, big](std::uint64_t) {
      return [out_p, big] { *out_p += big.a[11]; };
    });
  }));
  results.push_back(measure("timer_churn", reps, [&] { return churn_run(events, sink); }));
  results.push_back(measure("steady_state", reps, [&] { return steady_run(events, sink); }));
  results.push_back(measure("pinned_steady", reps, [&] { return pinned_run(events, sink); }));

  util::Table t({"workload", "Mevents/s", "ns/event", "allocs/event", "wheel share"});
  for (const auto& r : results) {
    const double pops = static_cast<double>(r.wheel_pops + r.heap_pops);
    t.row({r.name, util::fmt(r.best_events_per_sec / 1e6, 4),
           util::fmt(1e9 / r.best_events_per_sec, 4), util::fmt(r.heap_allocs_per_event, 4),
           util::fmt(pops > 0 ? static_cast<double>(r.wheel_pops) / pops : 0.0, 3)});
  }
  t.print("");
  if (sink < 0) std::printf("?");  // keep the side effects alive

  write_json(out, events, reps, results);
  return 0;
}
