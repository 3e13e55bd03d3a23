// Unit and property tests for the hierarchical timing wheel.
//
// The wheel's contract is total-order equivalence: any interleaving of
// push/pop (with pushes never before the last popped time — the simulator
// clock's guarantee) must drain in exactly the 128-bit (time bits ‖ seq) key
// order, no matter which level, the overflow list, a lazy cascade boundary
// or a density re-tick an event traverses. The property tests drive the
// wheel against a std::multiset model under several granularity regimes and
// density shifts; the deterministic tests aim at the classic wheel bugs —
// window-start ticks, bucket wrap, span crossings, re-ticks with overflow
// residents, -0.0 deadlines, equal-time FIFO ties. The tripwires at the end
// check that the tick follows real workloads' density: front runs long
// enough to prefetch along.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <deque>
#include <set>
#include <vector>

#include "net/dumbbell.hpp"
#include "net/queue.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "sim/timing_wheel.hpp"
#include "tcp/tcp_connection.hpp"
#include "testbed/scenario.hpp"
#include "tfrc/tfrc_connection.hpp"
#include "workload/flow_manager.hpp"

namespace {

using ebrc::sim::EarlierCompare;
using ebrc::sim::QueuedEvent;
using ebrc::sim::TimingWheel;

// Layout tripwires: queue entries are the PODs both structures shuffle, and
// the wheel itself must stay a flat ~4 KB of list heads (768 32-bit bucket
// heads + bitmaps), never grow per-event state — the events live in its node
// pool.
static_assert(sizeof(QueuedEvent) == 24);
static_assert(std::is_trivially_copyable_v<QueuedEvent>);
static_assert(sizeof(TimingWheel) < 5 * 1024);

std::uint64_t splitmix(std::uint64_t& s) {
  std::uint64_t z = (s += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

// A wheel driven in lockstep with an exact std::multiset model: every pop
// must return the model's minimum, bit for bit.
struct Checked {
  explicit Checked(double dt) : w(dt) {}
  TimingWheel w;
  std::multiset<QueuedEvent, EarlierCompare> model;
  std::uint64_t seq = 0;
  double now = 0.0;  // time of the last pop

  void push(double at) {
    const QueuedEvent e{at, seq++, 7u};
    w.push(e);
    model.insert(e);
  }
  // Pops one event and checks it against the model; returns its time.
  double pop() {
    const QueuedEvent* p = w.peek();
    EXPECT_NE(p, nullptr);
    EXPECT_FALSE(model.empty());
    if (p == nullptr || model.empty()) return now;
    const QueuedEvent expect = *model.begin();
    EXPECT_EQ(p->seq, expect.seq) << "pop at " << now;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(p->at), std::bit_cast<std::uint64_t>(expect.at));
    now = p->at;
    w.pop_front();
    model.erase(model.begin());
    return now;
  }
  void drain() {
    while (!model.empty() && !::testing::Test::HasFailure()) pop();
    EXPECT_EQ(w.size(), 0u);
    EXPECT_EQ(w.peek(), nullptr);
  }
};

// One stretch of a random push/pop interleaving. Delays are multiples of
// `unit_ticks` ticks — of the granularity at the phase's start — below
// `max_units`, so 0 and exact ties occur. With `hold` = 0 three ops in four
// are pushes; otherwise the queue is held at `hold` events, every pop
// followed by one push, as in a simulator whose events each book the next.
struct Phase {
  double unit_ticks;
  std::uint64_t max_units;
  int ops;
  std::size_t hold = 0;
};

// Runs the phases in order against the model and returns the wheel's
// granularity at the end of each.
std::vector<double> run_phases(double dt, const std::vector<Phase>& phases, std::uint64_t seed) {
  Checked c(dt);
  std::uint64_t rng = seed;
  std::vector<double> ticks;
  for (const Phase& ph : phases) {
    const double unit = ph.unit_ticks * c.w.granularity();
    for (int i = 0; i < ph.ops && !::testing::Test::HasFailure(); ++i) {
      EXPECT_EQ(c.w.size(), c.model.size());
      const bool push = ph.hold == 0 ? c.model.empty() || (splitmix(rng) & 3u) != 0
                                     : c.model.size() < ph.hold;
      if (push) {
        c.push(c.now + static_cast<double>(splitmix(rng) % ph.max_units) * unit);
      } else {
        c.pop();
      }
    }
    ticks.push_back(c.w.granularity());
  }
  c.drain();
  return ticks;
}

// Random push/pop interleaving in one granularity regime, too short for a
// re-tick. `max_delay_qticks` is the delay range in QUARTER ticks, so delays
// include 0, sub-tick fractions, and whatever multiple of the span the
// caller wants.
void run_property(double dt, std::uint64_t max_delay_qticks, int ops, std::uint64_t seed) {
  run_phases(dt, {Phase{0.25, max_delay_qticks, ops}}, seed);
}

TEST(TimingWheel, PropertyLevel0AndBucketWrap) {
  // Delays up to 64 ticks: level-0 traffic with constant 256-tick wraps.
  run_property(1e-3, 256, 6000, 0x1234567);
}

TEST(TimingWheel, PropertyCascadeLevels) {
  // Delays up to 2^17 ticks: level-1/level-2 residents that cascade down.
  run_property(1e-3, 1u << 19, 6000, 0xABCDEF01);
}

TEST(TimingWheel, PropertyOverflowAndRehome) {
  // Delays up to 4 spans (2^26 ticks): the overflow ring is rehomed across
  // several 2^24-tick window crossings.
  run_property(1e-6, 1ull << 28, 4000, 0xFEEDBEEF);
}

TEST(TimingWheel, PropertyRetickFollowsDensityShifts) {
  // A held queue of 256 events under three densities, each phase long
  // enough for a full re-tick window of its own: dense (delays within a
  // quarter tick, so ~1000 events per run), sparse (delays up to 4 spans:
  // overflow and rehome, ~1 event per run), dense again. The tick must
  // shrink, grow and shrink again, and every pop must match the model.
  constexpr double kSpan = static_cast<double>(TimingWheel::kSpanTicks);
  const double dt0 = 1e-3;
  const std::vector<double> ticks =
      run_phases(dt0,
                 {Phase{1.0 / 1024, 256, 60000, 256}, Phase{4 * kSpan / 1024, 1024, 60000, 256},
                  Phase{1.0 / 1024, 256, 60000, 256}},
                 0x5EED5EED);
  ASSERT_EQ(ticks.size(), 3u);
  EXPECT_LT(ticks[0], dt0 / 16) << "dense phase must re-tick finer";
  EXPECT_GT(ticks[1], ticks[0] * 16) << "sparse phase must re-tick coarser";
  EXPECT_LT(ticks[2], ticks[1] / 16) << "dense again must re-tick finer";
}

TEST(TimingWheel, RetickWithOverflowResidentsAndSameInstantRebookings) {
  // dt = 1 s, so ticks are seconds. A resident beyond the 2^24-tick span
  // waits in the overflow list while a one-event-per-tick chain drains a
  // full re-tick window; at the refill after it the mean run is 1, so the
  // tick becomes 8 x the 1 s mean gap. The two events booked just before
  // share the new tick with the last pop and go straight into the run; the
  // same-instant re-booking made while that run drains joins it in key
  // order, and the overflow resident still pops last.
  Checked c(1.0);
  constexpr double kFar = static_cast<double>(TimingWheel::kSpanTicks) + 3.0;
  c.push(kFar);
  constexpr auto kWindow = static_cast<double>(TimingWheel::kRetickWindow);
  for (double t = 1.0; t <= kWindow; t += 1.0) {
    c.push(t);
    ASSERT_EQ(c.pop(), t);
  }
  ASSERT_EQ(c.w.granularity(), 1.0);
  c.push(kWindow + 2.0);
  c.push(kWindow + 3.0);
  ASSERT_EQ(c.pop(), kWindow + 2.0);  // this refill re-ticks
  EXPECT_EQ(c.w.granularity(), 8.0);
  EXPECT_EQ(c.w.ready().size(), 1u) << "kWindow + 3 shares the new tick with the last pop";
  c.push(kWindow + 2.0);  // same-instant re-booking into the current tick
  c.push(kWindow + 2.5);
  c.push(kWindow + 64.0);
  EXPECT_EQ(c.pop(), kWindow + 2.0);
  EXPECT_EQ(c.pop(), kWindow + 2.5);
  EXPECT_EQ(c.pop(), kWindow + 3.0);
  EXPECT_EQ(c.pop(), kWindow + 64.0);
  EXPECT_EQ(c.pop(), kFar);
  c.drain();
}

TEST(TimingWheel, WindowStartBoundariesDrainInOrder) {
  // The exact ticks where cascade bookkeeping is easiest to get wrong:
  // window starts and their neighbours at every level, plus span crossings.
  TimingWheel w(1.0);  // 1 tick == 1 second: ticks are times
  const std::uint64_t marks[] = {0,       1,       255,     256,     257,
                                 65535,   65536,   65537,   1u << 24, (1u << 24) + 1,
                                 (1u << 24) - 1, 3u << 24, (3u << 24) + 255};
  std::uint64_t seq = 0;
  // Push in a scrambled order so placement happens at several levels.
  for (int round = 0; round < 2; ++round) {
    for (std::size_t i = 0; i < std::size(marks); ++i) {
      const std::uint64_t m = marks[(i * 7 + 3 + static_cast<std::size_t>(round)) %
                                    std::size(marks)];
      w.push(QueuedEvent{static_cast<double>(m), seq++, 7u});
    }
  }
  double prev_at = -1.0;
  std::uint64_t prev_seq = 0;
  std::size_t popped = 0;
  while (const QueuedEvent* p = w.peek()) {
    if (p->at == prev_at) {
      EXPECT_GT(p->seq, prev_seq) << "equal-time FIFO broken at " << p->at;
    } else {
      EXPECT_GT(p->at, prev_at) << "time order broken after " << popped << " pops";
    }
    prev_at = p->at;
    prev_seq = p->seq;
    w.pop_front();
    ++popped;
  }
  EXPECT_EQ(popped, 2 * std::size(marks));
}

TEST(TimingWheel, SameInstantRebookingJoinsTheCurrentTick) {
  TimingWheel w(1e-3);
  w.push(QueuedEvent{0.5, 0, 7u});
  const QueuedEvent* p = w.peek();
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->seq, 0u);
  // While 0.5 is the loaded tick, a same-instant re-booking (and one a hair
  // later inside the same tick) must land behind the head in key order.
  w.push(QueuedEvent{0.5, 1, 7u});
  w.push(QueuedEvent{0.5 + 1e-5, 2, 7u});
  std::vector<std::uint64_t> seqs;
  while (const QueuedEvent* q = w.peek()) {
    seqs.push_back(q->seq);
    w.pop_front();
  }
  EXPECT_EQ(seqs, (std::vector<std::uint64_t>{0, 1, 2}));
}

// -------- simulator-level integration ---------------------------------------

TEST(TimingWheel, SimulatorPopsPinnedEventsOnlyFromTheWheel) {
  // One queue per event kind: every pinned entry, the first one included,
  // goes to the wheel, so a pinned-only run never touches the heap.
  ebrc::sim::Simulator sim;
  int fires = 0;
  ebrc::sim::Simulator::PinnedEvent ev{};
  ev = sim.pin([&] {
    if (++fires < 200) sim.schedule_pinned(1e-3, ev);
  });
  sim.schedule_pinned(1e-3, ev);
  sim.run();
  EXPECT_EQ(fires, 200);
  EXPECT_EQ(sim.wheel_pops(), 200u);
  EXPECT_EQ(sim.heap_pops(), 0u);
  EXPECT_NEAR(sim.now(), 0.2, 1e-12);
}

TEST(TimingWheel, NegativeZeroDeadlineNormalizedOnWheelPath) {
  ebrc::sim::Simulator sim;
  std::vector<int> order;
  const auto ev = sim.pin([&] { order.push_back(1); });
  const auto tick = sim.pin([&] { order.push_back(0); });
  sim.run_until(0.25);
  // now() > 0; schedule two pinned events at the same instant, the second
  // via a -0.0 delay: -0.0 must order exactly like +0.0 (seq breaks the tie).
  sim.schedule_pinned(0.0, tick);
  sim.schedule_pinned(-0.0, ev);
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1}));
}

TEST(TimingWheel, EqualTimeWheelAndHeapEventsInterleaveBySeq) {
  ebrc::sim::Simulator sim;
  std::vector<int> order;
  const auto pinned = sim.pin([&] { order.push_back(100); });
  // Alternate slab (heap) and pinned (wheel) events at one instant: the
  // merged pop must interleave them in insertion order.
  const double at = sim.now() + 0.5;
  sim.schedule_at(at, [&] { order.push_back(0); });
  sim.schedule_pinned_at(at, pinned);
  sim.schedule_at(at, [&] { order.push_back(1); });
  sim.schedule_pinned_at(at, pinned);
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 100, 1, 100}));
}

TEST(TimingWheel, QueueSizeSpansBothStructures) {
  ebrc::sim::Simulator sim;
  const auto pinned = sim.pin([] {});
  sim.schedule_pinned(1.0, pinned);   // wheel
  sim.schedule_pinned(2000.0, pinned);  // wheel (far future)
  sim.schedule(3.0, [] {});  // heap
  EXPECT_EQ(sim.queue_size(), 3u);
  sim.run();
  EXPECT_EQ(sim.queue_size(), 0u);
}

// -------- tripwires: the tick follows real workloads' density ---------------
//
// The wheel starts at a constant 1 ms tick, which fits neither a churn fill
// ramp's dense arrivals nor the window after it, whose wheel events are
// sparser than the ramp's; with a tick far finer than the gaps, front runs
// hold one event each and there is nothing to prefetch along. After
// warm-up the density re-tick must keep the mean run at 2 or more.

double mean_run_over(ebrc::sim::Simulator& sim, double until) {
  const std::uint64_t pops0 = sim.wheel_pops();
  const std::uint64_t loads0 = sim.wheel().loads();
  sim.run_until(until);
  const auto loads = static_cast<double>(sim.wheel().loads() - loads0);
  return loads > 0 ? static_cast<double>(sim.wheel_pops() - pops0) / loads : 0.0;
}

TEST(TimingWheel, TripwireStaticRedCellFrontRunsHoldSeveralEvents) {
  // A Fig. 5 ns-2 RED cell (L = 8, 16 TFRC + 16 TCP flows), as
  // run_experiment wires it, for 60 s.
  using namespace ebrc;
  const testbed::Scenario sc = testbed::ns2_scenario(16, 16, 8, 11);
  sim::Simulator sim;
  sim::Rng rng(3);
  net::Dumbbell net(sim,
                    net::Queue::red(net::red_params_for_bdp(sc.bottleneck_bps, sc.base_rtt_s,
                                                            sc.tfrc.packet_bytes),
                                    5),
                    sc.bottleneck_bps, 0.001);
  std::deque<tfrc::TfrcConnection> tfrcs;
  std::deque<tcp::TcpConnection> tcps;
  for (int i = 0; i < sc.n_tfrc; ++i) {
    const int id = net.add_flow(sc.base_rtt_s / 2 - 0.001, sc.base_rtt_s / 2);
    tfrcs.emplace_back(net, id, sc.base_rtt_s, sc.tfrc).start(rng.uniform(0.0, 1.0));
  }
  for (int i = 0; i < sc.n_tcp; ++i) {
    const int id = net.add_flow(sc.base_rtt_s / 2 - 0.001, sc.base_rtt_s / 2);
    tcps.emplace_back(net, id, sc.base_rtt_s, sc.tcp).start(rng.uniform(0.0, 1.0));
  }
  sim.run_until(20.0);  // warm-up
  EXPECT_GE(mean_run_over(sim, 60.0), 2.0) << "tick " << sim.wheel().granularity() << " s";
}

TEST(TimingWheel, TripwireChurnPoolFrontRunsHoldSeveralEvents) {
  // A small saturated churn pool filled by raised arrivals in a 0.2 s ramp,
  // whose arrivals then stop, as churn_100k's cell is built: the ramp's
  // arrival gaps are far finer than the window's event gaps.
  using namespace ebrc;
  constexpr int kSlots = 2000;
  sim::Simulator sim;
  net::Dumbbell net(sim,
                    net::Queue::red(net::red_params_for_bdp(15e6, 0.05, 1000), 7), 15e6, 0.001);
  workload::FlowManagerConfig cfg;
  cfg.workload.arrival_rate_per_s = 3.0 * kSlots / 0.2;
  cfg.workload.mean_size_pkts = 100.0;
  cfg.workload.max_concurrent = kSlots;
  cfg.seed = 9;
  workload::FlowManager mgr(net, cfg);
  mgr.start(0.0);
  sim.run_until(0.2);
  mgr.stop();
  sim.run_until(2.0);  // warm-up
  EXPECT_GE(mean_run_over(sim, 10.0), 2.0) << "tick " << sim.wheel().granularity() << " s";
}

}  // namespace
