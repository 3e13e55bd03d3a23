#include <gtest/gtest.h>

#include <functional>
#include <vector>

#include "sim/lazy_timer.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "stats/online.hpp"

namespace {

using ebrc::sim::EventId;
using ebrc::sim::LazyTimer;
using ebrc::sim::Rng;
using ebrc::sim::Simulator;

TEST(Simulator, ExecutesInTimeOrder) {
  Simulator s;
  std::vector<int> order;
  s.schedule(3.0, [&] { order.push_back(3); });
  s.schedule(1.0, [&] { order.push_back(1); });
  s.schedule(2.0, [&] { order.push_back(2); });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(s.now(), 3.0);
  EXPECT_EQ(s.events_executed(), 3u);
}

TEST(Simulator, FifoTieBreakAtEqualTimes) {
  Simulator s;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    s.schedule(1.0, [&order, i] { order.push_back(i); });
  }
  s.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Simulator, EventIdsAreInsertionSequenceNumbers) {
  // Pinned and slab events share one sequence, so a slab event's id counts
  // the pinned entries scheduled before it too.
  Simulator s;
  const auto pinned = s.pin([] {});
  std::vector<EventId> ran;
  const EventId a = s.schedule(2.0, [&] { ran.push_back(s.current_event()); });
  s.schedule_pinned(1.0, pinned);
  const EventId b = s.schedule_at(1.0, [&] { ran.push_back(s.current_event()); });
  EXPECT_EQ(a, 0u);
  EXPECT_EQ(b, 2u);
  s.run();
  EXPECT_EQ(ran, (std::vector<EventId>{b, a}));
  EXPECT_EQ(s.events_executed(), 3u);
  EXPECT_EQ(s.wheel_pops() + s.heap_pops(), s.events_executed());
}

TEST(Simulator, RunUntilStopsTheClock) {
  Simulator s;
  int count = 0;
  s.schedule(1.0, [&] { ++count; });
  s.schedule(5.0, [&] { ++count; });
  s.run_until(2.0);
  EXPECT_EQ(count, 1);
  EXPECT_DOUBLE_EQ(s.now(), 2.0);
  s.run_until(10.0);
  EXPECT_EQ(count, 2);
}

TEST(Simulator, EventsCanScheduleEvents) {
  Simulator s;
  int depth = 0;
  std::function<void()> chain = [&] {
    if (++depth < 10) s.schedule(1.0, chain);
  };
  s.schedule(1.0, chain);
  s.run();
  EXPECT_EQ(depth, 10);
  EXPECT_DOUBLE_EQ(s.now(), 10.0);
}

TEST(Simulator, SlabRecyclesSlotsInsteadOfGrowing) {
  // The pooled liveness slab: a long chain of schedule/fire cycles must reuse
  // a bounded set of slots, not allocate one per event.
  Simulator s;
  int count = 0;
  std::function<void()> chain = [&] {
    if (++count < 1000) s.schedule(0.001, chain);
  };
  s.schedule(0.001, chain);
  s.run();
  EXPECT_EQ(count, 1000);
  EXPECT_LE(s.slab().capacity(), 4u);
}

TEST(Simulator, WideCaptureSlotsRecycleLikeTinyOnes) {
  // Mid-sized captures (9..56 bytes) use the wide slot class; a long chain
  // must recycle a bounded set of slots there too.
  Simulator s;
  int count = 0;
  struct {
    double a[5];
  } pad{{1, 2, 3, 4, 5}};
  std::function<void()> chain = [&, pad] {
    if (++count < 1000) s.schedule(0.001, chain);
    (void)pad;
  };
  s.schedule(0.001, chain);
  s.run();
  EXPECT_EQ(count, 1000);
  EXPECT_LE(s.slab().capacity(), 4u);
}

TEST(Simulator, ReservePreservesSemantics) {
  Simulator s;
  s.reserve(4096);
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    s.schedule(1.0, [&order, i] { order.push_back(i); });
  }
  EXPECT_EQ(s.queue_size(), 5u);
  s.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
  EXPECT_EQ(s.queue_size(), 0u);
}

TEST(Simulator, NegativeZeroDelayOrdersLikeZero) {
  // -0.0 must not be treated as a distinct (later) time by the packed
  // bit-pattern heap key.
  Simulator s;
  std::vector<int> order;
  s.schedule_at(0.0, [&] { order.push_back(0); });
  s.schedule_at(-0.0, [&] { order.push_back(1); });
  s.schedule(0.0, [&] { order.push_back(2); });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(Simulator, PinnedEventsInterleaveWithSlabEventsInSeqOrder) {
  // Pinned callbacks share the global (time, insertion-seq) order with
  // ordinary events — including FIFO tie-breaks at equal times.
  Simulator s;
  std::vector<int> order;
  const auto ping = s.pin([&] { order.push_back(100); });
  const auto pong = s.pin([&] { order.push_back(200); });
  s.schedule_at(1.0, [&] { order.push_back(0); });
  s.schedule_pinned_at(1.0, ping);   // same time: after 0, before 1
  s.schedule_at(1.0, [&] { order.push_back(1); });
  s.schedule_pinned(0.5, pong);      // earliest
  s.schedule_pinned_at(2.0, ping);   // the same pin pending twice is fine
  s.run();
  EXPECT_EQ(order, (std::vector<int>{200, 0, 100, 1, 100}));
  EXPECT_EQ(s.events_executed(), 5u);
}

TEST(Simulator, PinnedSelfRescheduleRunsZeroAlloc) {
  Simulator s;
  int count = 0;
  Simulator::PinnedEvent tick = 0;
  tick = s.pin([&] {
    if (++count < 1000) s.schedule_pinned(0.001, tick);
  });
  const std::uint64_t allocs0 = ebrc::sim::inline_function_heap_allocs();
  s.schedule_pinned(0.001, tick);
  s.run();
  EXPECT_EQ(count, 1000);
  EXPECT_DOUBLE_EQ(s.now(), 1.0);
  EXPECT_EQ(ebrc::sim::inline_function_heap_allocs() - allocs0, 0u);
}

TEST(Simulator, PinnedRejectsBadTimes) {
  Simulator s;
  const auto ev = s.pin([] {});
  EXPECT_THROW(s.schedule_pinned(-1.0, ev), std::invalid_argument);
  s.schedule(1.0, [] {});
  s.run();
  EXPECT_THROW(s.schedule_pinned_at(0.5, ev), std::invalid_argument);
}

TEST(Simulator, RejectsPastScheduling) {
  Simulator s;
  s.schedule(1.0, [] {});
  s.run();
  EXPECT_THROW(s.schedule_at(0.5, [] {}), std::invalid_argument);
  EXPECT_THROW(s.schedule(-1.0, [] {}), std::invalid_argument);
}

TEST(Rng, DeterministicUnderSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
}

TEST(Rng, SplitStreamsDiffer) {
  Rng root(42);
  Rng a = root.split("flows");
  Rng b = root.split("queues");
  // Not a statistical test, just divergence of the first draws.
  EXPECT_NE(a.uniform(), b.uniform());
}

TEST(Rng, ExponentialMean) {
  Rng r(7);
  ebrc::stats::OnlineMoments m;
  for (int i = 0; i < 200000; ++i) m.add(r.exponential_mean(2.5));
  EXPECT_NEAR(m.mean(), 2.5, 0.03);
  EXPECT_NEAR(m.cv(), 1.0, 0.02);
}

TEST(Rng, ShiftedExponentialMoments) {
  Rng r(7);
  ebrc::stats::OnlineMoments m;
  for (int i = 0; i < 200000; ++i) m.add(r.shifted_exponential(3.0, 0.5));
  EXPECT_NEAR(m.mean(), 5.0, 0.05);        // x0 + 1/a = 3 + 2
  EXPECT_NEAR(m.stddev(), 2.0, 0.05);      // sd = 1/a
}

TEST(Rng, BernoulliRate) {
  Rng r(9);
  int hits = 0;
  constexpr int kN = 100000;
  for (int i = 0; i < kN; ++i) hits += r.bernoulli(0.2);
  EXPECT_NEAR(static_cast<double>(hits) / kN, 0.2, 0.01);
}

TEST(Rng, ParetoMean) {
  Rng r(11);
  ebrc::stats::OnlineMoments m;
  for (int i = 0; i < 400000; ++i) m.add(r.pareto_mean(10.0, 2.5));
  EXPECT_NEAR(m.mean(), 10.0, 0.3);
}

TEST(Rng, InvalidArgumentsThrow) {
  Rng r(1);
  EXPECT_THROW(r.exponential_mean(0.0), std::invalid_argument);
  EXPECT_THROW(r.bernoulli(1.5), std::invalid_argument);
  EXPECT_THROW(r.pareto_mean(1.0, 1.0), std::invalid_argument);
  EXPECT_THROW(r.shifted_exponential(-1.0, 1.0), std::invalid_argument);
}

TEST(ShiftedExpFor, RealizesTargetMoments) {
  // The paper's design: fix p and cv independently.
  for (double p : {0.01, 0.1, 0.3}) {
    for (double cv : {0.2, 0.5, 0.999}) {
      const auto prm = ebrc::sim::shifted_exp_for(p, cv);
      const double mean = prm.x0 + 1.0 / prm.a;
      const double cv2 = (1.0 / prm.a) / mean;
      EXPECT_NEAR(mean, 1.0 / p, 1e-9);
      EXPECT_NEAR(cv2, cv * cv, 1e-9);
      EXPECT_GE(prm.x0, 0.0);
    }
  }
  EXPECT_THROW((void)ebrc::sim::shifted_exp_for(0.1, 1.5), std::invalid_argument);
  EXPECT_THROW((void)ebrc::sim::shifted_exp_for(-0.1, 0.5), std::invalid_argument);
}

TEST(Simulator, WallDeadlinePreemptsAnInfiniteEventChain) {
  // A self-rescheduling chain that never drains: without the cooperative
  // 64k-event poll in run_until this test would spin forever.
  Simulator s;
  std::function<void()> chain = [&] { s.schedule(1.0, chain); };
  s.schedule(1.0, chain);
  ebrc::sim::arm_thread_wall_deadline(0.2);
  EXPECT_THROW(s.run(), ebrc::sim::WallDeadlineError);
  ebrc::sim::disarm_thread_wall_deadline();
  EXPECT_FALSE(ebrc::sim::thread_wall_deadline_armed());

  // Disarmed, a finite run is unaffected.
  Simulator s2;
  int fired = 0;
  s2.schedule(1.0, [&] { ++fired; });
  s2.run();
  EXPECT_EQ(fired, 1);
}


// Drives one LazyTimer the way TCP drives its RTO: the kernel event hands
// fire() its own id, and a due deadline records the action time.
struct TimerRig {
  Simulator sim;
  LazyTimer timer;
  std::vector<double> actions;

  EventId schedule(double at) {
    return sim.schedule_at(at, [this] { on_event(); });
  }
  void arm(double at) {
    timer.arm(at, [this](double t) { return schedule(t); });
  }
  void on_event() {
    if (timer.fire(sim.current_event(), sim.now(), [this](double t) { return schedule(t); })) {
      actions.push_back(sim.now());
    }
  }
};

TEST(LazyTimer, RearmedLaterOneEventChasesTheDeadline) {
  TimerRig r;
  r.arm(1.0);
  r.sim.run_until(0.5);
  r.arm(2.0);  // extension: a store, no new kernel event
  EXPECT_EQ(r.sim.queue_size(), 1u);
  r.sim.run();
  EXPECT_EQ(r.actions, (std::vector<double>{2.0}));
  EXPECT_EQ(r.sim.events_executed(), 2u);  // the 1.0 firing re-arms at 2.0
  EXPECT_FALSE(r.timer.active());
}

TEST(LazyTimer, RearmedEarlierSupersededFiringIsANoOp) {
  TimerRig r;
  r.arm(2.0);
  r.sim.run_until(0.5);
  r.arm(1.0);  // the event at 2.0 is too late: a new one goes in at 1.0
  EXPECT_EQ(r.sim.queue_size(), 2u);
  r.sim.run();
  EXPECT_EQ(r.actions, (std::vector<double>{1.0}));
  EXPECT_EQ(r.sim.events_executed(), 2u);  // the 2.0 firing runs and dies
  EXPECT_DOUBLE_EQ(r.sim.now(), 2.0);
}

TEST(LazyTimer, DisarmedThenRearmedReusesTheLiveEvent) {
  TimerRig r;
  r.arm(1.0);
  r.sim.run_until(0.5);
  r.timer.disarm();
  EXPECT_FALSE(r.timer.active());
  r.arm(1.0);
  EXPECT_EQ(r.sim.queue_size(), 1u);
  r.sim.run();
  EXPECT_EQ(r.actions, (std::vector<double>{1.0}));
  EXPECT_EQ(r.sim.events_executed(), 1u);

  // Disarmed and left alone, the firing dies without acting.
  r.arm(3.0);
  r.timer.disarm();
  r.sim.run();
  EXPECT_EQ(r.actions, (std::vector<double>{1.0}));
  EXPECT_EQ(r.sim.events_executed(), 2u);
}

TEST(LazyTimer, CancelledThenRearmedWithdrawnFiringIsANoOp) {
  TimerRig r;
  r.arm(1.0);
  r.sim.run_until(0.5);
  r.timer.cancel();
  r.arm(1.5);  // the withdrawn event cannot be reused: a new one at 1.5
  EXPECT_EQ(r.sim.queue_size(), 2u);
  r.sim.run();
  // The 1.0 firing must not chase the live deadline: that would schedule a
  // third event.
  EXPECT_EQ(r.actions, (std::vector<double>{1.5}));
  EXPECT_EQ(r.sim.events_executed(), 2u);
}

}  // namespace
