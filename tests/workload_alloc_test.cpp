// Lifecycle-hygiene gate for the flow pool: churn is the first subsystem
// that constructs and retires connections on the hot path, so this binary
// overrides global operator new with a counting shim (same harness as
// packet_path_alloc_test) and asserts the pool's steady-state contract:
//
//   * once every slot has served both traffic classes, spawning/retiring
//     hundreds more flows performs (amortized) zero heap allocations — slot
//     recycling is open() state rewinds, never construction,
//   * no pinned kernel callbacks are registered per arrival (pins are
//     permanent, so a per-flow pin is a leak by definition),
//   * retirement leaks no timers or event chains: after FlowManager::stop()
//     the kernel drains COMPLETELY, and the pending-event census stays flat
//     across measurement windows while churn runs,
//   * a wired slot fits its footprint budget: the shim also tracks live heap
//     bytes, so a pre-sized ring or a per-connection copy of shared state
//     cannot creep back into the million-flow path unnoticed.
#include <gtest/gtest.h>
#include <malloc.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "net/dumbbell.hpp"
#include "net/queue.hpp"
#include "sim/inline_function.hpp"
#include "sim/simulator.hpp"
#include "workload/flow_manager.hpp"

namespace {
std::atomic<std::uint64_t> g_news{0};
std::atomic<std::int64_t> g_live_bytes{0};  // usable bytes of live blocks

void* counted(void* p) {
  if (p == nullptr) throw std::bad_alloc();
  g_news.fetch_add(1, std::memory_order_relaxed);
  g_live_bytes.fetch_add(static_cast<std::int64_t>(malloc_usable_size(p)),
                         std::memory_order_relaxed);
  return p;
}
void counted_free(void* p) noexcept {
  if (p != nullptr) {
    g_live_bytes.fetch_sub(static_cast<std::int64_t>(malloc_usable_size(p)),
                           std::memory_order_relaxed);
  }
  std::free(p);
}
}  // namespace

void* operator new(std::size_t n) { return counted(std::malloc(n ? n : 1)); }
void* operator new[](std::size_t n) { return ::operator new(n); }
void* operator new(std::size_t n, std::align_val_t al) {
  const auto a = static_cast<std::size_t>(al);
  return counted(std::aligned_alloc(a, (n + a - 1) & ~(a - 1)));
}
void* operator new[](std::size_t n, std::align_val_t al) { return ::operator new(n, al); }
void operator delete(void* p) noexcept { counted_free(p); }
void operator delete[](void* p) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::size_t) noexcept { counted_free(p); }
void operator delete(void* p, std::align_val_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { counted_free(p); }

namespace {

using namespace ebrc;

workload::FlowManagerConfig churn_config() {
  workload::FlowManagerConfig cfg;
  cfg.workload.arrival_rate_per_s = 30.0;
  cfg.workload.mean_size_pkts = 40.0;
  cfg.workload.max_concurrent = 8;
  cfg.base_rtt_s = 0.050;
  cfg.drain_s = 0.3;
  cfg.seed = 17;
  return cfg;
}

TEST(WorkloadAlloc, SteadyStateChurnIsAmortizedZeroAllocAndPinFlat) {
  sim::Simulator sim;
  net::Dumbbell net(sim, net::Queue::drop_tail(100), 8e6, 0.001);
  workload::FlowManager mgr(net, churn_config());
  mgr.start(0.0);

  // Warm-up: with ~30 arrivals/s through an 8-slot pool, every slot has
  // served both classes many times over — all connections, dumbbell flows,
  // rings, and vector capacities exist.
  sim.run_until(60.0);
  mgr.begin_epoch();

  const std::uint64_t news0 = g_news.load(std::memory_order_relaxed);
  const std::uint64_t inline0 = sim::inline_function_heap_allocs();
  const std::uint64_t pins0 = sim.pinned_callbacks();
  const std::size_t queue0 = sim.queue_size();

  sim.run_until(180.0);

  const auto summary = mgr.summarize();
  ASSERT_GT(summary.completions, 400u) << "the window must churn real flows";

  // No pins per arrival, ever: the census is identical, not merely close.
  EXPECT_EQ(sim.pinned_callbacks(), pins0);
  // No inline-function spills: every lifecycle closure fits its buffer.
  EXPECT_EQ(sim::inline_function_heap_allocs() - inline0, 0u);
  // Amortized zero heap traffic per retired flow. The only allowed residue
  // is the geometric regrowth of the per-slot loss-interval SERIES kept for
  // post-run analysis; per completed transfer it must vanish.
  const double allocs_per_completion =
      static_cast<double>(g_news.load(std::memory_order_relaxed) - news0) /
      static_cast<double>(summary.completions);
  EXPECT_LT(allocs_per_completion, 0.05);
  // The pending-event census stays bounded: dead chains are collected, so a
  // tripled horizon may not triple the heap (allow slack for phase noise).
  EXPECT_LT(sim.queue_size(), queue0 * 3 + 64);
}

TEST(WorkloadAlloc, WiredSlotFootprintStaysUnderBudget) {
  // A saturated pool as the many-sources regime builds it: arrivals fill
  // 10k slots within a fraction of a second, a 50/50 TFRC:TCP mix, every
  // slot wired once (one dumbbell flow, one connection) and almost none of
  // them with a packet in flight. Everything the cell holds is counted:
  // simulator, pipes and their pins, connections, SoA pool arrays.
  constexpr int kSlots = 10000;
  constexpr double kSlotBudgetBytes = 1600.0;
  const std::int64_t live0 = g_live_bytes.load(std::memory_order_relaxed);
  sim::Simulator sim;
  net::Dumbbell net(sim, net::Queue::drop_tail(100), 15e6, 0.001);
  workload::FlowManagerConfig cfg;
  cfg.workload.arrival_rate_per_s = 3.0 * kSlots / 0.2;
  cfg.workload.mean_size_pkts = 100.0;
  cfg.workload.max_concurrent = kSlots;
  cfg.seed = 5;
  workload::FlowManager mgr(net, cfg);
  mgr.start(0.0);
  sim.run_until(0.2);
  mgr.stop();
  ASSERT_EQ(mgr.pool_slots(), static_cast<std::size_t>(kSlots));

  const double per_slot =
      static_cast<double>(g_live_bytes.load(std::memory_order_relaxed) - live0) / kSlots;
  // Measured at about 1.4 KB: 400 B of dumbbell flow (two unsized pipes
  // plus their pins), a connection (about 860 B for TFRC, 620 B for TCP),
  // and 2 x 56 B of side state. Pre-sized 32-entry pipe rings alone would
  // add 4 KB.
  EXPECT_LT(per_slot, kSlotBudgetBytes);
}

TEST(WorkloadAlloc, RetirementLeaksNoTimersKernelDrainsCompletely) {
  sim::Simulator sim;
  net::Dumbbell net(sim, net::Queue::drop_tail(100), 8e6, 0.001);
  workload::FlowManager mgr(net, churn_config());
  mgr.start(0.0);
  sim.run_until(30.0);
  mgr.stop();  // arrival chain dies; active transfers run out

  // If any retired connection leaked a live timer or an immortal pinned
  // chain, run() would never return (or leave events pending).
  sim.run();
  EXPECT_EQ(sim.queue_size(), 0u);
  EXPECT_EQ(mgr.active_flows(), 0) << "every admitted transfer must retire";

  // And the pool's connections are all idle, ready for a next epoch.
  const auto summary = mgr.summarize();
  EXPECT_EQ(summary.arrivals, summary.completions);
}

}  // namespace
