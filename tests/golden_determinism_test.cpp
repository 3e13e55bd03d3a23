// Golden determinism test for the event kernel.
//
// The kernel rewrite (4-ary POD heap + slab-owned InlineFunction callbacks)
// promises bit-identical event execution order to the original
// std::priority_queue<Entry> kernel. This test pins that promise: it drives a
// mixed schedule / withdraw / reschedule workload — self-scheduling events,
// equal-time FIFO ties, withdrawals of both pending and already-fired events
// — and asserts the execution order matches the recording taken from the
// seed kernel (commit c65dbf6) before the rewrite. The seed kernel cancelled
// events; the kernel now runs every event, so a withdrawn one returns on its
// guard flag before it records or draws, which leaves the order unchanged
// and only adds the withdrawn firings to events_executed().
//
// If this test ever fails, the kernel's ordering semantics changed: that is a
// correctness regression for every seeded experiment in the repo, not a test
// to update.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "golden_mixed_workload.hpp"
#include "sim/simulator.hpp"

namespace {

// Keep this workload byte-identical to the generator that produced the
// golden recording; any change invalidates the expected order below.
struct Workload {
  ebrc::sim::Simulator sim;
  std::vector<int> order;
  std::vector<char> withdrawn;  // per event id
  std::uint64_t rng_state = 0x243F6A8885A308D3ull;  // pi digits, fixed forever
  int next_id = 0;
  int spawned = 0;
  static constexpr int kMaxSpawned = 320;

  std::uint64_t next() {  // splitmix64
    std::uint64_t z = (rng_state += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }

  void schedule_one(std::uint64_t ms) {
    const int id = next_id++;
    ++spawned;
    withdrawn.push_back(0);
    sim.schedule(static_cast<double>(ms) * 1e-3, [this, id] { fire(id); });
  }

  void fire(int id) {
    if (withdrawn[id] != 0) return;
    order.push_back(id);
    const std::uint64_t r = next();
    // ~3/4 of firings spawn a child somewhere in the next 500 ms (modulo
    // collisions produce plenty of equal-time ties for the FIFO tie-break).
    if (spawned < kMaxSpawned && (r & 3u) != 0) schedule_one((r >> 8) % 500);
    // ~1/4 withdraw a random event (often one that already fired).
    if ((r & 12u) == 0 && !withdrawn.empty()) withdrawn[(r >> 16) % withdrawn.size()] = 1;
    // ~1/4 "reschedule": withdraw one pending timer and spawn a replacement.
    if ((r & 48u) == 16 && spawned < kMaxSpawned) {
      if (!withdrawn.empty()) withdrawn[(r >> 24) % withdrawn.size()] = 1;
      schedule_one((r >> 32) % 300);
    }
  }

  void run() {
    for (int i = 0; i < 24; ++i) schedule_one(next() % 200);
    sim.run();
  }
};

// Execution order recorded from the seed kernel (std::priority_queue based,
// commit c65dbf6) running the exact workload above.
const std::vector<int> kGoldenOrder = {
    15,  21,  23,  8,   11,  1,   7,   5,   16,  2,   12,  3,   24,  14,  26,  33,
    19,  13,  20,  17,  36,  9,   4,   18,  35,  34,  27,  49,  42,  48,  43,  39,
    29,  57,  38,  59,  31,  44,  55,  53,  51,  37,  66,  30,  61,  52,  56,  40,
    32,  60,  65,  46,  54,  72,  62,  70,  71,  68,  67,  63,  58,  77,  74,  73,
    64,  69,  86,  79,  88,  80,  82,  75,  83,  84,  92,  90,  95,  81,  93,  89,
    98,  100, 87,  102, 91,  101, 94,  104, 96,  99,  106, 97,  107, 105, 103, 113,
    110, 115, 108, 109, 112, 117, 120, 114, 116, 118, 119, 124, 123, 121, 125, 126,
    122, 129, 128, 130, 132, 127, 133, 135, 136, 131, 134, 137, 138, 139, 140, 141};

TEST(GoldenDeterminism, ExecutionOrderMatchesSeedKernelRecording) {
  Workload w;
  w.run();
  EXPECT_EQ(w.spawned, 142);
  EXPECT_EQ(w.sim.events_executed(), 142u);
  EXPECT_DOUBLE_EQ(w.sim.now(), 4.5629999999999997);
  ASSERT_EQ(w.order.size(), kGoldenOrder.size());
  for (std::size_t i = 0; i < kGoldenOrder.size(); ++i) {
    ASSERT_EQ(w.order[i], kGoldenOrder[i]) << "divergence at event " << i;
  }
}

TEST(GoldenDeterminism, RerunIsBitIdentical) {
  Workload a, b;
  a.run();
  b.run();
  EXPECT_EQ(a.order, b.order);
  EXPECT_EQ(a.sim.events_executed(), b.sim.events_executed());
}

// Execution order recorded from the heap-only kernel (before the timing
// wheel absorbed pinned scheduling) running golden::MixedWorkload — eight
// self-rescheduling pinned chains whose delay mix spans every wheel regime
// (same-instant double-bookings, sub-64 ms level-0 hops, 0–20 s cascade
// crossers, multi-kilosecond overflow residents) interleaved with slab
// events and withdrawals. Entries 1000+p are pinned chain p; 0–119 are
// slab event ids.
const std::vector<int> kGoldenMixedOrder = {
    1000, 1, 8, 6, 1005, 1000, 5, 13, 1000, 1003, 7, 1000,
    2, 1003, 1001, 4, 1004, 1006, 15, 1002, 1003, 1007, 1001, 14,
    1003, 1003, 11, 3, 10, 0, 9, 1004, 1001, 1003, 1006, 1002,
    1001, 1002, 1001, 1007, 1002, 1001, 1001, 1002, 1007, 1002, 1007, 1005,
    1002, 1000, 19, 1003, 1002, 1001, 1006, 1003, 1007, 1007, 1007, 1005,
    1002, 1001, 1003, 1003, 1003, 1002, 1007, 1003, 1003, 1005, 1001, 1003,
    1003, 1000, 1001, 1002, 1002, 1002, 1002, 1003, 1002, 1003, 1003, 1003,
    1005, 1000, 1002, 1000, 1005, 1007, 1002, 1003, 1003, 1007, 1001, 1001,
    1003, 1002, 1007, 1002, 1002, 1003, 1002, 1003, 1003, 1007, 1006, 1005,
    1001, 46, 1007, 1002, 1002, 1001, 1002, 1006, 1001, 1001, 1003, 1003,
    34, 1006, 1005, 1001, 1002, 1006, 1006, 1004, 1001, 1001, 1001, 1006,
    1003, 1004, 1003, 1001, 1004, 1003, 1003, 1001, 1001, 1001, 1005, 1006,
    1002, 1005, 1005, 1002, 1004, 1004, 1006, 1001, 1001, 1006, 1004, 1004,
    1001, 1006, 1005, 1002, 1006, 1004, 1006, 1006, 1004, 1001, 1001, 1006,
    1004, 1006, 1004, 1001, 1001, 1001, 1001, 1001, 1002, 1001, 1006, 1001,
    1004, 33, 1006, 1006, 1004, 1007, 1004, 1007, 1006, 1001, 1004, 1007,
    1001, 1004, 1001, 1004, 1007, 1004, 1001, 1007, 1001, 1001, 1007, 1001,
    27, 1001, 1004, 1002, 1004, 1001, 1000, 1007, 1004, 1007, 1000, 1004,
    1004, 1004, 1000, 58, 1004, 1006, 1006, 1000, 1004, 1000, 1004, 44,
    1004, 60, 1000, 1001, 1004, 1001, 1007, 48, 1000, 1000, 1000, 1000,
    62, 1000, 1000, 1000, 1000, 45, 43, 73, 56, 1000, 69, 1000,
    32, 82, 74, 40, 81, 78, 86, 35, 72, 79, 87, 41,
    66, 88, 31, 80, 77, 94, 49, 67, 85, 37, 89, 52,
    83, 64, 50, 84, 95, 92, 71, 90, 97, 104, 109, 1003,
    1003, 1003, 1001, 93, 1003, 65, 1003, 1003, 1003, 1003, 1003, 102,
    1003, 98, 1003, 1003, 1001, 1003, 1003, 99, 1001, 1003, 1001, 1001,
    1003, 54, 105, 1003, 1001, 1003, 59, 1001, 91, 110, 1003, 1003,
    1001, 1003, 75, 100, 101, 1001, 53, 1003, 1003, 115, 111, 106,
    57, 107, 108, 116, 113, 118, 1007, 68, 70, 76, 112, 1003,
    1004, 1005, 119, 114, 117, 1002, 1005, 1001, 1001, 1006, 1007, 1003,
    1006, 1007, 1003, 1005, 1007, 1005, 1000, 1001, 1001, 1000, 1001, 1003,
    1003, 1003, 1004, 1006, 1003, 1003, 1004, 1002, 1002, 1006, 1001, 1004,
    1001, 1000, 1002, 1007, 1001, 1004, 1006, 1000, 1003, 1002, 1002, 1007,
    1001, 1003, 1006, 1001, 1000, 1003, 1007, 1002, 1001, 1003, 1000, 1005,
    1004};

TEST(GoldenDeterminism, MixedPinnedSlabOrderMatchesHeapKernelRecording) {
  golden::MixedWorkload w;
  w.run();
  EXPECT_EQ(w.slab_spawned, 120);
  EXPECT_EQ(w.pinned_fires, 314u);
  EXPECT_EQ(w.sim.events_executed(), 434u);
  EXPECT_DOUBLE_EQ(w.sim.now(), 4434.9679999999998);
  ASSERT_EQ(w.order.size(), kGoldenMixedOrder.size());
  for (std::size_t i = 0; i < kGoldenMixedOrder.size(); ++i) {
    ASSERT_EQ(w.order[i], kGoldenMixedOrder[i]) << "divergence at event " << i;
  }
}

}  // namespace
