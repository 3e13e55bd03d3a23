// Shared fixture for the mixed pinned+slab golden-determinism test.
//
// The workload drives both scheduling families of the kernel at once —
// pinned callbacks (the timing-wheel path) self-rescheduling with a delay
// mix that spans every wheel regime (equal-time ties, level-0 short hops,
// mid-range cascade boundaries, far-future overflow), interleaved with
// ordinary slab events and withdrawals of them. Keep it byte-identical to
// the generator that produced the recorded order in
// golden_determinism_test.cpp; any change invalidates the recording. (The
// generator cancelled events in the kernel; a withdrawn event now returns on
// its guard flag before it records or draws, which keeps the order.)
#pragma once

#include <cstdint>
#include <vector>

#include "sim/simulator.hpp"

namespace golden {

struct MixedWorkload {
  ebrc::sim::Simulator sim;
  std::vector<int> order;
  std::vector<char> withdrawn;  // per slab event id
  std::uint64_t rng_state = 0x9E3779B97F4A7C15ull;  // phi, fixed forever
  int slab_spawned = 0;
  std::uint64_t pinned_fires = 0;
  static constexpr int kPinned = 8;
  static constexpr std::uint64_t kMaxPinnedFires = 260;
  static constexpr int kMaxSlab = 120;
  ebrc::sim::Simulator::PinnedEvent pins[kPinned] = {};

  std::uint64_t next() {  // splitmix64
    std::uint64_t z = (rng_state += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }

  void pinned_fire(int p) {
    order.push_back(1000 + p);
    ++pinned_fires;
    const std::uint64_t r = next();
    if (pinned_fires + kPinned <= kMaxPinnedFires) {
      // Delay mix chosen to hit every wheel regime: same-time ties, short
      // level-0 hops, cascade-crossing mid delays, far-future overflow.
      double delay;
      switch (r & 15u) {
        case 0: delay = 0.0; break;
        case 1: delay = static_cast<double>((r >> 8) % 5000); break;
        case 2:
        case 3: delay = static_cast<double>((r >> 8) % 400) * 0.050; break;
        default: delay = static_cast<double>((r >> 8) % 64) * 1e-3; break;
      }
      sim.schedule_pinned(delay, pins[p]);
      // Occasionally double-book a second pin at the very same instant.
      if ((r & 0x30u) == 0) sim.schedule_pinned(delay, pins[(r >> 16) % kPinned]);
    }
    if ((r & 0xC0u) == 0 && slab_spawned < kMaxSlab) spawn_slab((r >> 24) % 2000);
    if ((r & 0x300u) == 0 && !withdrawn.empty()) withdrawn[(r >> 32) % withdrawn.size()] = 1;
  }

  void spawn_slab(std::uint64_t ms) {
    const int id = slab_spawned++;
    withdrawn.push_back(0);
    sim.schedule(static_cast<double>(ms) * 1e-3, [this, id] { slab_fire(id); });
  }

  void slab_fire(int id) {
    if (withdrawn[id] != 0) return;
    order.push_back(id);
    const std::uint64_t r = next();
    if ((r & 3u) != 0 && slab_spawned < kMaxSlab) spawn_slab((r >> 8) % 700);
  }

  void run() {
    for (int p = 0; p < kPinned; ++p) {
      pins[p] = sim.pin([this, p] { pinned_fire(p); });
    }
    for (int p = 0; p < kPinned; ++p) {
      sim.schedule_pinned(static_cast<double>(next() % 50) * 1e-3, pins[p]);
    }
    for (int i = 0; i < 16; ++i) spawn_slab(next() % 100);
    sim.run();
  }
};

}  // namespace golden
