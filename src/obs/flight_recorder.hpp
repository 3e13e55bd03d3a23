// obs::FlightRecorder — a crash-surviving ring of the last N executed kernel
// events.
//
// The recorder maps a small file MAP_SHARED and hands the simulator a
// sim::KernelRing view into it; the hot loop then writes one 16-byte POD
// record per executed event straight into the mapping. Because the mapping
// is file-backed and shared, the pages live in the page cache: when the
// supervisor SIGKILLs a wedged worker (or the worker crashes on a signal),
// the last-written records are still readable from the file — no flush,
// destructor, or signal handler needed. The parent then renders the tail
// into the crash repro bundle so post-mortems see exactly what the simulator
// was executing when it died.
//
// File layout: a 64-byte header {magic, version, capacity, cursor} followed
// by `capacity` (power of two) records. `cursor` counts records ever
// written; the live tail is the last min(cursor, capacity) slots in ring
// order.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

#include "sim/simulator.hpp"

namespace ebrc::obs {

class FlightRecorder {
 public:
  static constexpr std::uint64_t kMagic = 0x45425243'464C5431ull;  // "EBRCFLT1"
  static constexpr std::uint32_t kVersion = 1;
  static constexpr std::size_t kDefaultCapacity = 4096;

  /// Creates (truncating) the ring file and maps it. Returns nullptr on any
  /// I/O or mmap failure — callers treat a missing recorder as "obs off",
  /// never as a fatal error. `capacity` is rounded up to a power of two.
  static std::unique_ptr<FlightRecorder> create(const std::string& path,
                                                std::size_t capacity = kDefaultCapacity);

  ~FlightRecorder();
  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  /// View for Simulator::set_kernel_ring. Valid for this object's lifetime.
  [[nodiscard]] sim::KernelRing ring() const noexcept { return ring_; }

  /// Records written so far (reads the mapped cursor).
  [[nodiscard]] std::uint64_t cursor() const noexcept { return *ring_.cursor; }

  /// Rewinds the ring to empty, so a later dump holds only what was
  /// recorded after this call (a persistent worker rewinds at each cell).
  void reset() noexcept { *ring_.cursor = 0; }

  /// Post-mortem: reads `ring_path` (typically after the writing process
  /// died) and renders the tail as text into `out_path`. The dump starts
  /// with a "flight-recorder v1" banner, then one line per record, oldest
  /// first: `#<seq> t=<sim time> slot=0x<hex> src=<heap|wheel|pinned-heap|
  /// pinned-wheel>`. Returns false if the file is missing, truncated, or
  /// fails the magic/version check.
  static bool dump_to_text(const std::string& ring_path, const std::string& out_path);

 private:
  struct Header {
    std::uint64_t magic;
    std::uint32_t version;
    std::uint32_t capacity;
    std::uint64_t cursor;
    std::uint8_t pad[40];
  };
  static_assert(sizeof(Header) == 64);

  FlightRecorder(void* map, std::size_t map_len, sim::KernelRing ring)
      : map_(map), map_len_(map_len), ring_(ring) {}

  void* map_;
  std::size_t map_len_;
  sim::KernelRing ring_;
};

}  // namespace ebrc::obs
