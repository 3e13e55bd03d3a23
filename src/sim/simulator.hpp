// Discrete-event simulation kernel.
//
// Events are closures scheduled at absolute simulated times. Ties are broken
// by insertion order so a run is fully deterministic for a fixed seed. The
// kernel never withdraws an event: every popped entry runs. A component that
// needs to drop a scheduled firing keeps the event's id (its insertion
// sequence number, returned by schedule()) and compares it with
// current_event() when the callback runs — sim::LazyTimer does exactly this
// for TCP's retransmission and delayed-ACK timers.
//
// Hot-path layout (the kernel executes every packet, timer, and feedback
// event of every experiment, so BatchRunner wall clock is mostly spent here):
//
//   - Callbacks are InlineFunction<void(), 56>: typical timer captures
//     (`this` plus a few words, or a Packet pointer) are stored inline, so
//     scheduling an event performs zero heap allocations. Only captures
//     beyond 56 bytes fall back to a heap box (counted, see
//     inline_function_heap_allocs()).
//   - The priority queue is a hand-rolled 4-ary min-heap over 24-byte POD
//     entries {time, seq, slot}. Sift operations move trivially copyable
//     PODs — four children per node halves the tree depth and keeps the
//     working set in two cache lines — while the callbacks themselves sit
//     still inside the slab and are moved exactly once, out of the slot,
//     when their entry is popped.
//   - One queue per event kind: pinned callbacks (registered once,
//     scheduled as bare entries) always go to a hierarchical timing wheel
//     (timing_wheel.hpp), slab events always to the heap. The wheel's tick
//     follows the measured event density, so each refill loads a sorted
//     front run of several events. While that run drains, the
//     callback and the object its first word points to are prefetched a few
//     events ahead — in simulators with more pinned callbacks than the
//     caches hold (kLookaheadPins), where those loads miss.
//   - Slab callbacks live in a pooled slot array that recycles slots from a
//     free list. Each Simulator owns its own slab, so independent instances
//     are safe to run concurrently on separate threads.
//
// The observable execution order — (time, insertion-seq) — is bit-identical
// to the original std::priority_queue kernel;
// tests/golden_determinism_test.cpp pins that with an execution order
// recorded from the old kernel.
#pragma once

#include <bit>
#include <cassert>
#include <cstdint>
#include <deque>
#include <stdexcept>
#include <type_traits>
#include <vector>

#include "sim/inline_function.hpp"
#include "sim/timing_wheel.hpp"

namespace ebrc::sim {

/// The kernel's callback type: captures up to 56 bytes are stored inline
/// (one cache line per callback including the dispatch pointer).
using EventFn = InlineFunction<void(), 56>;

/// Names one scheduled event: its insertion sequence number, unique for the
/// simulator's lifetime.
using EventId = std::uint64_t;

/// Thrown out of Simulator::run / run_until by the cooperative wall-clock
/// deadline poll (see arm_thread_wall_deadline).
class WallDeadlineError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Arms a wall-clock deadline for simulators running on the CURRENT thread:
/// run_until polls it once per 64k executed events (a mask test plus, on the
/// rare hit, one clock read) and throws WallDeadlineError once the deadline
/// has passed — so a runaway cell times out mid-run instead of only at
/// attempt completion. Thread-local by design: each BatchRunner worker arms
/// it around its own cell without touching the others. Re-arming replaces
/// the previous deadline.
void arm_thread_wall_deadline(double seconds_from_now);
void disarm_thread_wall_deadline() noexcept;
[[nodiscard]] bool thread_wall_deadline_armed() noexcept;

/// Throws WallDeadlineError if a deadline is armed on this thread and has
/// expired; otherwise returns. The deadline stays armed across the throw
/// (the arming scope disarms it), so long-running non-simulator loops can
/// also poll this.
void poll_thread_wall_deadline();

/// Pool of event slots, each owning one pending event's callback: the heap
/// above it only shuffles POD entries. Two slot classes keep the pool
/// cache-resident: callbacks whose state compresses to one word (a
/// captureless lambda, a `this` capture, or an oversized capture's heap box
/// pointer — i.e. almost every closure the protocols schedule) live in
/// 16-byte "tiny" slots; only mid-sized captures (9..56 bytes) use a full
/// cache line. With tens of thousands of events pending, the tiny pool is a
/// quarter the footprint of a one-line-per-callback layout. Slot indices
/// carry the class in their top bit.
class EventSlab {
 public:
  EventSlab() = default;
  EventSlab(const EventSlab&) = delete;
  EventSlab& operator=(const EventSlab&) = delete;

  /// Tiny slots store compressed callbacks as raw words, so a heap-boxed
  /// callable in a slot that was never retired (simulator destroyed with
  /// events still pending) must be reclaimed here; wide slots destroy
  /// themselves through ~EventFn.
  ~EventSlab() {
    std::vector<bool> retired(tiny_.size(), false);
    for (const std::uint32_t i : tiny_free_) retired[i] = true;
    for (std::size_t i = 0; i < tiny_.size(); ++i) {
      if (!retired[i]) (void)EventFn::decompress(tiny_[i]);  // dtor frees any box
    }
  }

  /// Stores `fn` in a slot, recycling a retired one when available, and
  /// returns the slot's index.
  std::uint32_t acquire(EventFn&& fn) {
    if (fn.compressible()) {
      if (!tiny_free_.empty()) {
        const std::uint32_t idx = tiny_free_.back();
        tiny_free_.pop_back();
        tiny_[idx] = fn.compress();
        return idx;
      }
      tiny_.push_back(fn.compress());
      return static_cast<std::uint32_t>(tiny_.size() - 1);
    }
    if (!wide_free_.empty()) {
      const std::uint32_t idx = wide_free_.back();
      wide_free_.pop_back();
      wide_[idx].fn = std::move(fn);
      return idx | kWideBit;
    }
    wide_.emplace_back();
    wide_.back().fn = std::move(fn);
    return static_cast<std::uint32_t>(wide_.size() - 1) | kWideBit;
  }

  /// Moves the callback out and returns the slot to the free list once its
  /// heap entry has been popped. The slot is immediately reusable even while
  /// the returned callback is still executing.
  [[nodiscard]] EventFn retire(std::uint32_t index) {
    const std::uint32_t i = index & ~kWideBit;
    if ((index & kWideBit) == 0) {
      tiny_free_.push_back(i);
      return EventFn::decompress(tiny_[i]);
    }
    wide_free_.push_back(i);
    return std::move(wide_[i].fn);
  }

  /// Hints the prefetcher at the callback of the slot about to be retired —
  /// called as soon as the next event's slot is known so the line load
  /// overlaps the preceding callback's execution.
  void prefetch(std::uint32_t index) const noexcept {
#if defined(__GNUC__) || defined(__clang__)
    const std::uint32_t i = index & ~kWideBit;
    if ((index & kWideBit) == 0) {
      __builtin_prefetch(&tiny_[i], /*rw=*/0, /*locality=*/3);
    } else {
      __builtin_prefetch(&wide_[i], /*rw=*/0, /*locality=*/3);
    }
#else
    (void)index;
#endif
  }

  /// Pre-sizes slot and free-list storage (no slots are created). Sized for
  /// the common case: most callbacks are tiny, a fraction are wide.
  void reserve(std::size_t n) {
    tiny_.reserve(n);
    tiny_free_.reserve(n);
    const std::size_t wide = n / 4 + 1;
    wide_.reserve(wide);
    wide_free_.reserve(wide);
  }

  /// Number of slots ever created (capacity watermark, for tests).
  [[nodiscard]] std::size_t capacity() const noexcept { return tiny_.size() + wide_.size(); }

 private:
  static constexpr std::uint32_t kWideBit = 0x8000'0000u;

  struct alignas(64) WideFn {  // one cache line per callback, exactly
    EventFn fn;
  };
  static_assert(sizeof(WideFn) == 64);

  std::vector<EventFn::Compressed> tiny_;  // 16-byte compressed callbacks
  std::vector<std::uint32_t> tiny_free_;
  std::vector<WideFn> wide_;
  std::vector<std::uint32_t> wide_free_;
};

/// Optional view of an externally owned POD ring the kernel writes one
/// 16-byte record into per executed event — the obs flight recorder's window
/// into the hot loop. The simulator does not own any of it; whoever installs
/// the view (obs::FlightRecorder maps it from a MAP_SHARED file so the tail
/// survives SIGKILL) guarantees `records` spans `mask + 1` slots and that
/// `cursor` stays valid for the simulator's lifetime. A default-constructed
/// ring (null `records`) disables recording: the hot loop pays exactly one
/// predictable branch per event.
struct KernelRing {
  struct Record {
    double at = 0.0;        // sim time of the executed event
    std::uint32_t slot = 0; // slab index, or pin() id when src is 1
    std::uint8_t src = 0;   // 0: slab event (heap); 1: pinned event (wheel)
    std::uint8_t pad[3] = {};
  };
  static_assert(sizeof(Record) == 16);

  Record* records = nullptr;
  std::uint32_t mask = 0;          // capacity - 1; capacity is a power of two
  std::uint64_t* cursor = nullptr; // total records ever written (monotone)
};

/// The event-driven simulator: a clock, a 4-ary min-heap of slab entries
/// (callbacks in the event slab) and a timing wheel of pinned entries.
class Simulator {
 public:
  Simulator() { reserve(kDefaultReserve); }
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulated time.
  [[nodiscard]] Time now() const noexcept { return now_; }

  /// Schedules `fn` to run at `now() + delay` and returns its id. `delay`
  /// must be >= 0.
  EventId schedule(Time delay, EventFn fn) {
    if (delay < 0) throw_negative_delay();
    return schedule_impl(now_ + delay, std::move(fn));
  }

  /// Schedules `fn` at the absolute time `at` (>= now()) and returns its id.
  EventId schedule_at(Time at, EventFn fn) {
    if (at < now_) throw_past_time();
    return schedule_impl(at, std::move(fn));
  }

  /// Id of the slab event whose callback is running. Meaningful only inside
  /// a schedule() / schedule_at() callback; pinned events leave it alone.
  [[nodiscard]] EventId current_event() const noexcept { return current_; }

  // --- pinned events --------------------------------------------------------
  //
  // The packet path schedules the SAME component callback over and over: a
  // link's head-of-line delivery, a pipe's chain hop, a sender's pacing
  // tick. The general schedule() pays slab acquire/retire and callback
  // compression for every one of those — pure overhead when the callback
  // never changes. A pinned event registers the callback once; scheduling
  // it afterwards is a bare entry push (24 bytes, zero slab traffic) — an
  // O(1) timing-wheel bucket append — and firing invokes it in place. A
  // firing the component no longer wants is dropped by a component-side
  // flag, as the protocols' `running_` does. Execution order remains the global
  // (time, insertion-seq) order shared with slab events: wheel and heap pops
  // merge on the same 128-bit key.

  using PinnedEvent = std::uint32_t;

  /// Registers `fn` as a pinned callback; the id stays valid for the
  /// simulator's lifetime. Safe to call between runs (storage is stable).
  PinnedEvent pin(EventFn fn) {
    pinned_.push_back(std::move(fn));
    lookahead_ = pinned_.size() > kLookaheadPins;
    return static_cast<PinnedEvent>(pinned_.size() - 1);
  }

  /// Schedules a pinned callback after `delay` (>= 0).
  void schedule_pinned(Time delay, PinnedEvent ev) {
    if (delay < 0) throw_negative_delay();
    schedule_pinned_at(now_ + delay, ev);
  }

  /// Schedules a pinned callback at absolute time `at` (>= now()): an O(1)
  /// append to the timing wheel, which holds pinned entries and nothing
  /// else (slab events always go to the heap).
  void schedule_pinned_at(Time at, PinnedEvent ev) {
    if (at < now_) throw_past_time();
    assert(ev < pinned_.size() && "not a pin() id");
    at += 0.0;  // normalize -0.0, as in schedule_impl
    wheel_.push(Entry{at, next_seq_++, ev});
  }

  /// Runs events until the queue drains or the clock passes `horizon`.
  /// The clock is left at min(horizon, time of last event).
  void run_until(Time horizon);

  /// Runs until the queue drains completely.
  void run();

  /// Pre-sizes the heap, slab, and wheel node pool for `events` concurrently
  /// pending events, so warm-up bursts don't pay vector regrowth on the hot
  /// path.
  void reserve(std::size_t events) {
    heap_.reserve(events);
    slab_.reserve(events);
    wheel_.reserve(events);
  }

  /// Number of events executed since construction.
  [[nodiscard]] std::uint64_t events_executed() const noexcept { return executed_; }

  /// Number of events currently pending, across both the heap and the wheel.
  [[nodiscard]] std::size_t queue_size() const noexcept {
    return heap_.size() + wheel_.size();
  }

  /// Kernel telemetry: how many entries were popped from the timing wheel
  /// vs the 4-ary heap — exactly the pinned pops and the slab pops. Every
  /// pop runs, so the two sum to events_executed().
  [[nodiscard]] std::uint64_t wheel_pops() const noexcept { return wheel_pops_; }
  [[nodiscard]] std::uint64_t heap_pops() const noexcept { return heap_pops_; }

  /// The pinned-event timing wheel (exposed for tests and benchmarks).
  [[nodiscard]] const TimingWheel& wheel() const noexcept { return wheel_; }

  /// Number of pinned callbacks ever registered. Pins are permanent, so a
  /// component that pins per-flow-arrival instead of per-component leaks
  /// them; the workload churn tests assert this stays flat in steady state.
  [[nodiscard]] std::size_t pinned_callbacks() const noexcept { return pinned_.size(); }

  /// Callback slab (exposed for allocation-churn tests).
  [[nodiscard]] const EventSlab& slab() const noexcept { return slab_; }

  /// Installs (or, with a default-constructed ring, removes) the flight
  /// recorder's event ring. See KernelRing for the ownership contract.
  void set_kernel_ring(KernelRing ring) noexcept { ring_ = ring; }

 private:
  /// Heap entries are the 24-byte trivially copyable PODs shared with the
  /// timing wheel (see timing_wheel.hpp for the layout and the branchless
  /// 128-bit key order the free `earlier()` implements).
  using Entry = QueuedEvent;

  /// Shared hot path of schedule()/schedule_at(). Takes the callback by
  /// rvalue reference: the call-site conversion constructs the EventFn once,
  /// and acquire() compresses or moves straight out of that object — no
  /// intermediate 64-byte copies.
  EventId schedule_impl(Time at, EventFn&& fn) {
    at += 0.0;  // normalize -0.0 to +0.0 so the bit-pattern key order holds
    const EventId id = next_seq_++;
    push_entry(Entry{at, id, slab_.acquire(std::move(fn))});
    return id;
  }

  void push_entry(Entry e) {
    // Sift up with a hole: the entry is written once, into its final position.
    std::size_t i = heap_.size();
    heap_.push_back(e);  // reserve the leaf; overwritten below unless already placed
    while (i > 0) {
      const std::size_t parent = (i - 1) >> 2;
      if (!earlier(e, heap_[parent])) break;
      heap_[i] = heap_[parent];
      i = parent;
    }
    heap_[i] = e;
  }

  [[noreturn]] static void throw_negative_delay();
  [[noreturn]] static void throw_past_time();
  void pop_min();

  /// Flight-recorder write: one store per executed event when a ring is
  /// installed, one predictable branch when it is not (the default).
  void record_executed(double at, std::uint32_t slot, std::uint8_t src) noexcept {
    if (ring_.records == nullptr) [[likely]] return;
    KernelRing::Record& r = ring_.records[*ring_.cursor & ring_.mask];
    r.at = at;
    r.slot = slot;
    r.src = src;
    ++*ring_.cursor;
  }

  static constexpr std::size_t kDefaultReserve = 256;
  /// Pinned-callback count above which run_until prefetches a few events
  /// ahead along the wheel's front run: ~8k 64-byte callbacks (512 KiB) plus
  /// the components they point into no longer stay cache-resident.
  static constexpr std::size_t kLookaheadPins = 8192;

  Time now_ = 0.0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  std::uint64_t wheel_pops_ = 0;
  std::uint64_t heap_pops_ = 0;
  EventId current_ = 0;  // seq of the running slab event
  EventSlab slab_;
  std::vector<Entry> heap_;  // slab entries, 4-ary: children of i at 4i+1 .. 4i+4
  std::deque<EventFn> pinned_;  // deque: pin() during a run never relocates
  TimingWheel wheel_;  // pinned entries; merged with the heap at pop
  bool lookahead_ = false;  // pinned_.size() > kLookaheadPins
  KernelRing ring_;   // null records (the default) = recording disabled
};

}  // namespace ebrc::sim
