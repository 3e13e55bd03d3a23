// Hierarchical timing wheel for pinned-event scheduling.
//
// The packet path schedules pinned callbacks — pipe deliveries, pacing
// ticks, feedback timers — whose deadlines are overwhelmingly near-monotone
// and clustered a few RTTs ahead. A comparison heap pays O(log n) sifts over
// adversarially unpredictable keys for every one of them; at 10^5..10^6
// concurrent flows those sifts dominate the kernel. The wheel turns the
// common case into an O(1) bucket append plus one amortized sort per
// occupied tick, while the 4-ary heap remains the exact-order home for
// irregular slab events. The two structures merge at pop time on the same
// branchless 128-bit (time bits ‖ seq) key, so execution order is
// bit-identical to the heap-only kernel (pinned by the golden determinism
// recordings).
//
// Layout: three levels of 256 buckets. A level-0 bucket is one tick wide, a
// level-1 bucket covers 256 ticks, a level-2 bucket 2^16 ticks; deadlines
// beyond the 2^24-tick span wait in an overflow list that is rehomed once
// per span crossing. Each level keeps a 256-bit occupancy bitmap so "next
// nonempty bucket" is a couple of countr_zero scans, never a walk over
// empty buckets. The front of the wheel is a sorted "run" — the current
// tick's events, drained in key order through a head index; cascades are
// lazy (an upper-level bucket is scattered down only when the scan enters
// its window).
//
// Storage: every bucket (and the overflow list) is an index-linked list over
// one node array with a free list. A node is a queue entry whose 32-bit link
// sits in the entry's tail padding, so storage grows with the number of
// PENDING events — never with each bucket's past peak — and cascades,
// rehomes and re-ticks relink nodes instead of copying them.
//
// Tick: the wheel starts at a constant kStartTick and then follows the
// event density, in the manner of Brown's calendar queue (CACM 1988): once
// every 2^14 wheel events, at a refill boundary, a mean front-run length
// outside [2, 64] re-ticks the wheel to the window's event rate times a
// target run of 8 events, and every pending node is relinked under the new
// tick. The inputs are simulated times and counts, so a run stays
// deterministic. And because the tick mapping only needs to be MONOTONE in
// the deadline — equal times share a tick, a tick's events are key-sorted on
// load — no tick can ever perturb execution order, only bucket occupancy.
#pragma once

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstdint>
#include <iterator>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

namespace ebrc::sim {

/// Simulated time, in seconds.
using Time = double;

/// Queue entries shared by the wheel and the 4-ary heap: 24-byte trivially
/// copyable PODs. `slot` is an event-slab index in the heap and a
/// pinned-callback id in the wheel; the queues never look inside.
struct QueuedEvent {
  Time at;
  std::uint64_t seq;   // FIFO tie-break for equal timestamps
  std::uint32_t slot;  // slab index or tagged pinned id
};
static_assert(std::is_trivially_copyable_v<QueuedEvent>);
static_assert(sizeof(QueuedEvent) <= 24, "queue entries must stay two words + tag");
static_assert(alignof(QueuedEvent) == 8);

/// Strict order shared by the heap and the wheel: earlier time first, then
/// insertion order — compared as one 128-bit key. Simulated time never goes
/// negative (schedule rejects the past, the clock starts at 0, and -0.0 is
/// normalized away), so the IEEE-754 bit pattern of `at` is monotone in its
/// value and (bits(at), seq) compares branchlessly with a sub/sbb pair.
[[nodiscard]] inline bool earlier(const QueuedEvent& a, const QueuedEvent& b) noexcept {
#if defined(__SIZEOF_INT128__)
  const auto key = [](const QueuedEvent& e) {
    return (static_cast<unsigned __int128>(std::bit_cast<std::uint64_t>(e.at)) << 64) |
           e.seq;
  };
  return key(a) < key(b);
#else
  const std::uint64_t abits = std::bit_cast<std::uint64_t>(a.at);
  const std::uint64_t bbits = std::bit_cast<std::uint64_t>(b.at);
  if (abits != bbits) return abits < bbits;
  return a.seq < b.seq;
#endif
}

/// Function-object form of earlier() so sort/upper_bound inline the compare.
struct EarlierCompare {
  [[nodiscard]] bool operator()(const QueuedEvent& a, const QueuedEvent& b) const noexcept {
    return earlier(a, b);
  }
};

class TimingWheel {
 public:
  static constexpr int kBucketBits = 8;
  static constexpr std::uint64_t kBuckets = 1ull << kBucketBits;  // per level
  static constexpr int kLevels = 3;
  static constexpr std::uint64_t kSpanTicks = 1ull << (kLevels * kBucketBits);
  /// Tick a new wheel starts with: the order of the packet path's pinned
  /// delays (a 1000-byte packet takes 0.53 ms at 15 Mb/s; pacing gaps and
  /// feedback ticks are longer), so a typical delay lands in level 0 from
  /// the first event. Re-ticks replace it with one measured from the
  /// workload.
  static constexpr double kStartTick = 1e-3;
  /// Density re-tick: wheel events per measurement window, the band of mean
  /// front-run lengths left alone, and the run length a re-tick aims for.
  static constexpr std::uint64_t kRetickWindow = 1ull << 14;
  static constexpr double kMinRun = 2.0;
  static constexpr double kMaxRun = 64.0;
  static constexpr double kTargetRun = 8.0;

  /// A wheel at time 0 with tick `dt` (tests pick one; the simulator starts
  /// every wheel at kStartTick).
  explicit TimingWheel(double dt = kStartTick) {
    for (auto& lvl : heads_) std::fill(std::begin(lvl), std::end(lvl), kNil);
    set_tick(dt);
    // The re-tick keeps the mean run within [kMinRun, kMaxRun], so a run
    // buffer of a few times kMaxRun covers the runs of any steady workload
    // and the front run stops allocating.
    run_.reserve(kRunSeed);
  }
  TimingWheel(const TimingWheel&) = delete;
  TimingWheel& operator=(const TimingWheel&) = delete;

  /// Current tick width in seconds (moves on re-ticks).
  [[nodiscard]] double granularity() const noexcept { return dt_; }

  /// Front runs formed so far (tests: wheel pops / loads is the mean run
  /// length). Deliberately kept out of result telemetry — the count depends
  /// on the tick policy, and results must not.
  [[nodiscard]] std::uint64_t loads() const noexcept { return loads_; }

  /// Number of events currently queued (front run + buckets + overflow).
  [[nodiscard]] std::size_t size() const noexcept {
    return pending_ + (run_.size() - run_head_);
  }

  /// O(1) append. `e.at` must be >= 0 and >= the time of the last event
  /// popped (the simulator's clock guarantees both).
  void push(const QueuedEvent& e) {
    const std::uint64_t t = tick_of(e.at);
    if (t <= pos_) {
      // The tick is already drained into the front run: sorted-insert at or
      // after the head (rare — same-instant re-bookings of the current tick).
      run_.insert(std::upper_bound(run_.begin() + static_cast<std::ptrdiff_t>(run_head_),
                                   run_.end(), e, EarlierCompare{}),
                  e);
      return;
    }
    ++pending_;
    place(alloc(e), t, pos_);
  }

  /// Earliest queued event, or nullptr when empty. May advance the wheel
  /// (lazy cascade, re-tick, load of the next occupied tick); never touches
  /// time semantics, so calling it early is always safe.
  [[nodiscard]] const QueuedEvent* peek() {
    if (run_head_ < run_.size()) return &run_[run_head_];
    if (pending_ == 0) return nullptr;
    refill();
    assert(run_head_ < run_.size());
    return &run_[run_head_];
  }

  /// Non-advancing view of the front run from its head: the events that pop
  /// next, in order (prefetch hints look a few entries ahead).
  [[nodiscard]] std::span<const QueuedEvent> ready() const noexcept {
    return std::span<const QueuedEvent>(run_).subspan(run_head_);
  }

  /// Consumes the event returned by the last peek().
  void pop_front() noexcept {
    assert(run_head_ < run_.size());
    ++run_head_;
  }

  /// Pre-sizes the node pool for `events` concurrently pending events.
  /// Skipped for small simulators, whose pool stays in cache anyway.
  void reserve(std::size_t events) {
    if (events < 4 * kBuckets) return;
    nodes_.reserve(events);
  }

 private:
  static constexpr std::uint64_t kMask = kBuckets - 1;
  static constexpr std::uint64_t kWords = kBuckets / 64;
  static constexpr std::uint32_t kNil = ~0u;
  static constexpr std::size_t kRunSeed = 4 * static_cast<std::size_t>(kMaxRun);

  /// A bucket-list node: a QueuedEvent's fields with the list link in the
  /// entry's tail padding, so the pool costs what the entries alone would.
  struct Node {
    Time at;
    std::uint64_t seq;
    std::uint32_t slot;
    std::uint32_t next;  // next node of the same list, or kNil
  };
  static_assert(sizeof(Node) == sizeof(QueuedEvent) && sizeof(Node) == 24,
                "a node is a queue entry plus the link in its tail padding");

  void set_tick(double dt) {
    dt_ = dt;
    inv_dt_ = 1.0 / dt;
  }

  /// Maps a deadline to its tick. Only MONOTONICITY matters for correctness
  /// (equal times share a tick; ticks are key-sorted on load); the clamp
  /// keeps the cast defined for absurd horizons without breaking order.
  [[nodiscard]] std::uint64_t tick_of(Time at) const noexcept {
    double x = at * inv_dt_;
    if (x > 9.0e18) x = 9.0e18;
    return static_cast<std::uint64_t>(x);
  }

  std::uint32_t alloc(const QueuedEvent& e) {
    const Node n{e.at, e.seq, e.slot, kNil};
    if (free_ == kNil) {
      assert(nodes_.size() < kNil && "node index would collide with kNil");
      nodes_.push_back(n);
      return static_cast<std::uint32_t>(nodes_.size() - 1);
    }
    const std::uint32_t i = free_;
    free_ = nodes_[i].next;
    nodes_[i] = n;
    return i;
  }

  /// Moves node `i`'s event onto the back of the front run and frees it.
  void take(std::uint32_t i) {
    const Node& n = nodes_[i];
    run_.push_back(QueuedEvent{n.at, n.seq, n.slot});
    nodes_[i].next = free_;
    free_ = i;
    --pending_;
  }

  /// Empties bucket `idx` of level `lvl` and returns its former head; the
  /// caller walks the nodes and relinks or takes each.
  std::uint32_t detach(int lvl, std::uint64_t idx) noexcept {
    occ_[lvl][idx >> 6] &= ~(1ull << (idx & 63));
    return std::exchange(heads_[lvl][idx], kNil);
  }

  void link(int lvl, std::uint64_t idx, std::uint32_t i) noexcept {
    nodes_[i].next = std::exchange(heads_[lvl][idx], i);
    occ_[lvl][idx >> 6] |= 1ull << (idx & 63);
  }

  /// Routes node `i` with tick `t` > `p` (or == `p` during a scan) into the
  /// level whose window around `p` contains it, or overflow beyond the span.
  /// Invariant: level-0 holds only p's 256-tick window, level-1 p's 2^16
  /// window, level-2 p's 2^24 window — so a level-0 bucket always holds
  /// exactly one tick value.
  void place(std::uint32_t i, std::uint64_t t, std::uint64_t p) noexcept {
    if ((t >> kBucketBits) == (p >> kBucketBits)) {
      link(0, t & kMask, i);
    } else if ((t >> (2 * kBucketBits)) == (p >> (2 * kBucketBits))) {
      link(1, (t >> kBucketBits) & kMask, i);
    } else if ((t >> (3 * kBucketBits)) == (p >> (3 * kBucketBits))) {
      link(2, (t >> (2 * kBucketBits)) & kMask, i);
    } else {
      nodes_[i].next = std::exchange(overflow_, i);
    }
  }

  /// First occupied bucket index >= `from`, or -1.
  [[nodiscard]] static int find_from(const std::uint64_t occ[kWords],
                                     std::uint64_t from) noexcept {
    if (from >= kBuckets) return -1;
    std::uint64_t w = from >> 6;
    std::uint64_t m = occ[w] & (~0ull << (from & 63));
    for (;;) {
      if (m != 0) return static_cast<int>(w * 64 + std::countr_zero(m));
      if (++w == kWords) return -1;
      m = occ[w];
    }
  }

  /// Scatters the covering bucket `idx` of level `lvl` down into the lower
  /// levels of `p`'s window (its ticks all share p's upper index bits).
  void scatter(int lvl, std::uint64_t idx, std::uint64_t p) noexcept {
    for (std::uint32_t i = detach(lvl, idx); i != kNil;) {
      const std::uint32_t next = nodes_[i].next;
      place(i, tick_of(nodes_[i].at), p);
      i = next;
    }
  }

  /// Crossed out of pos_'s 2^24 window: every bucket is empty, so jump to the
  /// window of the earliest overflow deadline and relink that window's
  /// events into the levels.
  void rehome(std::uint64_t& p) {
    assert(overflow_ != kNil);
    std::uint64_t tmin = ~0ull;
    for (std::uint32_t i = overflow_; i != kNil; i = nodes_[i].next) {
      tmin = std::min(tmin, tick_of(nodes_[i].at));
    }
    if ((tmin >> (3 * kBucketBits)) > (p >> (3 * kBucketBits))) {
      p = (tmin >> (3 * kBucketBits)) << (3 * kBucketBits);
    }
    pos_ = p;  // p is a span start here, so no queued tick can precede it
    for (std::uint32_t i = std::exchange(overflow_, kNil); i != kNil;) {
      const std::uint32_t next = nodes_[i].next;
      place(i, tick_of(nodes_[i].at), p);  // beyond p's span: back to overflow
      i = next;
    }
  }

  /// Loads level-0 bucket `k` (one tick's events) into the front run.
  void load(std::uint64_t k) {
    for (std::uint32_t i = detach(0, k); i != kNil;) {
      const std::uint32_t next = nodes_[i].next;
      take(i);
      i = next;
    }
    std::sort(run_.begin(), run_.end(), EarlierCompare{});
    ++loads_;
  }

  /// Density re-tick, called at a refill boundary (run drained, `last_at` the
  /// time of the last event popped) once kRetickWindow wheel events have
  /// been drained since the previous check. When the window's mean run
  /// length left [kMinRun, kMaxRun], the tick becomes kTargetRun times the
  /// window's mean gap between wheel events, and every pending node is
  /// relinked under it; pos_ becomes last_at's tick, whose events go straight
  /// into the run. A same-instant pileup no tick can split would keep asking
  /// for the same tick, so a re-tick within 2x of the current one is
  /// skipped. Returns true when the run is non-empty afterwards.
  bool retick(Time last_at) {
    const double events = static_cast<double>(window_events_);
    const double mean_run = events / static_cast<double>(window_runs_);
    const double span = last_at - window_t0_;
    window_events_ = 0;
    window_runs_ = 0;
    window_t0_ = last_at;
    if ((mean_run >= kMinRun && mean_run <= kMaxRun) || !(span > 0.0)) return false;
    const double dt = std::clamp(kTargetRun * span / events, 1e-9, 1e6);
    if (dt > 0.5 * dt_ && dt < 2.0 * dt_) return false;
    // Gather every pending node into one chain, then relink it under the
    // new tick.
    std::uint32_t all = std::exchange(overflow_, kNil);
    for (int lvl = 0; lvl < kLevels; ++lvl) {
      for (std::uint64_t idx = 0; idx < kBuckets; ++idx) {
        for (std::uint32_t i = detach(lvl, idx); i != kNil;) {
          const std::uint32_t next = nodes_[i].next;
          nodes_[i].next = std::exchange(all, i);
          i = next;
        }
      }
    }
    set_tick(dt);
    pos_ = tick_of(last_at);
    for (std::uint32_t i = all; i != kNil;) {
      const std::uint32_t next = nodes_[i].next;
      const std::uint64_t t = tick_of(nodes_[i].at);
      if (t <= pos_) {
        take(i);
      } else {
        place(i, t, pos_);
      }
      i = next;
    }
    if (run_.empty()) return false;
    std::sort(run_.begin(), run_.end(), EarlierCompare{});
    ++loads_;
    return true;
  }

  /// Advances to the next occupied tick and loads it. Requires pending_ > 0.
  /// Scan invariants: at the top of each iteration the covering level-2 and
  /// level-1 buckets of `p` are scattered down BEFORE level 0 is scanned
  /// (no-ops except right after a window boundary), and `p` only ever jumps
  /// to the window start of a found bucket — never past unexamined ticks.
  void refill() {
    assert(run_head_ == run_.size() && pending_ > 0);
    if (!run_.empty()) {
      window_events_ += run_.size();
      ++window_runs_;
    }
    const Time last_at = run_.empty() ? window_t0_ : run_.back().at;
    run_.clear();
    run_head_ = 0;
    if (window_events_ >= kRetickWindow && retick(last_at)) return;
    std::uint64_t p = pos_ + 1;
    for (;;) {
      if ((p >> (3 * kBucketBits)) != (pos_ >> (3 * kBucketBits))) rehome(p);
      const std::uint64_t i2 = (p >> (2 * kBucketBits)) & kMask;
      if (heads_[2][i2] != kNil) scatter(2, i2, p);
      const std::uint64_t i1 = (p >> kBucketBits) & kMask;
      if (heads_[1][i1] != kNil) scatter(1, i1, p);
      const int k = find_from(occ_[0], p & kMask);
      if (k >= 0) {
        p = (p & ~kMask) | static_cast<std::uint64_t>(k);
        load(static_cast<std::uint64_t>(k));
        pos_ = p;
        return;
      }
      const int j = find_from(occ_[1], ((p >> kBucketBits) & kMask) + 1);
      if (j >= 0) {
        p = (p & ~(kMask << kBucketBits | kMask)) |
            (static_cast<std::uint64_t>(j) << kBucketBits);
        continue;
      }
      const int m = find_from(occ_[2], ((p >> (2 * kBucketBits)) & kMask) + 1);
      if (m >= 0) {
        p = (p & ~(kSpanTicks - 1)) | (static_cast<std::uint64_t>(m) << (2 * kBucketBits));
        continue;
      }
      p = (p & ~(kSpanTicks - 1)) + kSpanTicks;  // span empty: rehome next pass
    }
  }

  double dt_ = 0.0;
  double inv_dt_ = 0.0;
  std::uint64_t pos_ = 0;       // drained watermark: buckets hold ticks > pos_
  std::size_t pending_ = 0;     // events in buckets + overflow (run_ excluded)
  std::size_t run_head_ = 0;    // consumption index into run_
  std::uint64_t loads_ = 0;     // front runs formed
  std::uint64_t window_events_ = 0;  // re-tick window: wheel events drained
  std::uint64_t window_runs_ = 0;    // re-tick window: runs drained
  Time window_t0_ = 0.0;             // re-tick window: simulated start
  std::uint64_t occ_[kLevels][kWords] = {};
  std::uint32_t heads_[kLevels][kBuckets];  // bucket lists (kNil = empty)
  std::uint32_t overflow_ = kNil;           // deadlines beyond the 2^24-tick span
  std::uint32_t free_ = kNil;               // free-node list
  std::vector<Node> nodes_;                 // the node pool
  std::vector<QueuedEvent> run_;            // current tick, key-sorted
};

}  // namespace ebrc::sim
