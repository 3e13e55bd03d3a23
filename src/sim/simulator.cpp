#include "sim/simulator.hpp"

#include <chrono>
#include <cmath>
#include <limits>
#include <span>
#include <stdexcept>

namespace ebrc::sim {

namespace {

thread_local bool t_deadline_armed = false;
thread_local std::chrono::steady_clock::time_point t_deadline{};

}  // namespace

void arm_thread_wall_deadline(double seconds_from_now) {
  t_deadline = std::chrono::steady_clock::now() +
               std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                   std::chrono::duration<double>(seconds_from_now));
  t_deadline_armed = true;
}

void disarm_thread_wall_deadline() noexcept { t_deadline_armed = false; }

bool thread_wall_deadline_armed() noexcept { return t_deadline_armed; }

void poll_thread_wall_deadline() {
  if (!t_deadline_armed) return;
  if (std::chrono::steady_clock::now() < t_deadline) return;
  throw WallDeadlineError("wall-clock deadline expired mid-run (cooperative 64k-event poll)");
}

namespace {
// Heap size (in entries) above which sift-down child prefetching pays for
// itself; ~8k 24-byte entries ≈ 192 KiB, the scale where the lower tree
// levels start missing L2.
constexpr std::size_t kPrefetchHeapSize = 8192;
// Wheel front-run lookahead, in events: the callback's pinned slot is
// prefetched 2 * kLookahead events ahead and the state it points to
// kLookahead events ahead, so each load is issued a few callbacks before it
// is needed (the slot line is in by the time its first word is read).
constexpr std::size_t kLookahead = 3;
}  // namespace

void Simulator::throw_negative_delay() {
  throw std::invalid_argument("Simulator::schedule: negative delay");
}

void Simulator::throw_past_time() {
  throw std::invalid_argument("Simulator::schedule_at: time in the past");
}

void Simulator::pop_min() {
  const Entry last = heap_.back();
  heap_.pop_back();
  const std::size_t n = heap_.size();
  if (n == 0) return;
  // Sift the hole at the root down along min children to a leaf, then bubble
  // `last` back up from there. Compared to the textbook "compare the moved
  // leaf at every level" descent this does the same number of child scans but
  // drops the extra compare per level, and `last` — usually one of the
  // largest keys, having sat at the bottom — rarely bubbles more than a step.
  std::size_t i = 0;
  for (;;) {
    const std::size_t first = 4 * i + 1;
    if (first + 4 > n) {
      // Frontier level with fewer than 4 children (at most once); its
      // children are the heap's last nodes, necessarily leaves.
      if (first >= n) break;
      std::size_t best = first;
      for (std::size_t c = first + 1; c < n; ++c) {
        if (earlier(heap_[c], heap_[best])) best = c;
      }
      heap_[i] = heap_[best];
      i = best;
      break;
    }
    // Full fanout: pairwise min-of-4 as two independent compares plus a
    // final, all selected with conditional moves on indices (no
    // data-dependent branches — heap keys are adversarially unpredictable).
    const std::size_t a = first + (earlier(heap_[first + 1], heap_[first]) ? 1 : 0);
    const std::size_t b = first + 2 + (earlier(heap_[first + 3], heap_[first + 2]) ? 1 : 0);
    const std::size_t best = earlier(heap_[b], heap_[a]) ? b : a;
#if defined(__GNUC__) || defined(__clang__)
    // Heaps past L2 leave the lower levels' children cold: start the next
    // level's line in before descending. On cache-resident heaps the extra
    // prefetch traffic only costs, so gate it on size (predictable branch).
    if (n > kPrefetchHeapSize && 4 * best + 1 < n) __builtin_prefetch(&heap_[4 * best + 1]);
#endif
    heap_[i] = heap_[best];
    i = best;
  }
  while (i > 0) {
    const std::size_t parent = (i - 1) >> 2;
    if (!earlier(last, heap_[parent])) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = last;
}

void Simulator::run_until(Time horizon) {
  for (;;) {
    // Cooperative wall-deadline poll: one mask test per event keeps the
    // unarmed cost invisible, yet a wedged cell still surfaces within 64k
    // events instead of holding its sweep slot forever.
    if ((executed_ & 0xFFFFu) == 0) poll_thread_wall_deadline();
    // Merge-pop: the wheel's front run and the heap top compete on the same
    // 128-bit (time bits ‖ seq) key, so the interleaved execution order is
    // bit-identical to the single-heap kernel. peek() may advance the wheel
    // (lazy cascade), but never past an unexamined tick.
    const QueuedEvent* w = wheel_.peek();
    const bool heap_has = !heap_.empty();
    if (w == nullptr && !heap_has) break;
    const bool from_wheel = w != nullptr && (!heap_has || earlier(*w, heap_.front()));
    const Entry e = from_wheel ? *w : heap_.front();
    if (!(e.at <= horizon)) break;
    if (from_wheel) {
      wheel_.pop_front();
      ++wheel_pops_;
    } else {
      pop_min();
      ++heap_pops_;
    }
    // The next event to run is usually already known (the wheel's run head or
    // the new heap top): start pulling its callback line in while this
    // event's callback executes.
    const std::span<const QueuedEvent> ahead = wheel_.ready();
    const QueuedEvent* nw = ahead.empty() ? nullptr : &ahead.front();
    const Entry* nh = heap_.empty() ? nullptr : &heap_.front();
    if (nw != nullptr && (nh == nullptr || earlier(*nw, *nh))) {
#if defined(__GNUC__) || defined(__clang__)
      __builtin_prefetch(&pinned_[nw->slot]);
#endif
    } else if (nh != nullptr) {
      slab_.prefetch(nh->slot);
    }
    // The front run holds only pinned entries, in pop order: with more
    // callbacks and targets than the caches hold, start their lines in a few
    // events early. Small simulators skip it — their lines are already hot
    // and the extra loads only cost.
    if (lookahead_) {
#if defined(__GNUC__) || defined(__clang__)
      if (ahead.size() > 2 * kLookahead) {
        __builtin_prefetch(&pinned_[ahead[2 * kLookahead].slot]);
      }
#endif
      if (ahead.size() > kLookahead) {
        pinned_[ahead[kLookahead].slot].prefetch_target();
      }
    }
    if (from_wheel) {
      // Pinned fast path: no retire, no callback move — invoke in place.
      record_executed(e.at, e.slot, 1u);
      now_ = e.at;
      ++executed_;
      pinned_[e.slot]();
      continue;
    }
    // Move the callback out and recycle the slot before running, so events
    // the callback schedules may reuse it.
    EventFn fn = slab_.retire(e.slot);
    assert(e.at >= now_);
    record_executed(e.at, e.slot, 0u);
    now_ = e.at;
    current_ = e.seq;
    ++executed_;
    fn();
  }
  if (now_ < horizon && std::isfinite(horizon)) now_ = horizon;
}

void Simulator::run() {
  run_until(std::numeric_limits<Time>::infinity());
}

}  // namespace ebrc::sim
