// A lazily re-armed deadline timer over the event kernel.
//
// Protocol timers (TCP's RTO, delayed ACKs) are re-armed far more often than
// they fire. A LazyTimer keeps the LIVE deadline in the component: extending
// it (the overwhelmingly common case) is a plain store, firing the armed
// kernel event re-checks the deadline and chases it when it moved, and
// disarming is a flag write. At most one kernel event per timeout period per
// timer is live.
//
// The kernel never withdraws an event, so the timer remembers the id of its
// one live event and every other firing dies on arrival: a firing superseded
// by a re-arm to an earlier deadline, and one withdrawn by cancel(). Those
// run as no-ops, under the sequence numbers they were scheduled with.
#pragma once

#include "sim/simulator.hpp"

namespace ebrc::sim {

class LazyTimer {
 public:
  /// Arms (or extends) the deadline to the absolute time `at`; `schedule`
  /// is a callable `EventId(Time)` that schedules this timer's kernel event
  /// (invoked only when no live event fires at or before `at`).
  template <typename Schedule>
  void arm(Time at, Schedule&& schedule) {
    deadline_ = at;
    active_ = true;
    if (pending_ && event_at_ <= deadline_) return;
    event_at_ = deadline_;
    event_ = schedule(deadline_);
    pending_ = true;
  }

  /// Call from the kernel event, passing Simulator::current_event(). Returns
  /// true when the deadline is due (the timer deactivates; the caller
  /// performs the action); when the deadline moved later, re-arms the chase
  /// event and returns false. A firing that is not the live event, or that
  /// arrives after disarm(), returns false and dies.
  template <typename Schedule>
  [[nodiscard]] bool fire(EventId id, Time now, Schedule&& schedule) {
    if (!pending_ || id != event_) return false;
    pending_ = false;
    if (!active_) return false;
    if (now >= deadline_) {
      active_ = false;
      return true;
    }
    arm(deadline_, schedule);
    return false;
  }

  /// Deactivates without touching the kernel; the live event, if any, stays
  /// live so a re-arm before its firing reuses it.
  void disarm() noexcept { active_ = false; }

  /// Deactivates AND drops the live event (teardown): its firing is a no-op.
  void cancel() noexcept {
    active_ = false;
    pending_ = false;
  }

  [[nodiscard]] bool active() const noexcept { return active_; }
  [[nodiscard]] Time deadline() const noexcept { return deadline_; }

 private:
  Time deadline_ = 0.0;
  Time event_at_ = 0.0;  // fire time of the live kernel event
  EventId event_ = 0;    // id of the live kernel event, when pending_
  bool active_ = false;
  bool pending_ = false;
};

}  // namespace ebrc::sim
