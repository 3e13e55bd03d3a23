// Structure-of-arrays storage for the dynamic-flow pool.
//
// The churn engine's per-event work divides cleanly into two access
// patterns. Protocol work (pacing, feedback, ACK clocking) is handled by the
// connection objects themselves, which are pinned at their construction
// address — their handlers capture `this`. Pool work — admit, complete,
// quarantine release, and the epoch sweeps that snapshot and fold every
// slot's counters — touches a few small fields per slot and, at 10^5–10^6
// slots, dominates cache behavior: with the old deque<Slot> layout each slot
// visit dragged in two std::optional connections' worth of cold bytes
// (~1 KB per slot) to read ~30 hot ones.
//
// FlowPools therefore splits the pool into parallel arrays indexed by slot
// id:
//
//   SlotState[]        — the per-transfer attributes admit/complete touch
//                        (24 B each; one cache line carries ~2.6 slots)
//   SideState[N][]     — per traffic class, the slot's dumbbell wiring and
//                        epoch counter snapshots (56 B each; the epoch sweep
//                        walks one class's array contiguously). Only the
//                        classes the workload can draw get an array: a 50/50
//                        TFRC:TCP mix pays 2 x 56 B per slot, a single
//                        controller 56 B, never 4 x 56 B.
//   deque<Connection>  — the heavy protocol objects, constructed on demand,
//                        address-stable forever, referenced from SideState
//                        by index (never by pointer, so the arrays stay
//                        trivially copyable)
//
// Footprint: at 10^5-10^6 slots the bytes one wired slot holds decide
// whether a cell fits in memory, so nothing per slot is sized for a load it
// may never see. A slot's dumbbell flow is just its two pipes, whose rings
// allocate at their first packet and then grow on use (a pooled flow rarely
// has more than a couple of packets in flight); TFRC connections share one
// immutable formula object and weight profile per configuration instead of
// owning copies; and only the classes the workload can draw get a SideState
// array. A wired slot of a 50/50 TFRC:TCP pool holds about 1.7 KB in all,
// simulator reservations included (bench_e2e's workload.bytes_per_slot);
// tests/workload_alloc_test.cpp holds the line with a per-slot byte budget.
//
// Four traffic classes ride the pool (FlowClass): TFRC and TCP from the
// paper, plus delay-based AIMD and RCP. TCP is its own ACK-clocked
// transport; the other three are one paced transport,
// net::PacedConnection<Law>, over their rate laws. ClassConnections lists
// the connection type of each class once: every type is checked against the
// workload::Sender concept below, make() builds a class's connection with
// the config of its Config type, and with_sender() dispatches a generic
// visitor over the class tag, so the manager's construction and epoch sweeps
// are written once, not four times.
//
// Static tripwires pin the record layouts the same way the 56-B Packet and
// 24-B queue-entry guards do: growing a record past its line budget is a
// compile error, not a silent regression.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <string_view>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "delay_aimd/delay_aimd_connection.hpp"
#include "rcp/rcp_connection.hpp"
#include "tcp/tcp_connection.hpp"
#include "tfrc/tfrc_connection.hpp"
#include "workload/sender.hpp"

namespace ebrc::workload {

enum class FlowClass : int { kTfrc = 0, kTcp = 1, kDelayAimd = 2, kRcp = 3 };

/// The connection type behind each FlowClass, in enumerator order, the
/// `[workload] controller` name that pins it, and the tag that names its
/// metrics (`wl_<tag>_p`). Adding a controller appends all four here.
using ClassConnections = std::tuple<tfrc::TfrcConnection, tcp::TcpConnection,
                                    delay_aimd::DelayAimdConnection, rcp::RcpConnection>;
inline constexpr int kFlowClasses = static_cast<int>(std::tuple_size_v<ClassConnections>);
inline constexpr std::array<std::string_view, kFlowClasses> kControllerNames = {
    "tfrc", "tcp", "delay_aimd", "rcp"};
inline constexpr std::array<std::string_view, kFlowClasses> kClassTags = {"tfrc", "tcp",
                                                                          "aimd", "rcp"};

/// Index of `c` in per-class arrays (WorkloadSummary, FlowPools).
[[nodiscard]] constexpr int class_index(FlowClass c) noexcept { return static_cast<int>(c); }

// The whole zoo satisfies the Sender contract — a controller that forgets
// part of the pooled lifecycle fails here, at compile time.
static_assert([]<typename... Conn>(std::type_identity<std::tuple<Conn...>>) {
  return (Sender<Conn> && ...);
}(std::type_identity<ClassConnections>{}));

// Per-slot connection budgets (g++/libstdc++, x86-64): every wired slot of a
// pooled cell holds one connection of its class.
static_assert(sizeof(tfrc::TfrcConnection) <= 616, "TFRC connection outgrew its budget");
static_assert(sizeof(delay_aimd::DelayAimdConnection) <= 536,
              "delay-AIMD connection outgrew its budget");
static_assert(sizeof(rcp::RcpConnection) <= 456, "RCP connection outgrew its budget");

/// Hot per-slot transfer attributes: everything admit()/complete() read or
/// write per transfer, and nothing else.
struct SlotState {
  double size_pkts = 0.0;
  double opened_at = 0.0;
  std::int32_t session_remaining = 0;  // follow-up transfers after this one
  std::int8_t cls = 0;                 // current/last occupant (FlowClass)
  bool busy = false;                   // occupancy guard: admit/complete alternate
};
static_assert(sizeof(SlotState) == 24, "SlotState grew past its line budget");
static_assert(alignof(SlotState) == 8);
static_assert(std::is_trivially_copyable_v<SlotState>);

/// Per-(slot, traffic-class) wiring and epoch snapshots. Stored as one array
/// per class so begin_epoch()/summarize() sweep each class contiguously.
struct SideState {
  std::int32_t flow_id = -1;  // dumbbell flow, wired once at first use
  std::int32_t conn = -1;     // index into the class's connection pool
  // epoch snapshots of the cumulative per-connection counters
  std::uint64_t delivered0 = 0;
  std::uint64_t packets0 = 0;
  std::uint64_t losses0 = 0;
  std::uint64_t events0 = 0;
  // queuing-delay telemetry snapshots (delay-sensing controllers; zero for
  // the loss-based classes)
  double qd_sum0 = 0.0;
  std::uint64_t qd_count0 = 0;
};
static_assert(sizeof(SideState) == 56, "SideState grew past its line budget");
static_assert(alignof(SideState) == 8);
static_assert(std::is_trivially_copyable_v<SideState>);

class FlowPools {
 public:
  [[nodiscard]] std::size_t size() const noexcept { return slots_.size(); }

  /// Keeps SideState arrays only for the classes in `mask` (bit c is
  /// FlowClass c): the ones the workload can actually draw. Call before the
  /// first add_slot(); a class left out has an empty array and must never
  /// be wired.
  void limit_classes(unsigned mask) noexcept { classes_ = mask; }

  /// Pre-sizes the SoA arrays (not the connection pools — those are built
  /// lazily, one per slot-side actually exercised).
  void reserve(std::size_t n) {
    slots_.reserve(n);
    for (int c = 0; c < kFlowClasses; ++c) {
      if (has_class(c)) sides_[c].reserve(n);
    }
  }

  /// Appends an empty slot (all sides unwired) and returns its id.
  std::size_t add_slot() {
    slots_.emplace_back();
    for (int c = 0; c < kFlowClasses; ++c) {
      if (has_class(c)) sides_[c].emplace_back();
    }
    return slots_.size() - 1;
  }

  [[nodiscard]] SlotState& slot(std::size_t i) noexcept { return slots_[i]; }
  [[nodiscard]] const SlotState& slot(std::size_t i) const noexcept { return slots_[i]; }
  [[nodiscard]] SideState& side(int cls, std::size_t i) noexcept { return sides_[cls][i]; }
  [[nodiscard]] const SideState& side(int cls, std::size_t i) const noexcept {
    return sides_[cls][i];
  }
  /// The whole per-class array, for contiguous epoch sweeps (empty for a
  /// class the workload cannot draw).
  [[nodiscard]] std::vector<SideState>& sides(int cls) noexcept { return sides_[cls]; }
  [[nodiscard]] const std::vector<SideState>& sides(int cls) const noexcept {
    return sides_[cls];
  }

  /// Constructs a connection of class `cls` in its pool (address-stable
  /// deque), configured by the `Conn::Config` element of the tuple `configs`,
  /// and returns its index for SideState::conn.
  template <typename Configs>
  [[nodiscard]] std::int32_t make(int cls, net::Dumbbell& net, int flow_id, double rtt,
                                  const Configs& configs) {
    std::int32_t idx = -1;
    dispatch(conns_, cls, [&](auto& pool) {
      using Conn = typename std::decay_t<decltype(pool)>::value_type;
      pool.emplace_back(net, flow_id, rtt, std::get<const typename Conn::Config&>(configs));
      idx = static_cast<std::int32_t>(pool.size() - 1);
    });
    return idx;
  }

  /// Applies `fn` to connection `c` of class `cls` as whatever concrete
  /// Sender it is. Pool/epoch code generic over the zoo is written once
  /// against the Sender concept and dispatched here.
  template <typename Fn>
  void with_sender(int cls, std::int32_t c, Fn&& fn) {
    dispatch(conns_, cls, [&](auto& pool) { fn(pool[c]); });
  }
  template <typename Fn>
  void with_sender(int cls, std::int32_t c, Fn&& fn) const {
    dispatch(conns_, cls, [&](const auto& pool) { fn(pool[c]); });
  }

 private:
  [[nodiscard]] bool has_class(int cls) const noexcept { return (classes_ >> cls) & 1u; }

  /// Applies `fn` to the connection pool of class `cls`.
  template <typename Conns, typename Fn>
  static void dispatch(Conns& conns, int cls, Fn&& fn) {
    [&]<std::size_t... I>(std::index_sequence<I...>) {
      (void)((cls == static_cast<int>(I) && (fn(std::get<I>(conns)), true)) || ...);
    }(std::make_index_sequence<kFlowClasses>{});
  }

  template <typename>
  struct PoolsOf;
  template <typename... Conn>
  struct PoolsOf<std::tuple<Conn...>> {
    using type = std::tuple<std::deque<Conn>...>;  // deque: connections never relocate
  };

  unsigned classes_ = (1u << kFlowClasses) - 1;  // classes with a SideState array
  std::vector<SlotState> slots_;
  std::vector<SideState> sides_[kFlowClasses];
  PoolsOf<ClassConnections>::type conns_;
};

}  // namespace ebrc::workload
