// One paced transport under every rate-based controller in the zoo.
//
// TFRC, delay-based AIMD, RCP and rate-based AIMD(alpha, beta) move packets
// the same way: a sender paces data at a rate, a receiver counts arrivals
// and sequence gaps and reports once per RTT, and the sender maps each
// report to a new rate. Only that last map — the rate law — differs, so
// PacedConnection<Law> owns everything else and the law is a small policy
// class, in the spirit of an
// `AimdRateControl::Update(state, throughput, now) -> DataRate`:
//
//   skeleton (here)                      law (tfrc/, delay_aimd/, rcp/, tcp/)
//   ----------------------------------   ---------------------------------
//   lifecycle: start/open,               its Config and the checks only it
//     completion, the POD rewind           needs; its per-transfer state,
//   pacing chain (send_next)               rewound by the skeleton
//   receiver: sequence gaps, recorder,   report -> next rate
//     receive-rate count, feedback       a receiver hook per data packet
//     chain (feedback_tick)              its report payload: kind and value
//   srtt EWMA and rtt_stats sampling     queuing-delay telemetry, if it
//   the shared config checks               senses delay
//
// Per-law differences that results depend on are compile-time properties of
// the law, never config fields (see the RateLaw concept below).
//
// The feedback chain is lazy. It ticks once per RTT while the receiver has
// something to report; a tick that finds nothing received since the last
// report parks the chain instead of scheduling its successor, storing the
// successor's time. Whatever could make a later tick non-empty or end the
// chain (on_data, finish_transfer, open) unparks it first: the
// stored time steps forward on the same grid, by the same repeated addition
// the ticks would have done, over every instant already passed (each would
// have been an empty tick, a no-op), and one real tick is scheduled at the
// next grid point. rtt_hint cannot change while nothing arrives, so the
// tick times are the doubles an always-ticking chain would use and every
// sample path is unchanged; only the kernel's event counts fall. A flow
// whose packets are all dropped costs no receiver events while it is idle.
//
// Ties: a grid point equal to the unparking instant counts as passed, as if
// its empty tick had fired before the event that unparks, and the chain
// resumes at the point after it. An always-ticking chain has that order too
// unless the unparking event was scheduled more than a step ahead. The
// resumed tick is also scheduled later than an always-ticking chain would
// have scheduled it, so it runs after, not before, any other event due at
// exactly its instant that was scheduled in between. Both are exact-double
// coincidences of independent clocks.
//
// Each law's header declares `extern template class PacedConnection<Law>`
// and its .cpp instantiates it, so every law compiles once, with its hooks
// inlined into the skeleton's per-packet paths.
#pragma once

#include <algorithm>
#include <concepts>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <type_traits>

#include "net/dumbbell.hpp"
#include "sim/inline_function.hpp"
#include "stats/loss_events.hpp"
#include "stats/online.hpp"
#include "util/units.hpp"

namespace ebrc::net {

/// The config fields every paced law shares, read through the law (each
/// Config keeps its own field names and types).
struct PacedParams {
  double packet_bytes;
  util::DataRate initial_rate;
  util::DataRate min_rate;
  double rtt_smoothing;  // EWMA weight on the old srtt
};

/// Per-transfer receiver state the skeleton keeps and the law's data hook
/// may read (TFRC seeds its loss history from the receive rate).
struct PacedReceiver {
  std::int64_t expected_seq = 0;
  double rtt_hint = 0.0;
  double last_feedback_time = 0.0;
  double last_data_send_time = 0.0;
  std::uint64_t recv_since_feedback = 0;
};
static_assert(sizeof(PacedReceiver) == 40 && std::is_trivially_copyable_v<PacedReceiver>);

/// What the sender knows when a report arrives.
struct RateSample {
  double now;
  double rtt_s;  // now - echo; may be <= 0 unless the law sets kNeedsRttSample
  double srtt;   // already blended with rtt_s
  util::DataRate rate;
};

/// Queuing-delay telemetry for the delay-sensing laws: one sample per report,
/// the RTT sample's excess over the transfer's RTT floor. The floor is
/// per-transfer; the sum and count accumulate across transfers.
struct QueuingDelayMeter {
  util::TimeDelta min_rtt;  // 0 = no sample this transfer
  double sum_s = 0.0;
  std::uint64_t samples = 0;

  util::TimeDelta add(util::TimeDelta rtt) noexcept {
    if (min_rtt.is_zero() || rtt < min_rtt) min_rtt = rtt;
    const util::TimeDelta qdelay = rtt - min_rtt;
    sum_s += qdelay.seconds();
    ++samples;
    return qdelay;
  }
  void rewind() noexcept { min_rtt = util::TimeDelta(); }
};

/// A rate law: what PacedConnection needs from a controller.
template <typename L>
concept RateLaw = requires(L law, const L claw, const Packet& p, const typename L::Report& report,
                           const RateSample& s, const PacedReceiver& rcv, std::int64_t missing,
                           double now) {
  typename L::Config;
  // Name for error messages; the report's packet kind and its payload arm.
  { L::kName } -> std::convertible_to<const char*>;
  { L::kReportKind } -> std::convertible_to<PacketKind>;
  { p.*L::kReport } -> std::convertible_to<const typename L::Report&>;
  // TFRC: the first RTT sample replaces the initial srtt instead of blending.
  { L::kFirstRttSampleReplacesSrtt } -> std::convertible_to<bool>;
  // Delay-AIMD: a report without a positive RTT sample changes nothing.
  { L::kNeedsRttSample } -> std::convertible_to<bool>;
  { claw.params() } -> std::convertible_to<PacedParams>;
  law.rewind();  // per-transfer state back to the constructor's
  { law.next_rate(report, s) } -> std::convertible_to<util::DataRate>;  // before min_rate
  law.on_data(p, missing, now, rcv, util::DataRate());  // the sender's rate, for seeding
  { claw.report_value() } -> std::convertible_to<double>;
  { claw.queuing_delay() } -> std::convertible_to<QueuingDelayMeter>;
};

template <RateLaw Law>
class PacedConnection {
 public:
  using Config = typename Law::Config;
  /// Flow-retirement notification for pooled (finite-transfer) use.
  using CompletionFn = sim::InlineFunction<void(), 24>;

  /// Throws std::invalid_argument on a non-positive base RTT, on shared
  /// config fields out of range (rtt_smoothing outside [0, 1], non-positive
  /// packet size, initial or minimum rate), or on the law's own checks.
  PacedConnection(Dumbbell& net, int flow_id, double base_rtt_s, Config cfg = {});

  // Registers this-capturing handlers and pinned events at construction;
  // the object must stay at its construction address.
  PacedConnection(const PacedConnection&) = delete;
  PacedConnection& operator=(const PacedConnection&) = delete;

  /// Continuous source from absolute time `at`.
  void start(double at);

  // --- pooled lifecycle (workload::Sender) ------------------------------
  //
  // A pool slot constructs the connection ONCE (handlers and pinned events
  // are permanent) and open()s it per transfer. open() rewinds every piece
  // of per-transfer protocol and law state; the cumulative counters (sent,
  // delivered, the loss-event recorder, RTT moments, queuing-delay totals)
  // keep accumulating. finish_transfer retires the flow when its last
  // packet leaves: the pacing chain ends there, and the feedback chain,
  // guarded rather than cancelled, dies at its next tick. A reopen before
  // that tick reuses the live feedback chain, never doubles it. The pool
  // quarantines a retired slot for a drain interval before reopening it, so
  // no packet of the previous transfer reaches the new one (see
  // workload::FlowManager).

  /// Opens a retired (or never started) connection for a transfer of
  /// `transfer_packets` data packets (0 = unbounded); the first packet
  /// leaves at the current time. `on_complete` fires once, at the emission
  /// of the final packet: a paced unreliable source is done when it has
  /// paced everything out.
  void open(std::uint64_t transfer_packets, CompletionFn on_complete = {});

  [[nodiscard]] bool active() const noexcept { return running_; }
  [[nodiscard]] std::uint64_t transfers_completed() const noexcept {
    return transfers_completed_;
  }

  // --- measurement ------------------------------------------------------
  [[nodiscard]] const stats::LossEventRecorder& recorder() const noexcept { return recorder_; }
  [[nodiscard]] std::uint64_t delivered() const noexcept { return delivered_; }
  [[nodiscard]] std::uint64_t sent() const noexcept { return sent_; }
  [[nodiscard]] double srtt() const noexcept { return snd_.srtt; }
  [[nodiscard]] util::DataRate target_rate() const noexcept { return snd_.rate; }
  [[nodiscard]] const stats::OnlineMoments& rtt_stats() const noexcept { return rtt_stats_; }
  /// Cumulative queuing-delay telemetry; zero samples for a loss-based law.
  [[nodiscard]] double queuing_delay_sum_s() const noexcept {
    return law_.queuing_delay().sum_s;
  }
  [[nodiscard]] std::uint64_t queuing_delay_samples() const noexcept {
    return law_.queuing_delay().samples;
  }

  [[nodiscard]] const Law& law() const noexcept { return law_; }

 private:
  void send_next();
  void on_feedback(const Packet& p);
  void finish_transfer();
  void reset_transfer_state();
  void on_data(const Packet& p);
  void feedback_tick();
  /// No-op unless the feedback chain is parked; see the header comment.
  void unpark_feedback();

  /// Per-transfer sender hot state, rewound wholesale by open().
  struct SenderState {
    util::DataRate rate;
    double srtt = 0.0;
    std::int64_t next_seq = 0;
    std::uint64_t transfer_limit = 0;  // 0 = unbounded stream
    std::uint64_t transfer_sent = 0;   // packets emitted this incarnation
    bool have_rtt = false;             // an RTT sample arrived this transfer
  };
  static_assert(sizeof(SenderState) == 48 && std::is_trivially_copyable_v<SenderState>);

  Dumbbell& net_;
  int flow_;
  // A pinned send_next is pending exactly while running_: the pacing chain
  // ends with the transfer. The feedback chain outlives it by one tick, so
  // its guard survives the rewind: a live chain is reused by the next
  // incarnation, never doubled. `receiving_` is per-transfer.
  bool running_ = false;
  bool feedback_armed_ = false;  // the feedback chain is live: a tick is pending or parked
  bool receiving_ = false;       // the receiver has seen this transfer's first packet
  double base_rtt_s_;
  // Pinned per-packet/per-RTT events, never cancelled: send_next stops
  // rescheduling at the transfer's last packet, feedback_tick once it finds
  // running_ false.
  sim::Simulator::PinnedEvent send_ev_ = 0;
  sim::Simulator::PinnedEvent feedback_ev_ = 0;
  SenderState snd_;
  PacedReceiver rcv_;
  // Nonzero while the feedback chain is parked: the time its next tick would
  // have had (always > 0). Beside rcv_, which on_data touches anyway.
  double feedback_parked_at_ = 0.0;
  Law law_;

  std::uint64_t transfers_completed_ = 0;
  CompletionFn done_;
  std::uint64_t sent_ = 0;
  std::uint64_t delivered_ = 0;
  stats::LossEventRecorder recorder_;
  stats::OnlineMoments rtt_stats_;
  double next_rtt_sample_at_ = 0.0;
};

// ------------------------------------------------------------------------
// Definitions: instantiated once per law, in the law's .cpp.

template <RateLaw Law>
PacedConnection<Law>::PacedConnection(Dumbbell& net, int flow_id, double base_rtt_s, Config cfg)
    : net_(net), flow_(flow_id), base_rtt_s_(base_rtt_s), law_(std::move(cfg)),
      recorder_(base_rtt_s) {
  // Written so a NaN fails every check.
  const auto check = [](bool ok, const char* what) {
    if (!ok) throw std::invalid_argument(std::string(Law::kName) + ": " + what);
  };
  const PacedParams prm = law_.params();
  check(base_rtt_s > 0, "base RTT must be > 0");
  check(prm.rtt_smoothing >= 0.0 && prm.rtt_smoothing <= 1.0, "rtt_smoothing must lie in [0, 1]");
  check(prm.packet_bytes > 0, "packet_bytes must be > 0");
  check(prm.initial_rate.pps() > 0, "initial rate must be > 0");
  check(prm.min_rate.pps() > 0, "minimum rate must be > 0");
  reset_transfer_state();
  send_ev_ = net_.simulator().pin([this] { send_next(); });
  feedback_ev_ = net_.simulator().pin([this] { feedback_tick(); });
  net_.on_data_at_receiver(flow_, [this](const Packet& p) { on_data(p); });
  net_.on_packet_at_sender(flow_, [this](const Packet& p) { on_feedback(p); });
}

template <RateLaw Law>
void PacedConnection<Law>::start(double at) {
  net_.simulator().schedule_at(at, [this] {
    running_ = true;
    send_next();
  });
}

template <RateLaw Law>
void PacedConnection<Law>::open(std::uint64_t transfer_packets, CompletionFn on_complete) {
  // Unpark on the old rtt_hint, before the rewind resets it.
  unpark_feedback();
  reset_transfer_state();
  snd_.transfer_limit = transfer_packets;
  done_ = std::move(on_complete);
  running_ = true;
  net_.simulator().schedule_pinned(0.0, send_ev_);
}

template <RateLaw Law>
void PacedConnection<Law>::finish_transfer() {
  running_ = false;
  unpark_feedback();
  ++transfers_completed_;
  if (done_) {
    // Move out first: the callback may re-enter the pool and hand this slot
    // a fresh done_ later (never synchronously — slots are quarantined).
    CompletionFn done = std::move(done_);
    done_ = CompletionFn{};
    done();
  }
}

template <RateLaw Law>
void PacedConnection<Law>::reset_transfer_state() {
  snd_ = SenderState{};
  snd_.rate = law_.params().initial_rate;
  snd_.srtt = base_rtt_s_;
  rcv_ = PacedReceiver{};
  rcv_.rtt_hint = base_rtt_s_;
  receiving_ = false;
  law_.rewind();
  recorder_.set_rtt_window(base_rtt_s_);
}

// --------------------------------------------------------------- sender ----

template <RateLaw Law>
void PacedConnection<Law>::send_next() {
  Packet p;
  p.seq = snd_.next_seq++;
  p.size_bytes = law_.params().packet_bytes;
  p.send_time = net_.simulator().now();
  p.data.rtt_hint = snd_.srtt;
  net_.send_data(flow_, p);
  ++sent_;
  ++snd_.transfer_sent;
  if (snd_.transfer_limit != 0 && snd_.transfer_sent >= snd_.transfer_limit) {
    // Finite transfer: done at the emission of the final packet; delivery of
    // the tail is the network's business. The pacing chain ends with it.
    finish_transfer();
    return;
  }
  net_.simulator().schedule_pinned(snd_.rate.packet_interval().seconds(), send_ev_);
}

template <RateLaw Law>
void PacedConnection<Law>::on_feedback(const Packet& p) {
  if (!running_ || p.kind != Law::kReportKind) return;
  const typename Law::Report& report = p.*Law::kReport;
  const double now = net_.simulator().now();
  const PacedParams prm = law_.params();

  const double sample = now - report.echo_time;
  if (sample > 0) {
    if (Law::kFirstRttSampleReplacesSrtt && !snd_.have_rtt) {
      snd_.srtt = sample;
    } else {
      snd_.srtt = prm.rtt_smoothing * snd_.srtt + (1.0 - prm.rtt_smoothing) * sample;
    }
    snd_.have_rtt = true;
    if (now >= next_rtt_sample_at_) {
      rtt_stats_.add(sample);
      next_rtt_sample_at_ = now + snd_.srtt;
    }
  } else if (Law::kNeedsRttSample) {
    return;
  }
  snd_.rate = util::max(prm.min_rate, law_.next_rate(report, {now, sample, snd_.srtt, snd_.rate}));
  recorder_.note_rate(snd_.rate.pps());
}

// ------------------------------------------------------------- receiver ----

template <RateLaw Law>
void PacedConnection<Law>::on_data(const Packet& p) {
  // Unpark on the rtt_hint the parked grid was stepped with.
  unpark_feedback();
  const double now = net_.simulator().now();
  if (p.data.rtt_hint > 0) rcv_.rtt_hint = p.data.rtt_hint;
  recorder_.set_rtt_window(rcv_.rtt_hint);

  const std::int64_t missing = std::max<std::int64_t>(0, p.seq - rcv_.expected_seq);
  if (p.seq >= rcv_.expected_seq) rcv_.expected_seq = p.seq + 1;
  law_.on_data(p, missing, now, rcv_, snd_.rate);

  for (std::int64_t i = 0; i < missing; ++i) recorder_.on_loss(now);
  recorder_.on_packet(now);
  ++delivered_;
  ++rcv_.recv_since_feedback;
  rcv_.last_data_send_time = p.send_time;

  if (!receiving_) {
    receiving_ = true;
    rcv_.last_feedback_time = now;
    if (!feedback_armed_) {
      feedback_armed_ = true;
      net_.simulator().schedule_pinned(std::max(1e-3, rcv_.rtt_hint), feedback_ev_);
    }
  }
}

template <RateLaw Law>
void PacedConnection<Law>::feedback_tick() {
  if (!running_) {
    feedback_armed_ = false;  // chain dies; the next incarnation re-arms
    return;
  }
  const double now = net_.simulator().now();
  if (rcv_.recv_since_feedback == 0) {
    // Park: the successor's time, as schedule_pinned would compute it.
    feedback_parked_at_ = now + std::max(1e-3, rcv_.rtt_hint);
    return;
  }
  Packet report;
  report.kind = Law::kReportKind;
  report.size_bytes = 40.0;
  report.send_time = now;
  const double elapsed = std::max(1e-9, now - rcv_.last_feedback_time);
  report.*Law::kReport = {law_.report_value(),
                          static_cast<double>(rcv_.recv_since_feedback) / elapsed,
                          rcv_.last_data_send_time};
  net_.send_back(flow_, report);
  rcv_.recv_since_feedback = 0;
  rcv_.last_feedback_time = now;
  net_.simulator().schedule_pinned(std::max(1e-3, rcv_.rtt_hint), feedback_ev_);
}

template <RateLaw Law>
void PacedConnection<Law>::unpark_feedback() {
  if (feedback_parked_at_ == 0.0) return;
  // Every grid point up to and including now would have been an empty tick
  // (see the tie rule in the header comment); resume at the next one.
  const double now = net_.simulator().now();
  const double step = std::max(1e-3, rcv_.rtt_hint);
  double at = feedback_parked_at_;
  while (at <= now) at += step;
  feedback_parked_at_ = 0.0;
  net_.simulator().schedule_pinned_at(at, feedback_ev_);
}

}  // namespace ebrc::net
