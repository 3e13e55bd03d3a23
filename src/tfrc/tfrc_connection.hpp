// Packet-level TFRC: a rate-paced sender driven by receiver feedback.
//
// Receiver: detects losses from sequence gaps, maintains the RFC 3448 loss
// history (LossHistory), measures the receive rate, and sends one feedback
// packet per RTT carrying (hat-theta, receive rate, echo timestamp).
//
// Sender: before the first loss event it slow-starts (rate doubles each
// feedback, capped at twice the receive rate); afterwards it applies the
// equation X = f(p, r) with p = 1/hat-theta from feedback and r the smoothed
// measured RTT, optionally capped at twice the receive rate (the TFRC
// standard behavior; can be disabled to study the pure control).
//
// The formulas are used with the TFRC recommendation q = 4r, under which
// every formula in this library scales exactly as f(p, r) = f(p, 1)/r; the
// sender therefore evaluates the unit-RTT formula and divides by the
// measured smoothed RTT.
#pragma once

#include <cstdint>
#include <type_traits>
#include <vector>

#include "core/weights.hpp"
#include "model/throughput_function.hpp"
#include "net/dumbbell.hpp"
#include "stats/loss_events.hpp"
#include "stats/online.hpp"
#include "tfrc/loss_history.hpp"

namespace ebrc::tfrc {

struct TfrcConfig {
  /// Loss-interval estimator window L (TFRC default 8).
  std::size_t history_length = 8;
  /// Comprehensive control (include the open interval). The lab experiments
  /// of the paper disable this.
  bool comprehensive = true;
  /// RFC 3448 history discounting (off by default: the paper's analysis and
  /// its experimental TFRC omit it).
  bool history_discounting = false;
  /// Cap the computed rate at 2x the reported receive rate (TFRC standard).
  bool receive_rate_cap = true;
  /// Throughput formula family: "sqrt" | "pftk" | "pftk-simplified".
  std::string formula = "pftk";
  double packet_bytes = 1000.0;
  double initial_rate_pps = 2.0;
  /// EWMA coefficient for the RTT estimate (RFC 3448 q = 0.9).
  double rtt_smoothing = 0.9;
  double min_rate_pps = 0.1;
};

class TfrcConnection {
 public:
  /// Flow-retirement notification for pooled (finite-transfer) use.
  using CompletionFn = sim::InlineFunction<void(), 24>;

  TfrcConnection(net::Dumbbell& net, int flow_id, double base_rtt_s, TfrcConfig cfg = {});

  // Registers this-capturing handlers and pinned events at construction;
  // the object must stay at its construction address.
  TfrcConnection(const TfrcConnection&) = delete;
  TfrcConnection& operator=(const TfrcConnection&) = delete;

  void start(double at);
  void stop();

  // --- pooled lifecycle (dynamic workloads) ----------------------------
  //
  // A pool slot constructs the connection ONCE (handlers and pinned events
  // are permanent) and then open()s it for each transfer it carries. open()
  // resets every piece of per-transfer protocol and estimator state —
  // sequencing, rate, smoothed RTT, the loss history — while the cumulative
  // measurement counters (sent/delivered, the loss-event recorder, RTT
  // moments) keep accumulating across incarnations for long-run statistics.
  // The pacing and feedback pinned chains are guarded, not cancelled: a
  // chain that is still armed from the previous incarnation is reused, never
  // doubled. The pool must quarantine a retired slot for a drain interval
  // before reopening it, so packets of the previous transfer cannot reach
  // the new one (see workload::FlowManager).

  /// (Re)opens the connection for a transfer of `transfer_packets` data
  /// packets (0 = unbounded stream); the first packet is paced out at the
  /// current simulated time. `on_complete` fires once, at the emission of
  /// the transfer's final packet — TFRC is an unreliable paced stream, so
  /// the source is done when it has paced everything out.
  void open(std::uint64_t transfer_packets, CompletionFn on_complete = {});

  /// Retires the flow: pacing and feedback chains die lazily, pending
  /// completion is dropped. Counters survive for post-run analysis.
  void close();

  /// True between open()/start() and close()/completion.
  [[nodiscard]] bool active() const noexcept { return snd_.running; }
  /// Transfers completed (completion fired) since construction.
  [[nodiscard]] std::uint64_t transfers_completed() const noexcept {
    return transfers_completed_;
  }

  // --- measurement -----------------------------------------------------
  [[nodiscard]] const stats::LossEventRecorder& recorder() const noexcept { return recorder_; }
  [[nodiscard]] std::uint64_t delivered() const noexcept { return delivered_; }
  [[nodiscard]] std::uint64_t sent() const noexcept { return sent_; }
  [[nodiscard]] double rate() const noexcept { return snd_.rate; }
  [[nodiscard]] double srtt() const noexcept { return snd_.srtt; }
  [[nodiscard]] const stats::OnlineMoments& rtt_stats() const noexcept { return rtt_stats_; }
  /// Queuing-delay telemetry (Sender concept): TFRC is loss-based and does
  /// not sense queuing delay, so it reports no samples.
  [[nodiscard]] double queuing_delay_sum_s() const noexcept { return 0.0; }
  [[nodiscard]] std::uint64_t queuing_delay_samples() const noexcept { return 0; }
  [[nodiscard]] const LossHistory& loss_history() const noexcept { return history_; }
  /// f(p, r) evaluated at this connection's current estimates (the paper's
  /// conservativeness reference).
  [[nodiscard]] double formula_rate() const;
  void reset_counters();

 private:
  // sender side
  void send_next();
  void on_feedback(const net::Packet& p);
  void finish_transfer();
  /// Rewinds per-transfer protocol/estimator state to the constructor's
  /// (cumulative counters and the recorder survive).
  void reset_transfer_state();
  // receiver side
  void on_data(const net::Packet& p);
  void feedback_tick();

  net::Dumbbell& net_;
  int flow_;
  double base_rtt_s_;
  TfrcConfig cfg_;
  // rtt = 1, q = 4: immutable and process-wide, shared by every connection
  // with the same formula (see model::unit_throughput_function).
  const model::ThroughputFunction* unit_formula_;

  // Pinned per-packet/per-RTT events (pacing and feedback fire constantly;
  // `snd_.running` gates them instead of cancellation).
  sim::Simulator::PinnedEvent send_ev_;
  sim::Simulator::PinnedEvent feedback_ev_;

  /// Per-transfer sender hot state: everything the per-packet pacing path
  /// (send_next / on_feedback) reads or writes, grouped into one
  /// trivially-copyable block so open()'s rewind is a plain store sweep and
  /// each flow's sender working set is a single cache line at pool scale.
  /// The chain guards (running / armed) live here but SURVIVE the rewind —
  /// see reset_transfer_state().
  struct SenderState {
    double rate = 0.0;
    double srtt = 0.0;
    std::int64_t next_seq = 0;
    std::uint64_t transfer_limit = 0;  // 0 = unbounded stream
    std::uint64_t transfer_sent = 0;   // packets emitted this incarnation
    bool running = false;
    bool pacing_armed = false;    // a pinned send_next is pending in the kernel
    bool feedback_armed = false;  // a pinned feedback_tick is pending
    bool have_rtt = false;
    bool saw_loss = false;
  };
  static_assert(sizeof(SenderState) == 48, "TFRC sender hot state outgrew its line budget");
  static_assert(std::is_trivially_copyable_v<SenderState>);

  /// Per-transfer receiver hot state (on_data / feedback_tick), same idiom.
  struct ReceiverState {
    std::int64_t expected_seq = 0;
    double rtt_hint = 0.0;
    double last_feedback_time = 0.0;
    double last_data_send_time = 0.0;
    std::uint64_t recv_since_feedback = 0;
    bool started = false;
  };
  static_assert(sizeof(ReceiverState) == 48, "TFRC receiver hot state outgrew its line budget");
  static_assert(std::is_trivially_copyable_v<ReceiverState>);

  SenderState snd_;
  ReceiverState rcv_;

  // pooled-lifecycle state (cumulative across incarnations)
  std::uint64_t transfers_completed_ = 0;
  CompletionFn done_;

  // cumulative counters and the receiver's loss-interval estimator
  std::uint64_t sent_ = 0;
  std::uint64_t delivered_ = 0;
  LossHistory history_;

  // measurement
  stats::LossEventRecorder recorder_;
  stats::OnlineMoments rtt_stats_;
  double next_rtt_sample_at_ = 0.0;
};

}  // namespace ebrc::tfrc
