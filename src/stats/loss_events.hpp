// Loss-event instrumentation shared by every sender in the testbed.
//
// Following TFRC (and the paper's measurement methodology), packet losses
// that occur within one round-trip time of the start of a loss event belong
// to that same event. The recorder turns a raw (packet-sent, packet-lost)
// stream into:
//   * the loss-event count and the loss-event rate p = events / packets,
//   * the loss-event intervals theta_n (packets between successive events),
//   * the inter-event times S_n (seconds), and
//   * the send rate X_n sampled at each event (when provided by the caller).
//
// Using one recorder type for TCP, TFRC, and probe senders removes the
// measurement asymmetry the paper had to bridge with tcpdump post-processing.
#pragma once

#include <cstdint>
#include <vector>

namespace ebrc::stats {

class LossEventRecorder {
 public:
  /// `rtt_window`: losses within this many seconds of the event start are
  /// merged into the event (use the connection's smoothed RTT).
  explicit LossEventRecorder(double rtt_window) : rtt_window_(rtt_window) {}

  /// Updates the merge window as the RTT estimate evolves.
  void set_rtt_window(double rtt_window) noexcept { rtt_window_ = rtt_window; }

  /// Counts one sent (or arrived — pick one convention per experiment) packet.
  void on_packet(double t) noexcept;

  /// Reports a detected loss at time `t`. Returns true when this loss opened
  /// a NEW loss event.
  bool on_loss(double t);

  /// Reports the sender's (new) send rate. Call it right after reacting to a
  /// loss event so the recorded X_n is the paper's "rate set at the nth
  /// loss-event"; calling it at other times keeps the current-rate shadow
  /// fresh for senders whose rate drifts between events.
  void note_rate(double rate) noexcept;

  [[nodiscard]] std::uint64_t packets() const noexcept { return packets_; }
  [[nodiscard]] std::uint64_t losses() const noexcept { return losses_; }
  [[nodiscard]] std::uint64_t events() const noexcept { return events_; }

  /// Loss-event rate p = events / packets (Eq. 1's empirical counterpart);
  /// 0 before any packet.
  [[nodiscard]] double loss_event_rate() const noexcept;

  /// Completed loss-event intervals theta_n in packets.
  [[nodiscard]] const std::vector<double>& intervals_packets() const noexcept {
    return theta_;
  }
  /// Completed inter-event durations S_n in seconds.
  [[nodiscard]] const std::vector<double>& intervals_seconds() const noexcept {
    return s_;
  }
  /// Send rate X_n at the start of interval n (parallel to intervals_*).
  [[nodiscard]] const std::vector<double>& rates_at_event() const noexcept { return x_; }

 private:
  double rtt_window_;
  std::uint64_t packets_ = 0;
  std::uint64_t losses_ = 0;
  std::uint64_t events_ = 0;
  std::uint64_t packets_since_event_ = 0;
  std::uint64_t packets_at_first_event_ = 0;
  double last_event_t_ = -1.0;
  bool have_event_ = false;
  bool awaiting_rate_ = false;
  double rate_at_interval_start_ = 0.0;
  double current_rate_ = 0.0;
  std::vector<double> theta_;
  std::vector<double> s_;
  std::vector<double> x_;
};

}  // namespace ebrc::stats
