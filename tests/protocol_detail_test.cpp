// Detail-level behavior of the protocol substrate: RED's averaging and drop
// spreading, TCP's timer/backoff machinery, and the TFRC feedback loop.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "net/dumbbell.hpp"
#include "net/queue.hpp"
#include "sim/simulator.hpp"
#include "tcp/tcp_connection.hpp"
#include "tfrc/tfrc_connection.hpp"

namespace {

using namespace ebrc;
using net::Packet;

TEST(RedDetail, EwmaTracksOccupancySlowly) {
  net::RedParams prm;
  prm.buffer_packets = 1000;
  prm.min_th = 400;  // keep drops out of the picture
  prm.max_th = 900;
  prm.weight = 0.002;
  net::Queue q = net::Queue::red(prm, 1);
  Packet p, out;
  // Fill 100 packets back-to-back: the EWMA must lag far behind.
  for (int i = 0; i < 100; ++i) ASSERT_TRUE(q.enqueue(p, i * 1e-4));
  EXPECT_EQ(q.packets(0.01), 100u);
  EXPECT_LT(q.average_queue(), 15.0);
  // Keep the instantaneous queue at 100 long enough and the average closes in.
  double t = 0.01;
  for (int i = 0; i < 3000; ++i) {
    ASSERT_TRUE(q.enqueue(p, t += 1e-4));
    (void)q.dequeue(out, t);
  }
  EXPECT_GT(q.average_queue(), 80.0);
}

TEST(RedDetail, IdlePeriodDecaysAverage) {
  net::RedParams prm;
  prm.buffer_packets = 200;
  prm.min_th = 150;
  prm.max_th = 190;
  prm.weight = 0.01;
  prm.mean_packet_time = 1e-3;
  net::Queue q = net::Queue::red(prm, 1);
  Packet p, out;
  double t = 0.0;
  for (int i = 0; i < 2000; ++i) {
    ASSERT_TRUE(q.enqueue(p, t += 1e-4));
    if (q.packets(t) > 60) (void)q.dequeue(out, t);
  }
  const double avg_busy = q.average_queue();
  ASSERT_GT(avg_busy, 30.0);
  // Drain completely, wait 2000 packet-times idle, then touch the queue.
  while (q.packets(t) > 0) (void)q.dequeue(out, t);
  ASSERT_TRUE(q.enqueue(p, t + 2.0));
  EXPECT_LT(q.average_queue(), 0.1 * avg_busy);
}

TEST(RedDetail, CountSpreadingShortensDropGaps) {
  // With the count mechanism, the gap between drops in the probabilistic
  // region is roughly uniform rather than geometric: its coefficient of
  // variation should be well below 1.
  net::RedParams prm;
  prm.buffer_packets = 4000;
  prm.min_th = 10;
  prm.max_th = 3000;
  prm.max_p = 0.05;
  prm.weight = 1.0;
  net::Queue q = net::Queue::red(prm, 42);
  Packet p, out;
  double t = 0.0;
  std::vector<int> gaps;
  int gap = 0;
  for (int i = 0; i < 200000; ++i) {
    t += 1e-5;
    if (q.enqueue(p, t)) {
      ++gap;
      if (q.packets(t) > 100) (void)q.dequeue(out, t);
    } else {
      gaps.push_back(gap);
      gap = 0;
    }
  }
  ASSERT_GT(gaps.size(), 200u);
  double mean = 0;
  for (int g : gaps) mean += g;
  mean /= static_cast<double>(gaps.size());
  double var = 0;
  for (int g : gaps) var += (g - mean) * (g - mean);
  var /= static_cast<double>(gaps.size() - 1);
  const double cv = std::sqrt(var) / mean;
  EXPECT_LT(cv, 0.75) << "drop gaps should be spread (uniform-ish), not geometric";
}

struct TcpWorld {
  sim::Simulator sim;
  std::unique_ptr<net::Dumbbell> net;
  std::unique_ptr<tcp::TcpConnection> conn;

  TcpWorld(double rate_bps, std::size_t buffer, double rtt_s) {
    net = std::make_unique<net::Dumbbell>(
        sim, net::Queue::drop_tail(buffer), rate_bps, 0.001);
    const int id = net->add_flow(rtt_s / 2.0 - 0.001, rtt_s / 2.0);
    conn = std::make_unique<tcp::TcpConnection>(*net, id, rtt_s);
  }
};

TEST(TcpDetail, SlowStartDoublesPerRtt) {
  TcpWorld w(100e6, 10000, 0.100);  // fat pipe: no losses for a while
  w.conn->start(0.0);
  w.sim.run_until(0.45);  // ~4 RTTs
  // cwnd starts at 2 and roughly doubles per RTT in slow start.
  EXPECT_GT(w.conn->cwnd(), 12.0);
  EXPECT_LT(w.conn->cwnd(), 80.0);
  EXPECT_EQ(w.conn->timeouts(), 0u);
}

TEST(TcpDetail, NoSpuriousTimeoutsOnCleanPath) {
  TcpWorld w(8e6, 4000, 0.050);
  w.conn->start(0.0);
  w.sim.run_until(30.0);
  EXPECT_EQ(w.conn->timeouts(), 0u);
  EXPECT_EQ(w.conn->fast_retransmits(), 0u);
  // Everything sent is either delivered or still in flight (<= cwnd): no
  // retransmissions were wasted.
  EXPECT_LE(static_cast<double>(w.conn->sent() - w.conn->delivered()),
            w.conn->cwnd() + 2.0);
}

TEST(TcpDetail, DelayedAckRatio) {
  TcpWorld w(8e6, 4000, 0.050);
  w.conn->start(0.0);
  w.sim.run_until(20.0);
  // With b = 2, roughly one ack per two packets: the receiver's deliveries
  // should be about twice the acks... measured indirectly: goodput high and
  // cwnd growth slower than per-packet-ack slow start would give.
  EXPECT_GT(w.conn->delivered(), 10000u);
}

TEST(TfrcDetail, FeedbackDrivesRateWithinTwoReceiveRates) {
  sim::Simulator sim;
  net::Dumbbell net(sim, net::Queue::drop_tail(60), 4e6, 0.001);
  const int id = net.add_flow(0.024, 0.025);
  tfrc::TfrcConnection conn(net, id, 0.050);
  conn.start(0.0);
  sim.run_until(60.0);
  // The standard cap: the send rate never exceeds twice what the receiver
  // reports, which on a 500 pkt/s link bounds it near 1000 pkt/s.
  EXPECT_LT(conn.target_rate().pps(), 1100.0);
  EXPECT_GT(conn.target_rate().pps(), 50.0);
}

TEST(TfrcDetail, HistoryDiscountingSpeedsRecovery) {
  tfrc::TfrcConfig plain_cfg, disc_cfg;
  plain_cfg.history_discounting = false;
  disc_cfg.history_discounting = true;

  const auto run = [](const tfrc::TfrcConfig& cfg) {
    sim::Simulator sim;
    net::Dumbbell net(sim, net::Queue::drop_tail(25), 2e6, 0.001);
    const int id = net.add_flow(0.024, 0.025);
    tfrc::TfrcConnection conn(net, id, 0.050, cfg);
    conn.start(0.0);
    sim.run_until(120.0);
    return conn.delivered();
  };
  const auto d_plain = run(plain_cfg);
  const auto d_disc = run(disc_cfg);
  // Discounting forgets stale loss history faster; it should never do much
  // worse, and typically does at least as well.
  EXPECT_GT(static_cast<double>(d_disc), 0.9 * static_cast<double>(d_plain));
}

// ---- the lazy feedback chain ------------------------------------------------
//
// A paced receiver reports once per RTT while data arrives; a tick that finds
// nothing to report parks the chain until something could change that. These
// cases pin down that parking saves the kernel's idle ticks and nothing else:
// every tick that does run lands on the time an always-ticking chain gives it.

/// A TFRC flow on a 4 Mb/s dumbbell whose data stops reaching the receiver
/// for a while: from kBlackoutAt an elephant packet on a second flow holds
/// the bottleneck for kBlackoutS, and the drop-tail queue behind it turns
/// away what the sender paces out meanwhile. The sender keeps running
/// throughout. Every executed kernel event is logged into an in-memory
/// ring, and pin ids tell the receiver's arrivals and the feedback ticks
/// apart.
struct BlackoutWorld {
  static constexpr double kRtt = 0.050;  // base RTT; the flow's srtt is about 0.1 s
  static constexpr double kRateBps = 4e6;
  static constexpr double kBlackoutAt = 10.0;
  static constexpr double kBlackoutS = 10.0;  // about 100 of the flow's RTTs
  static constexpr double kEnd = 25.0;
  static constexpr std::size_t kRingCapacity = std::size_t{1} << 18;

  sim::Simulator sim;
  net::Dumbbell net{sim, net::Queue::drop_tail(60), kRateBps, 0.001};
  int elephant_flow = net.add_flow(0.0, 0.0);  // no receiver: deliveries vanish
  sim::Simulator::PinnedEvent tail_pin = 0;      // the flow's receiver-side pipe
  sim::Simulator::PinnedEvent feedback_pin = 0;  // the connection's feedback_tick
  std::unique_ptr<tfrc::TfrcConnection> conn;
  std::vector<sim::KernelRing::Record> ring{kRingCapacity};
  std::uint64_t cursor = 0;
  bool elephant_admitted = false;

  BlackoutWorld() {
    // Pins are numbered in registration order: after this marker come the
    // flow's tail and reverse pipes, then the connection's send_next and
    // feedback_tick.
    const sim::Simulator::PinnedEvent marker = sim.pin([] {});
    const int id = net.add_flow(kRtt / 2.0 - 0.001, kRtt / 2.0);
    tfrc::TfrcConfig cfg;
    cfg.rtt_smoothing = 1.0;  // srtt is the first RTT sample for good: a known tick step
    conn = std::make_unique<tfrc::TfrcConnection>(net, id, kRtt, cfg);
    tail_pin = marker + 1;
    feedback_pin = marker + 4;
    sim.set_kernel_ring({ring.data(), static_cast<std::uint32_t>(kRingCapacity - 1), &cursor});
    sim.schedule_at(kBlackoutAt, [this] {
      const std::uint64_t drops = net.bottleneck().queue().drops();
      net::Packet elephant;
      elephant.size_bytes = kBlackoutS * kRateBps / 8.0;
      net.send_data(elephant_flow, elephant);
      elephant_admitted = net.bottleneck().queue().drops() == drops;
    });
  }

  /// Executed times of one pinned event, in order.
  [[nodiscard]] std::vector<double> times(sim::Simulator::PinnedEvent pin) const {
    EXPECT_LE(cursor, kRingCapacity) << "the ring wrapped";
    std::vector<double> out;
    for (std::uint64_t i = 0; i < cursor && i < kRingCapacity; ++i) {
      if (ring[i].slot == pin) out.push_back(ring[i].at);
    }
    return out;
  }

  /// The longest gap between consecutive arrivals: the blackout as the
  /// receiver saw it.
  [[nodiscard]] std::pair<double, double> idle_span() const {
    const std::vector<double> arrivals = times(tail_pin);
    std::pair<double, double> span{0.0, 0.0};
    for (std::size_t i = 1; i < arrivals.size(); ++i) {
      if (arrivals[i] - arrivals[i - 1] > span.second - span.first) {
        span = {arrivals[i - 1], arrivals[i]};
      }
    }
    return span;
  }
};

/// The first element of `ts` after `t`; -1 if none.
double first_after(const std::vector<double>& ts, double t) {
  for (const double x : ts) {
    if (x > t) return x;
  }
  return -1.0;
}

/// The first point of the grid `from`, `from` + step, ... after `t`, stepped
/// by repeated addition as an always-ticking chain does.
double grid_after(double from, double step, double t) {
  while (from <= t) from += step;
  return from;
}

TEST(PacedFeedbackChain, IdleReceiverCostsNoTicks) {
  BlackoutWorld w;
  w.conn->start(0.0);
  w.sim.run_until(BlackoutWorld::kEnd);
  ASSERT_TRUE(w.elephant_admitted);
  const auto [last, resumed] = w.idle_span();
  ASSERT_GT(resumed - last, BlackoutWorld::kBlackoutS);

  const std::vector<double> ticks = w.times(w.feedback_pin);
  // While data flows, the chain ticks once per step (which also checks that
  // the pin ids above name the right events).
  const double step = std::max(1e-3, w.conn->srtt());
  const auto busy = std::count_if(ticks.begin(), ticks.end(),
                                  [](double t) { return t >= 5.0 && t < 10.0; });
  EXPECT_NEAR(static_cast<double>(busy), 5.0 / step, 1.0);
  // Over the idle span: the tick that reports the last arrivals, then the
  // one that finds nothing and parks. An always-ticking chain runs one per
  // step, about 100 here.
  const auto idle = std::count_if(ticks.begin(), ticks.end(),
                                  [&](double t) { return t > last && t < resumed; });
  EXPECT_LE(idle, 2) << "an idle feedback chain must park, not tick every RTT";
}

TEST(PacedFeedbackChain, FirstReportAfterIdleStaysOnTheTickGrid) {
  BlackoutWorld w;
  w.conn->start(0.0);
  w.sim.run_until(BlackoutWorld::kEnd);
  ASSERT_TRUE(w.elephant_admitted);
  const auto [last, resumed] = w.idle_span();
  const std::vector<double> ticks = w.times(w.feedback_pin);
  // The tick that reported the last arrival before the blackout, then the
  // grid it starts: about 100 additions of the same step.
  const double reported = first_after(ticks, last);
  ASSERT_GT(reported, 0.0);
  const double step = std::max(1e-3, w.conn->srtt());
  EXPECT_EQ(first_after(ticks, resumed), grid_after(reported, step, resumed));
}

TEST(PacedFeedbackChain, FinishWhileParkedThenReopenReusesOrKillsTheChain) {
  constexpr double kRtt = BlackoutWorld::kRtt;
  constexpr double kFinishBy = BlackoutWorld::kBlackoutAt + 3.0;  // well inside the idle span
  // The transfer size whose last packet leaves by kFinishBy: an unbounded
  // transfer follows the same sample path up to that packet.
  std::uint64_t transfer = 0;
  {
    BlackoutWorld w;
    w.conn->open(0);
    w.sim.run_until(kFinishBy);
    transfer = w.conn->sent();
  }
  for (const bool reuse : {true, false}) {
    SCOPED_TRACE(reuse ? "reopen before the next tick" : "reopen after it");
    BlackoutWorld w;
    // finish_transfer retires the flow at its last emission, with the
    // feedback chain parked. The chain's next tick after that finds the flow
    // retired and ends the chain, unless the flow is open again by then.
    struct {
      double at = 0.0;         // the last emission
      double step = 0.0;       // the tick step until then
      double next_tick = 0.0;  // the parked chain's next tick after it
      double reopen_at = 0.0;
    } finish;
    w.conn->open(transfer, [&w, &finish, reuse] {
      finish.at = w.sim.now();
      finish.step = std::max(1e-3, w.conn->srtt());
      const double last_arrival = w.times(w.tail_pin).back();
      const double reported = first_after(w.times(w.feedback_pin), last_arrival);
      ASSERT_GT(reported, 0.0);
      finish.next_tick = grid_after(reported, finish.step, finish.at);
      finish.reopen_at =
          reuse ? (finish.at + finish.next_tick) / 2.0 : finish.next_tick + finish.step / 2.0;
      w.sim.schedule_at(finish.reopen_at, [&w] { w.conn->open(0); });
    });
    w.sim.run_until(BlackoutWorld::kEnd);
    ASSERT_TRUE(w.elephant_admitted);
    ASSERT_GT(finish.at, BlackoutWorld::kBlackoutAt);
    EXPECT_EQ(w.conn->transfers_completed(), 1u);

    const std::vector<double> ticks = w.times(w.feedback_pin);
    const auto [last, resumed] = w.idle_span();
    ASSERT_LT(last, finish.at);
    ASSERT_GT(resumed, finish.reopen_at);
    EXPECT_EQ(first_after(ticks, finish.at), finish.next_tick);
    if (reuse) {
      // The reused chain ticks on from next_tick, on the reopened
      // transfer's rtt_hint (the base RTT) until data arrives.
      EXPECT_EQ(first_after(ticks, resumed), grid_after(finish.next_tick, kRtt, resumed));
    } else {
      // The chain died at next_tick; the first arrival starts a fresh one,
      // one rtt_hint later. The first packets through were paced out before
      // the transfer finished, so they carry the old srtt.
      EXPECT_EQ(first_after(ticks, finish.next_tick), resumed + finish.step);
    }
    // One chain, never two: ticks stay at least a base RTT apart.
    for (std::size_t i = 1; i < ticks.size(); ++i) {
      if (ticks[i] > finish.reopen_at) {
        EXPECT_GE(ticks[i] - ticks[i - 1], kRtt) << "ticks at " << ticks[i - 1] << ", " << ticks[i];
      }
    }
  }
}

}  // namespace
