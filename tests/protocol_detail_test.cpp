// Detail-level behavior of the protocol substrate: RED's averaging and drop
// spreading, TCP's timer/backoff machinery, and the TFRC feedback loop.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>

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

TEST(TcpDetail, StopCancelsTimers) {
  TcpWorld w(1e6, 4, 0.050);
  w.conn->start(0.0);
  w.sim.run_until(10.0);
  w.conn->stop();
  const auto executed = w.sim.events_executed();
  w.sim.run_until(100.0);
  // Only residual in-flight deliveries may fire; no sustained activity.
  EXPECT_LT(w.sim.events_executed() - executed, 500u);
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

}  // namespace
