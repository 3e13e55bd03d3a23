// Per-controller goldens for the paced transports.
//
// Each cell drives one controller on a seeded dumbbell for a fixed span and
// folds a 10 ms sample of every connection's observable state — sent,
// delivered, loss events, smoothed RTT, pacing rate and queuing-delay
// telemetry — plus the kernel's executed-event count into one FNV-1a digest.
// A second set pins encode_result() of a full run_experiment() churn cell per
// controller (and one static ns-2 cell), so the pool, the epoch sweeps and
// the codec are covered too.
//
// TCP is the control: it shares no transport code with the paced
// controllers, so a change to the paced skeleton that moves the TCP digest
// moved something outside it (the kernel or the network).
//
// The constants were recorded before the paced connections were folded into
// one skeleton. A mismatch means a controller's behaviour changed: that is a
// regression of every seeded result in the repository, not a test to update.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <deque>
#include <string>

#include "delay_aimd/delay_aimd_connection.hpp"
#include "net/dumbbell.hpp"
#include "net/queue.hpp"
#include "rcp/rcp_connection.hpp"
#include "sim/simulator.hpp"
#include "tcp/tcp_connection.hpp"
#include "testbed/experiment.hpp"
#include "testbed/result_store.hpp"
#include "testbed/scenario.hpp"
#include "tfrc/tfrc_connection.hpp"
#include "util/binary_io.hpp"

namespace {

using namespace ebrc;

constexpr int kFlows = 6;
constexpr double kSpanS = 20.0;
constexpr double kSampleS = 0.010;
constexpr std::uint64_t kTransferPackets = 300;
constexpr double kReopenGapS = 0.5;

template <typename Law>
double rate_of(const net::PacedConnection<Law>& c) {
  return c.target_rate().pps();
}
double rate_of(const tcp::TcpConnection& c) { return c.cwnd(); }

/// Opens a finite transfer and, at each completion, reopens the connection
/// after a quarantine gap — the pooled lifecycle without the pool.
template <typename Conn>
void open_cycle(sim::Simulator& sim, Conn& c) {
  c.open(kTransferPackets,
         [&sim, &c] { sim.schedule(kReopenGapS, [&sim, &c] { open_cycle(sim, c); }); });
}

/// `pooled` drives flows 1.. through open() cycles; flow 0 is always a
/// continuous start() source so both lifecycles are pinned.
template <typename Conn, typename Cfg>
std::uint64_t run_cell(bool pooled, const Cfg& cfg, bool rcp_router) {
  sim::Simulator sim;
  net::Dumbbell net(sim, net::Queue::drop_tail(40), 10e6, 0.001);
  if (rcp_router) {
    net::RcpParams rp;
    rp.d0_s = 0.050;
    net.bottleneck().enable_rcp(rp);
  }
  std::deque<Conn> conns;
  for (int i = 0; i < kFlows; ++i) {
    const double rtt = 0.040 + 0.004 * i;
    const int id = net.add_flow(rtt / 2.0 - 0.001, rtt / 2.0);
    Conn& c = conns.emplace_back(net, id, rtt, cfg);
    if (pooled && i > 0) {
      sim.schedule(0.05 * i, [&sim, &c] { open_cycle(sim, c); });
    } else {
      c.start(0.03 * i);
    }
  }
  util::Fnv1a h;
  const auto steps = static_cast<int>(kSpanS / kSampleS);
  for (int k = 1; k <= steps; ++k) {
    sim.run_until(k * kSampleS);
    for (const Conn& c : conns) {
      h.u64(c.sent());
      h.u64(c.delivered());
      h.u64(c.recorder().events());
      h.f64(c.srtt());
      h.f64(rate_of(c));
      h.f64(c.queuing_delay_sum_s());
      h.u64(c.queuing_delay_samples());
    }
  }
  h.u64(sim.events_executed());
  return h.digest();
}

std::string hex(std::uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof buf, "0x%016llx", static_cast<unsigned long long>(v));
  return buf;
}

#define EXPECT_DIGEST(actual, expected)                                    \
  do {                                                                     \
    const std::uint64_t digest = (actual);                                 \
    EXPECT_EQ(digest, expected) << "digest " << hex(digest) << ", golden " \
                                << hex(expected);                          \
  } while (0)

TEST(PacedGolden, TfrcStatic) {
  EXPECT_DIGEST(run_cell<tfrc::TfrcConnection>(false, tfrc::TfrcConfig{}, false),
                0xdc2525017dadb926ull);
}

TEST(PacedGolden, TfrcPooled) {
  tfrc::TfrcConfig cfg;
  cfg.comprehensive = false;  // the lab TFRC, as the pooled churn cells use it
  EXPECT_DIGEST(run_cell<tfrc::TfrcConnection>(true, cfg, false), 0x31f4cb5bb6bce8e4ull);
}

TEST(PacedGolden, DelayAimd) {
  EXPECT_DIGEST(
      run_cell<delay_aimd::DelayAimdConnection>(true, delay_aimd::DelayAimdConfig{}, false),
      0xdfccb681f9408e4aull);
}

TEST(PacedGolden, Rcp) {
  EXPECT_DIGEST(run_cell<rcp::RcpConnection>(true, rcp::RcpConfig{}, true),
                0x24a40f55ad0ccfdaull);
}

TEST(PacedGolden, TcpControl) {
  EXPECT_DIGEST(run_cell<tcp::TcpConnection>(true, tcp::TcpConfig{}, false),
                0xd0e373ecb0de55b8ull);
}

// ---- whole cells through run_experiment + the result codec ------------------

std::uint64_t result_digest(const testbed::Scenario& s) {
  util::Fnv1a h;
  h.str(testbed::encode_result(testbed::run_experiment(s)));
  return h.digest();
}

testbed::Scenario churn_cell(const std::string& controller) {
  auto s = testbed::churn_scenario(/*offered_load=*/0.9, /*tfrc_fraction=*/0.5, /*seed=*/7);
  s.name = "paced-golden-" + controller;
  s.workload.controller = controller;
  s.workload.max_concurrent = 48;
  s.duration_s = 20.0;
  s.warmup_s = 4.0;
  return s;
}

TEST(PacedGolden, ChurnCellPerController) {
  EXPECT_DIGEST(result_digest(churn_cell("tfrc")), 0x7e9b3043e189d76eull);
  EXPECT_DIGEST(result_digest(churn_cell("delay_aimd")), 0x1872e985897c2b18ull);
  EXPECT_DIGEST(result_digest(churn_cell("rcp")), 0x30778cbdd8b9a003ull);
  EXPECT_DIGEST(result_digest(churn_cell("tcp")), 0xb84f1d84b5d95dfeull);
}

TEST(PacedGolden, StaticNs2Cell) {
  auto s = testbed::ns2_scenario(/*n_tfrc=*/4, /*n_tcp=*/4, /*history_length=*/8, /*seed=*/5);
  s.duration_s = 20.0;
  s.warmup_s = 4.0;
  EXPECT_DIGEST(result_digest(s), 0x5c1cf8085bf5b697ull);
}

}  // namespace
