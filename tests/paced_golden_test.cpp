// Per-controller goldens for the paced transports.
//
// Each cell drives one controller on a seeded dumbbell for a fixed span and
// folds a 10 ms sample of every connection's observable state — sent,
// delivered, loss events, smoothed RTT, pacing rate and queuing-delay
// telemetry — into one FNV-1a digest, the state digest; the counted digest
// continues it with the kernel's executed-event count. A second set pins
// encode_result() of a full run_experiment() churn cell per controller (and
// one static ns-2 cell), so the pool, the epoch sweeps and the codec are
// covered too: once with the `kernel_*` obs masked, once in full.
//
// TCP is the control: it shares no transport code with the paced
// controllers, so a change to the paced skeleton that moves the TCP digest
// moved something outside it (the kernel or the network).
//
// The runs were first pinned before the paced connections were folded into
// one skeleton; the state and masked constants digest those same runs
// without the kernel's counts. The AIMD cell was pinned when that law joined
// the skeleton. A mismatch in one of them means a
// controller's behaviour changed: that is a regression of every seeded
// result in the repository, not a test to update. The counted and full
// constants also pin how many events the kernel executed, so a change that
// executes more or fewer events for the same sample paths (an idle feedback
// chain that parks instead of ticking, a withdrawn timer that now runs as a
// no-op) moves them and only them; they are
// re-recorded with such a change, and its CHANGES.md entry lists the old
// and new counts.
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
#include "tcp/aimd_connection.hpp"
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

/// Two digests of one cell: `state` folds only the connections' observable
/// state, `counted` also the kernel's executed-event count.
struct CellDigests {
  std::uint64_t state;
  std::uint64_t counted;
};

/// `pooled` drives flows 1.. through open() cycles; flow 0 is always a
/// continuous start() source so both lifecycles are pinned.
template <typename Conn, typename Cfg>
CellDigests run_cell(bool pooled, const Cfg& cfg, bool rcp_router) {
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
  const std::uint64_t state = h.digest();
  h.u64(sim.events_executed());
  return {state, h.digest()};
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

#define EXPECT_CELL(cell, state_golden, counted_golden) \
  do {                                                   \
    const CellDigests d = (cell);                        \
    EXPECT_DIGEST(d.state, state_golden);                \
    EXPECT_DIGEST(d.counted, counted_golden);            \
  } while (0)

TEST(PacedGolden, TfrcStatic) {
  EXPECT_CELL(run_cell<tfrc::TfrcConnection>(false, tfrc::TfrcConfig{}, false),
              0x19a46602a0bcb1cfull, 0x664c5b15e9476876ull);
}

TEST(PacedGolden, TfrcPooled) {
  tfrc::TfrcConfig cfg;
  cfg.comprehensive = false;  // the lab TFRC, as the pooled churn cells use it
  EXPECT_CELL(run_cell<tfrc::TfrcConnection>(true, cfg, false), 0x4b803db413537c85ull,
              0xb22890554444a7fbull);
}

TEST(PacedGolden, DelayAimd) {
  EXPECT_CELL(
      run_cell<delay_aimd::DelayAimdConnection>(true, delay_aimd::DelayAimdConfig{}, false),
      0x6429faf8c311dec2ull, 0xd5c0aa3876e9cf30ull);
}

TEST(PacedGolden, Rcp) {
  EXPECT_CELL(run_cell<rcp::RcpConnection>(true, rcp::RcpConfig{}, true), 0x1fe1bd7c76da519full,
              0xac76c8ae4367b259ull);
}

TEST(PacedGolden, Aimd) {
  EXPECT_CELL(run_cell<tcp::AimdConnection>(true, tcp::AimdConfig{}, false), 0x109cfaa243e3a450ull,
              0x8d4d6baa8542fba8ull);
}

TEST(PacedGolden, TcpControl) {
  EXPECT_CELL(run_cell<tcp::TcpConnection>(true, tcp::TcpConfig{}, false), 0x4402db6c2f30c0d0ull,
              0x95e49c9104a1229dull);
}

// ---- whole cells through run_experiment + the result codec ------------------

/// `masked` digests encode_result() with every `kernel_*` obs value zeroed
/// (the names stay): the kernel's own event and pop counts are the only
/// fields it leaves out. `full` digests the result as encoded.
struct ResultDigests {
  std::uint64_t masked;
  std::uint64_t full;
};

ResultDigests result_digests(const testbed::Scenario& s) {
  testbed::ExperimentResult r = testbed::run_experiment(s);
  util::Fnv1a full;
  full.str(testbed::encode_result(r));
  for (auto& [name, value] : r.obs) {
    if (name.rfind("kernel_", 0) == 0) value = 0.0;
  }
  util::Fnv1a masked;
  masked.str(testbed::encode_result(r));
  return {masked.digest(), full.digest()};
}

#define EXPECT_RESULT(scenario, masked_golden, full_golden) \
  do {                                                      \
    const ResultDigests d = result_digests(scenario);       \
    EXPECT_DIGEST(d.masked, masked_golden);                 \
    EXPECT_DIGEST(d.full, full_golden);                     \
  } while (0)

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
  EXPECT_RESULT(churn_cell("tfrc"), 0xb24f7178c99e4925ull, 0xe3f2c80d0b55f54bull);
  EXPECT_RESULT(churn_cell("delay_aimd"), 0xdcafba1d8398bc93ull, 0xd94cde3a11fbaf2aull);
  EXPECT_RESULT(churn_cell("rcp"), 0x5e89f655153c4615ull, 0xbffbf2fd2ff506b3ull);
  EXPECT_RESULT(churn_cell("tcp"), 0x7bf3b8e7a17c937dull, 0x042cb9af6bd205e3ull);
}

TEST(PacedGolden, StaticNs2Cell) {
  auto s = testbed::ns2_scenario(/*n_tfrc=*/4, /*n_tcp=*/4, /*history_length=*/8, /*seed=*/5);
  s.duration_s = 20.0;
  s.warmup_s = 4.0;
  EXPECT_RESULT(s, 0x68786268e7c881b3ull, 0x82da30f355c59313ull);
}

}  // namespace
