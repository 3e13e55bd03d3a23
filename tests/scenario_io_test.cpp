// Property suite for the scenario serialization layer: Scenario → TOML/JSON
// → Scenario is lossless (every field bit-identical) and fingerprint-stable
// across randomized field values, the fingerprint reacts to every field
// except the seed, and malformed documents fail loudly. The generator is
// splitmix-driven (same style as estimator_property_test.cpp) so the test
// cannot drift when the library's Rng engine changes.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include "testbed/scenario.hpp"
#include "testbed/scenario_io.hpp"

namespace {

using ebrc::testbed::Scenario;

struct Splitmix {
  std::uint64_t x;
  std::uint64_t next() {
    std::uint64_t z = (x += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  int range(int lo, int hi) {  // inclusive
    return lo + static_cast<int>(next() % static_cast<std::uint64_t>(hi - lo + 1));
  }
};

/// Finite doubles across many magnitudes, signs, and "round number" special
/// cases (integral values, zero, negative zero) — the values most likely to
/// expose formatting shortcuts.
double random_double(Splitmix& g) {
  switch (g.range(0, 9)) {
    case 0: return 0.0;
    case 1: return -0.0;
    case 2: return static_cast<double>(g.range(-1000, 1000));  // integral
    default: {
      const double mantissa = g.uniform() * 2.0 - 1.0;
      const int exponent = g.range(-12, 12);
      double v = mantissa;
      for (int i = 0; i < exponent; ++i) v *= 10.0;
      for (int i = 0; i > exponent; --i) v /= 10.0;
      return v;
    }
  }
}

/// Strings exercising quoting, escapes, TOML-significant punctuation, and
/// non-ASCII bytes.
std::string random_string(Splitmix& g) {
  static const char alphabet[] =
      "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789 _-#=[]\"\\\n\t\r";
  static const char* utf8_extras[] = {"\xc3\xa9", "\xe2\x82\xac"};  // é, €
  std::string s;
  const int len = g.range(0, 24);
  for (int i = 0; i < len; ++i) {
    if (g.range(0, 15) == 0) {
      s += utf8_extras[g.range(0, 1)];
    } else {
      s += alphabet[g.range(0, static_cast<int>(sizeof(alphabet)) - 2)];
    }
  }
  return s;
}

Scenario random_scenario(Splitmix& g) {
  Scenario s;
  s.name = random_string(g);
  s.bottleneck_bps = random_double(g);
  s.base_rtt_s = random_double(g);
  s.queue = g.range(0, 1) == 0 ? ebrc::testbed::QueueKind::kDropTail
                               : ebrc::testbed::QueueKind::kRed;
  s.droptail_buffer = static_cast<std::size_t>(g.next() >> 32);
  s.n_tfrc = g.range(-5, 1000);
  s.n_tcp = g.range(-5, 1000);
  s.n_poisson = g.range(0, 64);
  s.poisson_rate_pps = random_double(g);
  s.n_onoff = g.range(0, 64);
  s.onoff_peak_pps = random_double(g);
  s.onoff_mean_on_s = random_double(g);
  s.onoff_mean_off_s = random_double(g);
  s.duration_s = random_double(g);
  s.warmup_s = random_double(g);
  s.seed = g.next();  // full 64-bit range
  s.rtt_spread = random_double(g);
  if (g.range(0, 1) == 0) {
    ebrc::net::RedParams red;
    red.buffer_packets = static_cast<std::size_t>(g.next() >> 40);
    red.min_th = random_double(g);
    red.max_th = random_double(g);
    red.max_p = random_double(g);
    red.weight = random_double(g);
    red.gentle = g.range(0, 1) == 1;
    red.mean_packet_time = random_double(g);
    s.red = red;
  } else {
    s.red.reset();
  }
  s.tfrc.history_length = static_cast<std::size_t>(g.range(0, 64));
  s.tfrc.comprehensive = g.range(0, 1) == 1;
  s.tfrc.history_discounting = g.range(0, 1) == 1;
  s.tfrc.receive_rate_cap = g.range(0, 1) == 1;
  s.tfrc.formula = random_string(g);
  s.tfrc.packet_bytes = random_double(g);
  s.tfrc.initial_rate_pps = random_double(g);
  s.tfrc.rtt_smoothing = random_double(g);
  s.tfrc.min_rate_pps = random_double(g);
  s.tcp.packet_bytes = random_double(g);
  s.tcp.initial_cwnd = random_double(g);
  s.tcp.initial_ssthresh = random_double(g);
  s.tcp.dupack_threshold = g.range(-3, 100);
  s.tcp.ack_every = g.range(0, 16);
  s.tcp.delayed_ack_timeout = random_double(g);
  s.tcp.min_rto = random_double(g);
  s.tcp.max_rto = random_double(g);
  s.tcp.max_cwnd = random_double(g);
  if (g.range(0, 1) == 0) {
    // Workload block engaged: randomize every field. (A randomized config
    // colliding with the default — which would elide the block — has
    // negligible probability; the other half of the draws covers the
    // default-elided path explicitly.)
    s.workload.arrival_rate_per_s = random_double(g);
    s.workload.interarrival = random_string(g);
    s.workload.interarrival_shape = random_double(g);
    s.workload.size_dist = random_string(g);
    s.workload.mean_size_pkts = random_double(g);
    s.workload.pareto_shape = random_double(g);
    s.workload.max_size_pkts = random_double(g);
    s.workload.min_size_pkts = random_double(g);
    s.workload.tfrc_fraction = random_double(g);
    switch (g.range(0, 5)) {  // zoo names, the default, and arbitrary text
      case 0: s.workload.controller = "tfrc"; break;
      case 1: s.workload.controller = "tcp"; break;
      case 2: s.workload.controller = "delay_aimd"; break;
      case 3: s.workload.controller = "rcp"; break;
      case 4: s.workload.controller = ""; break;
      default: s.workload.controller = random_string(g); break;
    }
    s.workload.max_concurrent = g.range(1, 4096);
    s.workload.session_fraction = random_double(g);
    s.workload.session_transfers_mean = random_double(g);
    s.workload.session_think_s = random_double(g);
  }
  return s;
}

/// Bitwise double equality: -0.0 != 0.0 here, NaN == NaN. Serialization must
/// preserve the exact pattern, not just operator== equivalence.
void expect_bits(double a, double b, const char* what) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a), std::bit_cast<std::uint64_t>(b)) << what;
}

void expect_identical(const Scenario& a, const Scenario& b) {
  EXPECT_EQ(a.name, b.name);
  expect_bits(a.bottleneck_bps, b.bottleneck_bps, "bottleneck_bps");
  expect_bits(a.base_rtt_s, b.base_rtt_s, "base_rtt_s");
  EXPECT_EQ(a.queue, b.queue);
  EXPECT_EQ(a.droptail_buffer, b.droptail_buffer);
  EXPECT_EQ(a.n_tfrc, b.n_tfrc);
  EXPECT_EQ(a.n_tcp, b.n_tcp);
  EXPECT_EQ(a.n_poisson, b.n_poisson);
  expect_bits(a.poisson_rate_pps, b.poisson_rate_pps, "poisson_rate_pps");
  EXPECT_EQ(a.n_onoff, b.n_onoff);
  expect_bits(a.onoff_peak_pps, b.onoff_peak_pps, "onoff_peak_pps");
  expect_bits(a.onoff_mean_on_s, b.onoff_mean_on_s, "onoff_mean_on_s");
  expect_bits(a.onoff_mean_off_s, b.onoff_mean_off_s, "onoff_mean_off_s");
  expect_bits(a.duration_s, b.duration_s, "duration_s");
  expect_bits(a.warmup_s, b.warmup_s, "warmup_s");
  EXPECT_EQ(a.seed, b.seed);
  expect_bits(a.rtt_spread, b.rtt_spread, "rtt_spread");
  ASSERT_EQ(a.red.has_value(), b.red.has_value());
  if (a.red) {
    EXPECT_EQ(a.red->buffer_packets, b.red->buffer_packets);
    expect_bits(a.red->min_th, b.red->min_th, "red.min_th");
    expect_bits(a.red->max_th, b.red->max_th, "red.max_th");
    expect_bits(a.red->max_p, b.red->max_p, "red.max_p");
    expect_bits(a.red->weight, b.red->weight, "red.weight");
    EXPECT_EQ(a.red->gentle, b.red->gentle);
    expect_bits(a.red->mean_packet_time, b.red->mean_packet_time, "red.mean_packet_time");
  }
  EXPECT_EQ(a.tfrc.history_length, b.tfrc.history_length);
  EXPECT_EQ(a.tfrc.comprehensive, b.tfrc.comprehensive);
  EXPECT_EQ(a.tfrc.history_discounting, b.tfrc.history_discounting);
  EXPECT_EQ(a.tfrc.receive_rate_cap, b.tfrc.receive_rate_cap);
  EXPECT_EQ(a.tfrc.formula, b.tfrc.formula);
  expect_bits(a.tfrc.packet_bytes, b.tfrc.packet_bytes, "tfrc.packet_bytes");
  expect_bits(a.tfrc.initial_rate_pps, b.tfrc.initial_rate_pps, "tfrc.initial_rate_pps");
  expect_bits(a.tfrc.rtt_smoothing, b.tfrc.rtt_smoothing, "tfrc.rtt_smoothing");
  expect_bits(a.tfrc.min_rate_pps, b.tfrc.min_rate_pps, "tfrc.min_rate_pps");
  expect_bits(a.tcp.packet_bytes, b.tcp.packet_bytes, "tcp.packet_bytes");
  expect_bits(a.tcp.initial_cwnd, b.tcp.initial_cwnd, "tcp.initial_cwnd");
  expect_bits(a.tcp.initial_ssthresh, b.tcp.initial_ssthresh, "tcp.initial_ssthresh");
  EXPECT_EQ(a.tcp.dupack_threshold, b.tcp.dupack_threshold);
  EXPECT_EQ(a.tcp.ack_every, b.tcp.ack_every);
  expect_bits(a.tcp.delayed_ack_timeout, b.tcp.delayed_ack_timeout, "tcp.delayed_ack_timeout");
  expect_bits(a.tcp.min_rto, b.tcp.min_rto, "tcp.min_rto");
  expect_bits(a.tcp.max_rto, b.tcp.max_rto, "tcp.max_rto");
  expect_bits(a.tcp.max_cwnd, b.tcp.max_cwnd, "tcp.max_cwnd");
  expect_bits(a.workload.arrival_rate_per_s, b.workload.arrival_rate_per_s,
              "workload.arrival_rate_per_s");
  EXPECT_EQ(a.workload.interarrival, b.workload.interarrival);
  expect_bits(a.workload.interarrival_shape, b.workload.interarrival_shape,
              "workload.interarrival_shape");
  EXPECT_EQ(a.workload.size_dist, b.workload.size_dist);
  expect_bits(a.workload.mean_size_pkts, b.workload.mean_size_pkts, "workload.mean_size_pkts");
  expect_bits(a.workload.pareto_shape, b.workload.pareto_shape, "workload.pareto_shape");
  expect_bits(a.workload.max_size_pkts, b.workload.max_size_pkts, "workload.max_size_pkts");
  expect_bits(a.workload.min_size_pkts, b.workload.min_size_pkts, "workload.min_size_pkts");
  expect_bits(a.workload.tfrc_fraction, b.workload.tfrc_fraction, "workload.tfrc_fraction");
  EXPECT_EQ(a.workload.controller, b.workload.controller);
  EXPECT_EQ(a.workload.max_concurrent, b.workload.max_concurrent);
  expect_bits(a.workload.session_fraction, b.workload.session_fraction,
              "workload.session_fraction");
  expect_bits(a.workload.session_transfers_mean, b.workload.session_transfers_mean,
              "workload.session_transfers_mean");
  expect_bits(a.workload.session_think_s, b.workload.session_think_s,
              "workload.session_think_s");
}

// Layout tripwire: if one of these sizes changes, a field was added to (or
// removed from) the serialized structs — update visit_scenario in
// scenario_io.cpp, the generator/comparator in THIS file, and then the
// expected sizes. The fingerprint covers the new field on its own; bump
// testbed::kBehaviorVersion only if the change also shifts the sample paths
// of existing scenarios. (Result fields need no tripwire: the result schema
// is hashed into kResultCacheSalt from visit_result.) The constants are
// libstdc++/LP64 layout (what CI builds); other ABIs skip rather than chase
// a schema change that never happened.
TEST(ScenarioIo, SerializedStructLayoutsUnchanged) {
#if defined(__GLIBCXX__) && defined(__x86_64__)
  EXPECT_EQ(sizeof(ebrc::testbed::Scenario), 544u);
  EXPECT_EQ(sizeof(ebrc::net::RedParams), 56u);
  EXPECT_EQ(sizeof(ebrc::tfrc::TfrcConfig), 80u);
  EXPECT_EQ(sizeof(ebrc::tcp::TcpConfig), 64u);
  EXPECT_EQ(sizeof(ebrc::workload::WorkloadConfig), 184u);
#else
  GTEST_SKIP() << "layout constants recorded for libstdc++ on x86-64";
#endif
}

TEST(ScenarioIo, TomlRoundTripIsLosslessAndFingerprintStable) {
  Splitmix g{2002};
  for (int i = 0; i < 200; ++i) {
    const Scenario s = random_scenario(g);
    const Scenario back = ebrc::testbed::scenario_from_toml(ebrc::testbed::scenario_to_toml(s));
    expect_identical(s, back);
    EXPECT_EQ(ebrc::testbed::fingerprint(s), ebrc::testbed::fingerprint(back));
  }
}

TEST(ScenarioIo, JsonRoundTripIsLosslessAndFingerprintStable) {
  Splitmix g{77};
  for (int i = 0; i < 200; ++i) {
    const Scenario s = random_scenario(g);
    const Scenario back = ebrc::testbed::scenario_from_json(ebrc::testbed::scenario_to_json(s));
    expect_identical(s, back);
    EXPECT_EQ(ebrc::testbed::fingerprint(s), ebrc::testbed::fingerprint(back));
  }
}

TEST(ScenarioIo, CrossFormatAgreement) {
  // TOML and JSON must describe the same scenario: through either format the
  // parse lands on the identical Scenario and fingerprint.
  Splitmix g{31337};
  for (int i = 0; i < 50; ++i) {
    const Scenario s = random_scenario(g);
    const Scenario via_toml =
        ebrc::testbed::scenario_from_toml(ebrc::testbed::scenario_to_toml(s));
    const Scenario via_json =
        ebrc::testbed::scenario_from_json(ebrc::testbed::scenario_to_json(s));
    expect_identical(via_toml, via_json);
  }
}

TEST(ScenarioIo, FingerprintIgnoresSeedOnly) {
  Splitmix g{5};
  Scenario s = random_scenario(g);
  const std::uint64_t fp = ebrc::testbed::fingerprint(s);
  s.seed ^= 0xDEADBEEFull;
  EXPECT_EQ(ebrc::testbed::fingerprint(s), fp);
}

TEST(ScenarioIo, FingerprintReactsToEveryField) {
  // One mutator per serialized field; each must move the fingerprint. A
  // mutator that does NOT move it means the field fell out of the visitor —
  // its cache entries would survive a change they must invalidate.
  using Mutator = std::function<void(Scenario&)>;
  const std::vector<std::pair<const char*, Mutator>> mutators = {
      {"name", [](Scenario& s) { s.name += "x"; }},
      {"bottleneck_bps", [](Scenario& s) { s.bottleneck_bps += 1.0; }},
      {"base_rtt_s", [](Scenario& s) { s.base_rtt_s += 0.001; }},
      {"queue",
       [](Scenario& s) {
         s.queue = s.queue == ebrc::testbed::QueueKind::kRed
                       ? ebrc::testbed::QueueKind::kDropTail
                       : ebrc::testbed::QueueKind::kRed;
       }},
      {"droptail_buffer", [](Scenario& s) { s.droptail_buffer += 1; }},
      {"n_tfrc", [](Scenario& s) { s.n_tfrc += 1; }},
      {"n_tcp", [](Scenario& s) { s.n_tcp += 1; }},
      {"n_poisson", [](Scenario& s) { s.n_poisson += 1; }},
      {"poisson_rate_pps", [](Scenario& s) { s.poisson_rate_pps += 1.0; }},
      {"n_onoff", [](Scenario& s) { s.n_onoff += 1; }},
      {"onoff_peak_pps", [](Scenario& s) { s.onoff_peak_pps += 1.0; }},
      {"onoff_mean_on_s", [](Scenario& s) { s.onoff_mean_on_s += 1.0; }},
      {"onoff_mean_off_s", [](Scenario& s) { s.onoff_mean_off_s += 1.0; }},
      {"duration_s", [](Scenario& s) { s.duration_s += 1.0; }},
      {"warmup_s", [](Scenario& s) { s.warmup_s += 1.0; }},
      {"rtt_spread", [](Scenario& s) { s.rtt_spread += 0.01; }},
      {"red presence", [](Scenario& s) { s.red.reset(); }},
      {"red.buffer_packets", [](Scenario& s) { s.red->buffer_packets += 1; }},
      {"red.min_th", [](Scenario& s) { s.red->min_th += 1.0; }},
      {"red.max_th", [](Scenario& s) { s.red->max_th += 1.0; }},
      {"red.max_p", [](Scenario& s) { s.red->max_p += 0.01; }},
      {"red.weight", [](Scenario& s) { s.red->weight += 0.001; }},
      {"red.gentle", [](Scenario& s) { s.red->gentle = !s.red->gentle; }},
      {"red.mean_packet_time", [](Scenario& s) { s.red->mean_packet_time += 1e-5; }},
      {"tfrc.history_length", [](Scenario& s) { s.tfrc.history_length += 1; }},
      {"tfrc.comprehensive", [](Scenario& s) { s.tfrc.comprehensive = !s.tfrc.comprehensive; }},
      {"tfrc.history_discounting",
       [](Scenario& s) { s.tfrc.history_discounting = !s.tfrc.history_discounting; }},
      {"tfrc.receive_rate_cap",
       [](Scenario& s) { s.tfrc.receive_rate_cap = !s.tfrc.receive_rate_cap; }},
      {"tfrc.formula", [](Scenario& s) { s.tfrc.formula += "x"; }},
      {"tfrc.packet_bytes", [](Scenario& s) { s.tfrc.packet_bytes += 1.0; }},
      {"tfrc.initial_rate_pps", [](Scenario& s) { s.tfrc.initial_rate_pps += 1.0; }},
      {"tfrc.rtt_smoothing", [](Scenario& s) { s.tfrc.rtt_smoothing += 0.01; }},
      {"tfrc.min_rate_pps", [](Scenario& s) { s.tfrc.min_rate_pps += 0.1; }},
      {"tcp.packet_bytes", [](Scenario& s) { s.tcp.packet_bytes += 1.0; }},
      {"tcp.initial_cwnd", [](Scenario& s) { s.tcp.initial_cwnd += 1.0; }},
      {"tcp.initial_ssthresh", [](Scenario& s) { s.tcp.initial_ssthresh += 1.0; }},
      {"tcp.dupack_threshold", [](Scenario& s) { s.tcp.dupack_threshold += 1; }},
      {"tcp.ack_every", [](Scenario& s) { s.tcp.ack_every += 1; }},
      {"tcp.delayed_ack_timeout", [](Scenario& s) { s.tcp.delayed_ack_timeout += 0.01; }},
      {"tcp.min_rto", [](Scenario& s) { s.tcp.min_rto += 0.01; }},
      {"tcp.max_rto", [](Scenario& s) { s.tcp.max_rto += 1.0; }},
      {"tcp.max_cwnd", [](Scenario& s) { s.tcp.max_cwnd += 1.0; }},
      {"workload.arrival_rate_per_s",
       [](Scenario& s) { s.workload.arrival_rate_per_s += 1.0; }},
      {"workload.interarrival", [](Scenario& s) { s.workload.interarrival = "pareto"; }},
      {"workload.interarrival_shape",
       [](Scenario& s) { s.workload.interarrival_shape += 0.1; }},
      {"workload.size_dist", [](Scenario& s) { s.workload.size_dist = "pareto"; }},
      {"workload.mean_size_pkts", [](Scenario& s) { s.workload.mean_size_pkts += 1.0; }},
      {"workload.pareto_shape", [](Scenario& s) { s.workload.pareto_shape += 0.1; }},
      {"workload.max_size_pkts", [](Scenario& s) { s.workload.max_size_pkts += 1.0; }},
      {"workload.min_size_pkts", [](Scenario& s) { s.workload.min_size_pkts += 1.0; }},
      {"workload.tfrc_fraction", [](Scenario& s) { s.workload.tfrc_fraction += 0.1; }},
      {"workload.controller", [](Scenario& s) { s.workload.controller = "delay_aimd"; }},
      {"workload.max_concurrent", [](Scenario& s) { s.workload.max_concurrent += 1; }},
      {"workload.session_fraction", [](Scenario& s) { s.workload.session_fraction += 0.1; }},
      {"workload.session_transfers_mean",
       [](Scenario& s) { s.workload.session_transfers_mean += 1.0; }},
      {"workload.session_think_s", [](Scenario& s) { s.workload.session_think_s += 0.1; }},
  };

  const Scenario base = ebrc::testbed::ns2_scenario(2, 3, 8, /*seed=*/9);
  ASSERT_FALSE(base.red.has_value());
  for (const auto& [what, mutate] : mutators) {
    Scenario red_base = base;
    red_base.red.emplace();  // red.* mutators need an engaged optional
    // workload.* mutators need an ENABLED workload (a default block is
    // deliberately invisible to the fingerprint).
    red_base.workload.arrival_rate_per_s = 3.0;
    Scenario mutated = red_base;
    mutate(mutated);
    EXPECT_NE(ebrc::testbed::fingerprint(mutated), ebrc::testbed::fingerprint(red_base))
        << "fingerprint blind to field: " << what;
  }
  // And engaging the optional at all must move it too.
  Scenario engaged = base;
  engaged.red.emplace();
  EXPECT_NE(ebrc::testbed::fingerprint(engaged), ebrc::testbed::fingerprint(base));
  // Same for turning the workload on at all.
  Scenario churny = base;
  churny.workload.arrival_rate_per_s = 3.0;
  EXPECT_NE(ebrc::testbed::fingerprint(churny), ebrc::testbed::fingerprint(base));
}

// Back-compat contract of the workload extension: scenario files written
// before the workload block existed must parse to a default (disabled)
// workload, serialize WITHOUT a workload table, and keep the exact
// fingerprints the pre-workload code computed. The golden values below were
// recorded from the PR-4 tree (commit 6048f06) before src/workload/ landed —
// if one moves, cached results of every non-churn sweep are being
// invalidated by a feature they do not use.
TEST(ScenarioIo, DefaultWorkloadKeepsPreWorkloadFingerprints) {
  EXPECT_EQ(ebrc::testbed::fingerprint(Scenario{}), 0x1c62fb1dd35729fdull);
  EXPECT_EQ(ebrc::testbed::fingerprint(ebrc::testbed::ns2_scenario(2, 3, 8, /*seed=*/9)),
            0x69b2de4b51b5ebf8ull);
  EXPECT_EQ(ebrc::testbed::fingerprint(
                ebrc::testbed::lab_scenario(ebrc::testbed::QueueKind::kRed, 100, 2, 11)),
            0x33fe1a161b9dd1e5ull);
}

TEST(ScenarioIo, DefaultWorkloadIsElidedFromDocuments) {
  const Scenario plain = ebrc::testbed::ns2_scenario(1, 1, 8, 1);
  EXPECT_EQ(ebrc::testbed::scenario_to_toml(plain).find("[workload]"), std::string::npos);
  // A pre-workload document (no workload key) parses to the default config.
  const Scenario parsed = ebrc::testbed::scenario_from_toml("n_tfrc = 2\n[tfrc]\n"
                                                            "history_length = 4\n");
  EXPECT_EQ(parsed.workload, ebrc::workload::WorkloadConfig{});
  // An enabled workload round-trips through a visible [workload] table.
  Scenario churn = plain;
  churn.workload.arrival_rate_per_s = 12.5;
  churn.workload.size_dist = "pareto";
  const std::string toml = ebrc::testbed::scenario_to_toml(churn);
  EXPECT_NE(toml.find("[workload]"), std::string::npos);
  EXPECT_NE(toml.find("arrival_rate_per_s"), std::string::npos);
  expect_identical(churn, ebrc::testbed::scenario_from_toml(toml));
}

// Back-compat contract of the controller field (PR 9): an enabled workload
// with the DEFAULT controller ("" = the tfrc_fraction mix) must serialize
// without a controller key and hash exactly as it did before the field
// existed — pre-zoo churn scenario files and their cache fingerprints stay
// valid. Only a non-default controller becomes visible.
TEST(ScenarioIo, DefaultControllerIsElidedAndFingerprintInvisible) {
  Scenario churn = ebrc::testbed::churn_scenario(0.8, 0.5, /*seed=*/7);
  ASSERT_EQ(churn.workload.controller, "");
  const std::string toml = ebrc::testbed::scenario_to_toml(churn);
  EXPECT_NE(toml.find("[workload]"), std::string::npos);
  EXPECT_EQ(toml.find("controller"), std::string::npos);
  // A pre-zoo document (workload table, no controller key) parses to the
  // default and round-trips onto the identical fingerprint.
  const Scenario parsed = ebrc::testbed::scenario_from_toml(toml);
  EXPECT_EQ(parsed.workload.controller, "");
  EXPECT_EQ(ebrc::testbed::fingerprint(parsed), ebrc::testbed::fingerprint(churn));

  // A pinned controller is visible, lossless, and moves the fingerprint —
  // one cache cell per controller class.
  Scenario pinned = churn;
  pinned.workload.controller = "delay_aimd";
  const std::string pinned_toml = ebrc::testbed::scenario_to_toml(pinned);
  EXPECT_NE(pinned_toml.find("controller = \"delay_aimd\""), std::string::npos);
  expect_identical(pinned, ebrc::testbed::scenario_from_toml(pinned_toml));
  EXPECT_NE(ebrc::testbed::fingerprint(pinned), ebrc::testbed::fingerprint(churn));
  // Every zoo member lands on its own fingerprint.
  std::vector<std::uint64_t> fps;
  for (const char* ctrl : {"", "tfrc", "tcp", "delay_aimd", "rcp"}) {
    Scenario s = churn;
    s.workload.controller = ctrl;
    fps.push_back(ebrc::testbed::fingerprint(s));
  }
  for (std::size_t i = 0; i < fps.size(); ++i) {
    for (std::size_t j = i + 1; j < fps.size(); ++j) EXPECT_NE(fps[i], fps[j]);
  }
}

TEST(ScenarioIo, UnknownWorkloadKeysThrowNamingTheField) {
  try {
    (void)ebrc::testbed::scenario_from_toml("[workload]\narrival_rate = 3\n");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("workload.arrival_rate"), std::string::npos);
  }
}

TEST(ScenarioIo, MissingKeysKeepDefaults) {
  const Scenario s = ebrc::testbed::scenario_from_toml("n_tfrc = 7\n");
  const Scenario d;
  EXPECT_EQ(s.n_tfrc, 7);
  EXPECT_EQ(s.n_tcp, d.n_tcp);
  EXPECT_EQ(s.name, d.name);
  EXPECT_DOUBLE_EQ(s.bottleneck_bps, d.bottleneck_bps);
  EXPECT_EQ(s.tfrc.history_length, d.tfrc.history_length);
}

TEST(ScenarioIo, UnknownKeysThrowNamingTheField) {
  try {
    (void)ebrc::testbed::scenario_from_toml("n_tfrcc = 7\n");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("n_tfrcc"), std::string::npos);
  }
  try {
    (void)ebrc::testbed::scenario_from_toml("[tfrc]\nhistory_len = 8\n");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("tfrc.history_len"), std::string::npos);
  }
}

TEST(ScenarioIo, TypeAndRangeMismatchesThrow) {
  EXPECT_THROW((void)ebrc::testbed::scenario_from_toml("name = 5\n"), std::invalid_argument);
  EXPECT_THROW((void)ebrc::testbed::scenario_from_toml("n_tfrc = \"many\"\n"),
               std::invalid_argument);
  EXPECT_THROW((void)ebrc::testbed::scenario_from_toml("n_tfrc = 99999999999999\n"),
               std::invalid_argument);
  EXPECT_THROW((void)ebrc::testbed::scenario_from_toml("droptail_buffer = -3\n"),
               std::invalid_argument);
  EXPECT_THROW((void)ebrc::testbed::scenario_from_toml("queue = \"fifo\"\n"),
               std::invalid_argument);
  EXPECT_THROW((void)ebrc::testbed::scenario_from_json("{\"red\": 5}"), std::invalid_argument);
}

TEST(ScenarioIo, SeedSurvivesFullUint64Range) {
  Scenario s;
  s.seed = ~std::uint64_t{0};
  const Scenario t = ebrc::testbed::scenario_from_toml(ebrc::testbed::scenario_to_toml(s));
  EXPECT_EQ(t.seed, ~std::uint64_t{0});
  const Scenario j = ebrc::testbed::scenario_from_json(ebrc::testbed::scenario_to_json(s));
  EXPECT_EQ(j.seed, ~std::uint64_t{0});
}

TEST(ScenarioIo, FileRoundTripDispatchesOnExtension) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() / "ebrc_scenario_io_test";
  fs::create_directories(dir);
  Splitmix g{404};
  const Scenario s = random_scenario(g);
  for (const char* name : {"s.toml", "s.json"}) {
    const fs::path p = dir / name;
    ebrc::testbed::save_scenario(s, p);
    expect_identical(s, ebrc::testbed::load_scenario(p));
  }
  EXPECT_THROW(ebrc::testbed::save_scenario(s, dir / "s.yaml"), std::invalid_argument);
  EXPECT_THROW((void)ebrc::testbed::load_scenario(dir / "missing.toml"), std::runtime_error);
  // An unknown extension (the --scenario=FILE path) names the supported
  // formats instead of guessing a parser.
  {
    std::ofstream(dir / "s.ya_ml") << "n_tfrc = 1\n";
    try {
      (void)ebrc::testbed::load_scenario(dir / "s.ya_ml");
      FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(".toml"), std::string::npos);
      EXPECT_NE(std::string(e.what()).find(".json"), std::string::npos);
    }
  }
  fs::remove_all(dir);
}

TEST(ScenarioIo, QueueKindNamesRoundTrip) {
  using ebrc::testbed::QueueKind;
  EXPECT_EQ(ebrc::testbed::queue_kind_from(
                ebrc::testbed::queue_kind_name(QueueKind::kDropTail)),
            QueueKind::kDropTail);
  EXPECT_EQ(ebrc::testbed::queue_kind_from(ebrc::testbed::queue_kind_name(QueueKind::kRed)),
            QueueKind::kRed);
  EXPECT_THROW((void)ebrc::testbed::queue_kind_from("codel"), std::invalid_argument);
}

TEST(ScenarioIo, BuiltinScenariosSerializeReadably) {
  // The practical use: every built-in setup must survive the file format,
  // and the TOML must carry the section structure a human would edit.
  const Scenario s = ebrc::testbed::lab_scenario(ebrc::testbed::QueueKind::kRed, 100, 2, 11);
  const std::string toml = ebrc::testbed::scenario_to_toml(s);
  EXPECT_NE(toml.find("[red]"), std::string::npos);
  EXPECT_NE(toml.find("[tfrc]"), std::string::npos);
  EXPECT_NE(toml.find("[tcp]"), std::string::npos);
  EXPECT_NE(toml.find("queue = \"red\""), std::string::npos);
  expect_identical(s, ebrc::testbed::scenario_from_toml(toml));
}

}  // namespace
