// Deterministic mutation fuzzer for the result codec.
//
// Seeds are encode_result() of a static ns-2 result, a churn result and a
// synthetic result with many flows and obs entries. Each mutant stacks one
// to four mutations — bit flips, byte sets, truncations, length-word edits
// and splices with another seed — drawn from a fixed-seed sim::Rng, so every
// run replays the same inputs. The oracle, for every mutant:
//   * decode_result() does not crash, and either rejects the payload or
//     accepts it with encode_result(decoded) == the payload, byte for byte;
//   * validate_result_file() on an entry file carrying the mutant agrees with
//     decode_result(), and a file whose envelope was mutated too never
//     crashes it.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <string_view>
#include <vector>

#include "test_support.hpp"
#include "testbed/experiment.hpp"
#include "testbed/result_store.hpp"
#include "testbed/scenario.hpp"
#include "util/binary_io.hpp"

namespace {

namespace fs = std::filesystem;
using namespace ebrc;

constexpr std::uint64_t kFuzzSeed = 0x5eed'2002'c0de'0001ull;
constexpr int kMutants = 20000;
constexpr int kFileEvery = 10;  // every 10th mutant also goes through a file
constexpr std::size_t kHeaderBytes = 7 * 8;  // the entry envelope before the payload

std::vector<std::string> seed_payloads() {
  auto ns2 = testbed::ns2_scenario(2, 2, 8, /*seed=*/3);
  ns2.duration_s = 4.0;
  ns2.warmup_s = 1.0;

  auto churn = testbed::churn_scenario(/*offered_load=*/0.9, /*tfrc_fraction=*/0.5, /*seed=*/4);
  churn.workload.max_concurrent = 16;
  churn.duration_s = 6.0;
  churn.warmup_s = 1.0;

  testbed::ExperimentResult synthetic;
  synthetic.scenario_name = "fuzz-seed";
  for (int i = 0; i < 5; ++i) {
    testbed::FlowStats f;
    f.kind = i % 2 == 0 ? "tfrc" : "tcp";
    f.flow_id = i - 2;
    f.throughput_pps = 100.0 + i;
    f.p = 0.01 * i;
    f.loss_events = static_cast<std::uint64_t>(i) * 7;
    synthetic.flows.push_back(f);
  }
  synthetic.workload_active = true;
  synthetic.workload.arrivals = 9;
  synthetic.workload.p = {0.1, 0.2, 0.3, 0.4};
  for (int i = 0; i < 12; ++i) {
    synthetic.obs.emplace_back("instrument_" + std::to_string(i), 1.5 * i);
  }

  return {testbed::encode_result(testbed::run_experiment(ns2)),
          testbed::encode_result(testbed::run_experiment(churn)),
          testbed::encode_result(synthetic)};
}

class Mutator : public ebrc::testing::MutationRng {
 public:
  using MutationRng::MutationRng;

  /// One to four stacked mutations of `s`; `seeds` feeds the splices.
  std::string mutate(std::string s, const std::vector<std::string>& seeds) {
    const std::size_t rounds = 1 + below(4);
    for (std::size_t i = 0; i < rounds; ++i) {
      switch (below(5)) {
        case 0: flip_bit(s); break;
        case 1: set_byte(s, [this] { return static_cast<char>(interesting_byte()); }); break;
        case 2: truncate(s); break;
        case 3: edit_length_word(s); break;
        default: splice(s, seeds); break;
      }
    }
    return s;
  }

 private:
  std::uint8_t interesting_byte() {
    static constexpr std::uint8_t kBytes[] = {0x00, 0x01, 0x02, 0x7f, 0x80, 0xff};
    return below(2) == 0 ? kBytes[below(sizeof(kBytes))] : static_cast<std::uint8_t>(below(256));
  }

  /// Rewrites one 8-byte word that reads as a small count — a string length,
  /// a list count, a flag or a small counter — to a nearby or hostile value.
  void edit_length_word(std::string& s) {
    std::vector<std::size_t> words;
    for (std::size_t at = 0; at + 8 <= s.size(); ++at) {
      if (word_at(s, at) < 4096) words.push_back(at);
    }
    if (words.empty()) return;
    const std::size_t at = words[below(words.size())];
    const std::uint64_t old = word_at(s, at);
    static constexpr std::uint64_t kHostile[] = {
        0, 1, 2, 0xffffffffull, 0x100000000ull, 0x7fffffffffffffffull, ~0ull};
    std::uint64_t v;
    switch (below(3)) {
      case 0: v = old + 1 + below(8); break;
      case 1: v = old - 1 - below(8); break;
      default: v = kHostile[below(std::size(kHostile))]; break;
    }
    util::ByteWriter w;
    w.u64(v);
    s.replace(at, 8, w.bytes());
  }

  static std::uint64_t word_at(const std::string& s, std::size_t at) {
    util::ByteReader r(std::string_view(s).substr(at, 8));
    return r.u64();
  }
};

/// A valid entry envelope (magic, version and key from a real stored entry)
/// around `payload`, with the checksum and length recomputed for it.
std::string entry_with(const std::string& header, const std::string& payload) {
  util::Fnv1a h;
  h.bytes(payload.data(), payload.size());
  util::ByteWriter w;
  w.u64(h.digest());
  w.u64(payload.size());
  return header.substr(0, kHeaderBytes - 16) + w.bytes() + payload;
}

void write_file(const fs::path& p, const std::string& bytes) {
  std::ofstream out(p, std::ios::binary | std::ios::trunc);
  out << bytes;
}

TEST(ResultCodecFuzz, EveryInputIsRejectedOrRoundTripsExactly) {
  const auto seeds = seed_payloads();
  for (const auto& s : seeds) {
    const auto back = testbed::decode_result(s);
    ASSERT_TRUE(back.has_value());
    ASSERT_EQ(testbed::encode_result(*back), s);
  }

  // An entry file from the store itself supplies a well-formed envelope.
  ebrc::testing::TempDir dir;
  testbed::ResultStore store(dir.path / "store");
  const auto sc = testbed::ns2_scenario(1, 1, 8, /*seed=*/1);
  const auto first = testbed::decode_result(seeds[0]);
  store.store(sc, *first);
  std::string header;
  {
    std::ifstream in(store.path_for(sc), std::ios::binary);
    header.assign(std::istreambuf_iterator<char>(in), {});
  }
  ASSERT_GE(header.size(), kHeaderBytes);
  ASSERT_TRUE(testbed::validate_result_file(store.path_for(sc)));
  const fs::path entry = dir.path / "mutant.ebrcres";

  Mutator m(kFuzzSeed);
  int accepted = 0;
  int rejected = 0;
  for (int i = 0; i < kMutants; ++i) {
    const std::string mutant = m.mutate(seeds[m.below(seeds.size())], seeds);
    const auto decoded = testbed::decode_result(mutant);
    if (decoded) {
      ++accepted;
      ASSERT_EQ(testbed::encode_result(*decoded), mutant)
          << "mutant " << i << " decoded but does not re-encode to itself";
    } else {
      ++rejected;
    }
    if (i % kFileEvery != 0) continue;
    const std::string file = entry_with(header, mutant);
    write_file(entry, file);
    ASSERT_EQ(testbed::validate_result_file(entry), decoded.has_value()) << "mutant " << i;
    // The envelope itself is hostile input too: mutate the whole file.
    write_file(entry, m.mutate(file, {file}));
    (void)testbed::validate_result_file(entry);
  }
  // Both branches of the oracle were exercised.
  EXPECT_GT(accepted, kMutants / 100);
  EXPECT_GT(rejected, kMutants / 2);
}

}  // namespace
