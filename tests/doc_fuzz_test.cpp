// Deterministic mutation fuzzer for the TOML and JSON subset (util/doc),
// the parsers behind --scenario=FILE.
//
// Seeds are scenario_to_toml() and scenario_to_json() of a static ns-2
// scenario, a lab scenario and a churn scenario. Each mutant stacks one to
// four mutations — bit flips, byte sets and inserts biased to the formats'
// syntax characters, truncations and splices with another seed of the same
// format — drawn from a fixed-seed sim::Rng, so every run replays the same
// inputs. The oracle, for every mutant:
//   * the parser throws std::invalid_argument and nothing else, or
//   * it accepts the input, and the accepted document re-serializes and
//     re-parses to an equal DocTable whose text is the same again.
// A 100,000-deep JSON object rides along: it must be rejected, not
// overflow the stack.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <ostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "test_support.hpp"
#include "testbed/scenario.hpp"
#include "testbed/scenario_io.hpp"
#include "util/doc.hpp"

namespace {

using namespace ebrc;
using util::DocTable;
using util::DocValue;

constexpr std::uint64_t kFuzzSeed = 0x5eed'2002'd0c5'0001ull;
constexpr int kMutants = 20000;

std::vector<testbed::Scenario> seed_scenarios() {
  auto churn = testbed::churn_scenario(/*offered_load=*/0.9, /*tfrc_fraction=*/0.5, /*seed=*/4);
  churn.workload.controller = "delay_aimd";
  return {testbed::ns2_scenario(2, 2, 8, /*seed=*/3),
          testbed::lab_scenario(testbed::QueueKind::kRed, 30, 2, /*seed=*/~std::uint64_t{0}),
          churn};
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
        case 1: set_byte(s, [this] { return interesting_char(); }); break;
        case 2: {  // 1-3 copies of a syntax-biased byte: the byte, then the count
          const char c = interesting_char();
          insert(s, 1 + below(3), c);
          break;
        }
        case 3: truncate(s); break;
        default: splice(s, seeds); break;
      }
    }
    return s;
  }

 private:
  char interesting_char() {
    static constexpr char kSyntax[] = "{}[]\":,=#\\\n \t.-+0123456789eEinfatrsu";
    return below(2) == 0 ? kSyntax[below(sizeof(kSyntax) - 1)] : static_cast<char>(below(256));
  }
};

/// Equal tables, with doubles compared by bit pattern (so -0.0 must stay
/// -0.0) except that any NaN equals any NaN: text keeps no NaN payload.
bool same(const DocTable& a, const DocTable& b);

bool same(const DocValue& a, const DocValue& b) {
  const double* da = a.if_double();
  const double* db = b.if_double();
  if (da != nullptr && db != nullptr) {
    return (std::isnan(*da) && std::isnan(*db)) ||
           std::bit_cast<std::uint64_t>(*da) == std::bit_cast<std::uint64_t>(*db);
  }
  const DocTable* ta = a.if_table();
  const DocTable* tb = b.if_table();
  if (ta != nullptr && tb != nullptr) return same(*ta, *tb);
  return a == b;
}

bool same(const DocTable& a, const DocTable& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].key != b[i].key || !same(a[i].value, b[i].value)) return false;
  }
  return true;
}

struct Format {
  const char* name;
  std::string (*to_text)(const testbed::Scenario&);
  DocTable (*parse)(std::string_view);
  std::string (*serialize)(const DocTable&);
};

const Format kFormats[] = {
    {"toml", testbed::scenario_to_toml, util::parse_toml, util::to_toml},
    {"json", testbed::scenario_to_json, util::parse_json, util::to_json},
};

void PrintTo(const Format& f, std::ostream* os) { *os << f.name; }

class DocFuzz : public ::testing::TestWithParam<Format> {};

TEST_P(DocFuzz, EveryInputIsRejectedOrRoundTrips) {
  const Format& f = GetParam();
  std::vector<std::string> seeds;
  for (const auto& sc : seed_scenarios()) seeds.push_back(f.to_text(sc));
  for (const auto& s : seeds) {
    const DocTable doc = f.parse(s);
    ASSERT_EQ(f.serialize(doc), s) << "a stored scenario is not in canonical form";
  }

  Mutator m(kFuzzSeed);
  int accepted = 0;
  int rejected = 0;
  for (int i = 0; i < kMutants; ++i) {
    const std::string mutant = m.mutate(seeds[m.below(seeds.size())], seeds);
    DocTable doc;
    try {
      doc = f.parse(mutant);
    } catch (const std::invalid_argument&) {
      ++rejected;
      continue;
    } catch (const std::exception& e) {
      FAIL() << f.name << " mutant " << i << " threw a non-invalid_argument: " << e.what();
    }
    ++accepted;
    const std::string text = f.serialize(doc);
    DocTable back;
    try {
      back = f.parse(text);
    } catch (const std::exception& e) {
      FAIL() << f.name << " mutant " << i << " re-serialized to text its parser rejects: "
             << e.what() << "\n" << text;
    }
    ASSERT_TRUE(same(doc, back)) << f.name << " mutant " << i << " changed on a round trip:\n"
                                 << text;
    ASSERT_EQ(f.serialize(back), text) << f.name << " mutant " << i;
  }
  // Both branches of the oracle were exercised.
  EXPECT_GT(accepted, kMutants / 100);
  EXPECT_GT(rejected, kMutants / 10);
}

INSTANTIATE_TEST_SUITE_P(Formats, DocFuzz, ::testing::ValuesIn(kFormats),
                         [](const auto& info) { return std::string(info.param.name); });

TEST(DocFuzzDepth, DeeplyNestedJsonIsRejected) {
  std::string bomb;
  for (int i = 0; i < 100000; ++i) bomb += "{\"a\":";
  bomb += "1";
  bomb.append(100000, '}');
  EXPECT_THROW((void)util::parse_json(bomb), std::invalid_argument);
}

}  // namespace
