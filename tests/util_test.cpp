#include <gtest/gtest.h>

#include <bit>
#include <charconv>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "util/binary_io.hpp"
#include "util/cli.hpp"
#include "util/csv.hpp"
#include "util/doc.hpp"
#include "util/math.hpp"
#include "util/table.hpp"

namespace {

using namespace ebrc::util;

TEST(Math, Square) {
  EXPECT_DOUBLE_EQ(sq(3.0), 9.0);
  EXPECT_EQ(sq(-4), 16);
}

TEST(Math, Close) {
  EXPECT_TRUE(close(1.0, 1.0 + 1e-12));
  EXPECT_FALSE(close(1.0, 1.001));
  EXPECT_TRUE(close(1e12, 1e12 + 1.0, 1e-9));  // relative scaling
}

TEST(Math, Clamp) {
  EXPECT_DOUBLE_EQ(clamp(5.0, 0.0, 1.0), 1.0);
  EXPECT_DOUBLE_EQ(clamp(-5.0, 0.0, 1.0), 0.0);
  EXPECT_DOUBLE_EQ(clamp(0.5, 0.0, 1.0), 0.5);
}

TEST(Cli, ParsesFlagsAndValues) {
  const char* argv[] = {"prog", "--alpha=1.5", "--beta", "2", "--verbose", "input.txt"};
  Cli cli(6, argv);
  EXPECT_TRUE(cli.has("alpha"));
  EXPECT_DOUBLE_EQ(cli.get("alpha", 0.0), 1.5);
  EXPECT_EQ(cli.get("beta", 0), 2);
  EXPECT_TRUE(cli.get("verbose", false));
  EXPECT_FALSE(cli.get("quiet", false));
  ASSERT_EQ(cli.positional().size(), 1u);
  EXPECT_EQ(cli.positional()[0], "input.txt");
}

TEST(Cli, BooleanForms) {
  const char* argv[] = {"prog", "--a=true", "--b=off", "--c"};
  Cli cli(4, argv);
  EXPECT_TRUE(cli.get("a", false));
  EXPECT_FALSE(cli.get("b", true));
  EXPECT_TRUE(cli.get("c", false));
}

TEST(Cli, UnknownFlagRejected) {
  const char* argv[] = {"prog", "--oops"};
  Cli cli(2, argv);
  cli.know("fine");
  EXPECT_THROW(cli.finish(), std::invalid_argument);
}

/// The message of the std::invalid_argument `f` throws, or "" if none.
template <typename F>
std::string invalid_argument_of(F&& f) {
  try {
    f();
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

TEST(Cli, NonFiniteNumberRejectedNamingTheFlag) {
  for (const char* v : {"--x=nan", "--x=NaN", "--x=inf", "--x=-inf", "--x=infinity"}) {
    const char* argv[] = {"prog", v};
    const Cli cli(2, argv);
    const std::string msg = invalid_argument_of([&] { (void)cli.get("x", 1.0); });
    EXPECT_NE(msg.find("--x"), std::string::npos) << v << ": " << msg;
  }
  const char* argv[] = {"prog", "--x=1e308"};
  EXPECT_DOUBLE_EQ(Cli(2, argv).get("x", 1.0), 1e308);
}

TEST(Cli, RepeatedFlagRejectedNamingIt) {
  const std::vector<std::pair<std::string, std::vector<const char*>>> cases = {
      {"--seed", {"prog", "--seed=1", "--seed=2"}},
      {"--seed", {"prog", "--seed", "1", "--seed=1"}},
      {"--verbose", {"prog", "--verbose", "--verbose"}}};
  for (const auto& [flag, argv] : cases) {
    const std::string msg = invalid_argument_of(
        [&] { Cli(static_cast<int>(argv.size()), argv.data()); });
    EXPECT_NE(msg.find(flag), std::string::npos) << msg;
  }
}

TEST(Cli, UnknownFlagErrorListsKnownFlags) {
  const char* argv[] = {"prog", "--oops"};
  Cli cli(2, argv);
  cli.know("seed").know("jobs");
  try {
    cli.finish();
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("--oops"), std::string::npos);
    EXPECT_NE(msg.find("--seed"), std::string::npos);
    EXPECT_NE(msg.find("--jobs"), std::string::npos);
  }
}

TEST(Cli, SweepFlagListingNamesShardAndCacheFlags) {
  // The sweep binaries register these through BenchArgs; a typo'd flag must
  // point the operator at the persistence-layer spelling.
  const char* argv[] = {"prog", "--shard=1"};
  Cli cli(2, argv);
  cli.know("reps").know("jobs").know("cache").know("shard-index").know("shard-count")
      .know("summary-out");
  try {
    cli.finish();
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("--shard (known"), std::string::npos);
    EXPECT_NE(msg.find("--shard-index"), std::string::npos);
    EXPECT_NE(msg.find("--shard-count"), std::string::npos);
    EXPECT_NE(msg.find("--cache"), std::string::npos);
    EXPECT_NE(msg.find("--summary-out"), std::string::npos);
  }
}

TEST(Cli, Uint64SeedSurvivesFullRange) {
  // 2^63 + 11 would truncate or throw through the int overload.
  const char* argv[] = {"prog", "--seed=9223372036854775819"};
  Cli cli(2, argv);
  EXPECT_EQ(cli.get("seed", std::uint64_t{1}), 9223372036854775819ull);
  EXPECT_EQ(cli.get("absent", std::uint64_t{7}), 7ull);
}

TEST(Cli, IntRejectsPartialParses) {
  // std::stoi would read "1e2" as 1; the strict parse must reject it.
  const char* argv[] = {"prog", "--reps=1e2", "--jobs=2x", "--n=7"};
  Cli cli(4, argv);
  EXPECT_THROW((void)cli.get("reps", 1), std::invalid_argument);
  EXPECT_THROW((void)cli.get("jobs", 0), std::invalid_argument);
  EXPECT_EQ(cli.get("n", 0), 7);
}

TEST(Cli, Uint64RejectsGarbageAndNegatives) {
  const char* argv[] = {"prog", "--a=-3", "--b=12x"};
  Cli cli(3, argv);
  EXPECT_THROW((void)cli.get("a", std::uint64_t{0}), std::invalid_argument);
  EXPECT_THROW((void)cli.get("b", std::uint64_t{0}), std::invalid_argument);
}

TEST(Cli, DoubleRejectsPartialParses) {
  // std::stod would silently read "--cell-deadline=10s" as 10 — a unit typo
  // must fail loudly, naming the flag and the offending token.
  const char* argv[] = {"prog", "--cell-deadline=10s", "--rate=1.5e3x", "--w= ",
                        "--empty=", "--ok=2.5e-3"};
  Cli cli(6, argv);
  for (const char* flag : {"cell-deadline", "rate", "w", "empty"}) {
    try {
      (void)cli.get(flag, 0.0);
      FAIL() << "expected rejection of --" << flag;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(std::string("--") + flag), std::string::npos);
    }
  }
  EXPECT_DOUBLE_EQ(cli.get("ok", 0.0), 2.5e-3);
  EXPECT_DOUBLE_EQ(cli.get("absent", 1.25), 1.25);
}

TEST(Cli, DoubleErrorNamesTheToken) {
  const char* argv[] = {"prog", "--cell-deadline=10s"};
  Cli cli(2, argv);
  try {
    (void)cli.get("cell-deadline", 0.0);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("'10s'"), std::string::npos);
  }
}

TEST(Cli, ParsePositiveIntListAcceptsIntegersAndScientific) {
  using ebrc::util::parse_positive_int_list;
  const auto v = parse_positive_int_list("pools", "100,300,1e6,10000000000");
  ASSERT_EQ(v.size(), 4u);
  EXPECT_EQ(v[0], 100);
  EXPECT_EQ(v[1], 300);
  EXPECT_EQ(v[2], 1000000);          // the 1M rung, scientific spelling
  EXPECT_EQ(v[3], 10000000000ll);    // past 2^31: must not throw like stoi
  EXPECT_EQ(parse_positive_int_list("pools", "42")[0], 42);
}

TEST(Cli, ParsePositiveIntListRejectsGarbageNamingTheToken) {
  using ebrc::util::parse_positive_int_list;
  for (const char* bad : {"abc", "0", "-5", "1.5", "1e6.5", "100,,300", "100,2x", ""}) {
    try {
      (void)parse_positive_int_list("pools", bad);
      FAIL() << "expected rejection of '" << bad << "'";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("--pools"), std::string::npos) << bad;
    }
  }
  // The bad token itself is named (not just the whole list).
  try {
    (void)parse_positive_int_list("pools", "100,oops,300");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("'oops'"), std::string::npos);
  }
}

TEST(Cli, KnownFlagsPass) {
  const char* argv[] = {"prog", "--fine=1"};
  Cli cli(2, argv);
  cli.know("fine");
  EXPECT_NO_THROW(cli.finish());
}

TEST(Csv, WritesHeaderAndRows) {
  const std::string path = ::testing::TempDir() + "/ebrc_csv_test.csv";
  {
    CsvWriter csv(path, {"a", "b"});
    csv.row({1.0, 2.5});
    EXPECT_EQ(csv.rows_written(), 1u);
  }
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "a,b");
  std::getline(in, line);
  EXPECT_EQ(line, "1,2.5");
  std::remove(path.c_str());
}

TEST(Csv, RowArityEnforced) {
  const std::string path = ::testing::TempDir() + "/ebrc_csv_arity.csv";
  CsvWriter csv(path, {"a", "b"});
  EXPECT_THROW(csv.row({1.0}), std::invalid_argument);
  std::remove(path.c_str());
}

TEST(Table, AlignsColumns) {
  Table t({"name", "value"});
  t.row({std::string("x"), std::string("1")});
  t.row({1.23456789, 2.0}, 3);
  const std::string s = t.str();
  EXPECT_NE(s.find("name"), std::string::npos);
  EXPECT_NE(s.find("1.23"), std::string::npos);
  EXPECT_EQ(t.size(), 2u);
}

TEST(Table, RejectsBadArity) {
  Table t({"a", "b"});
  EXPECT_THROW(t.row({std::string("only-one")}), std::invalid_argument);
}

TEST(Fmt, SignificantDigits) {
  EXPECT_EQ(fmt(1.0 / 3.0, 3), "0.333");
  EXPECT_EQ(fmt(1234.0, 2), "1.2e+03");
}

// ---- doc: the TOML/JSON carrier of scenario files ----------------------------

TEST(Doc, FormatDoubleRoundTripsExactly) {
  for (double v : {0.1, 1.0 / 3.0, -0.0, 1e-300, 1e300, 15e6, -2.5, 4.9e-324}) {
    const std::string s = format_double(v);
    double back = 0.0;
    const auto r = std::from_chars(s.data(), s.data() + s.size(), back);
    ASSERT_EQ(r.ec, std::errc{}) << s;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(back), std::bit_cast<std::uint64_t>(v)) << s;
  }
  // Integral doubles stay float-shaped so parsers type them as floats.
  EXPECT_NE(format_double(4.0).find_first_of(".eE"), std::string::npos);
}

TEST(Doc, TomlParsesScalarsCommentsAndSections) {
  const DocTable doc = parse_toml(
      "# a scenario file\n"
      "name = \"lab \\\"A\\\"\"   # trailing comment\n"
      "rate = 1.5e7\n"
      "count = -3\n"
      "big = 18446744073709551615\n"
      "on = true\n"
      "\n"
      "[sub]\n"
      "x = 2.0\n");
  ASSERT_NE(doc_find(doc, "name"), nullptr);
  EXPECT_EQ(*doc_find(doc, "name")->if_string(), "lab \"A\"");
  EXPECT_DOUBLE_EQ(*doc_find(doc, "rate")->if_double(), 1.5e7);
  EXPECT_EQ(*doc_find(doc, "count")->if_i64(), -3);
  EXPECT_EQ(*doc_find(doc, "big")->if_u64(), ~std::uint64_t{0});
  EXPECT_TRUE(*doc_find(doc, "on")->if_bool());
  const DocTable* sub = doc_find(doc, "sub")->if_table();
  ASSERT_NE(sub, nullptr);
  EXPECT_DOUBLE_EQ(*doc_find(*sub, "x")->if_double(), 2.0);
}

TEST(Doc, TomlRejectsMalformedInputWithLineNumbers) {
  EXPECT_THROW((void)parse_toml("a = 1\na = 2\n"), std::invalid_argument);  // duplicate
  EXPECT_THROW((void)parse_toml("a 1\n"), std::invalid_argument);           // no '='
  EXPECT_THROW((void)parse_toml("[t\n"), std::invalid_argument);            // missing ']'
  EXPECT_THROW((void)parse_toml("a = \"x\\q\"\n"), std::invalid_argument);  // bad escape
  EXPECT_THROW((void)parse_toml("a = 12x\n"), std::invalid_argument);       // bad number
  try {
    (void)parse_toml("ok = 1\nbroken\n");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
  }
}

TEST(Doc, TomlAndJsonRoundTripADocumentExactly) {
  DocTable doc;
  doc.push_back({"s", DocValue(std::string("quotes \" slashes \\ lines \n tabs \t"))});
  doc.push_back({"f", DocValue(0.1)});
  doc.push_back({"neg", DocValue(std::int64_t{-42})});
  doc.push_back({"u", DocValue(~std::uint64_t{0})});
  doc.push_back({"b", DocValue(false)});
  DocTable sub;
  sub.push_back({"inner", DocValue(2.5)});
  doc.push_back({"t", DocValue(std::move(sub))});

  EXPECT_TRUE(parse_toml(to_toml(doc)) == doc);
  EXPECT_TRUE(parse_json(to_json(doc)) == doc);
}

TEST(Doc, NegativeZeroIntegerReadsAsTheZeroItIsWrittenAs) {
  const DocTable doc = parse_json("{\"z\": -0}");
  ASSERT_NE(doc_find(doc, "z")->if_u64(), nullptr);
  EXPECT_TRUE(parse_json(to_json(doc)) == doc);
  EXPECT_TRUE(parse_toml("z = -0\n") == parse_toml(to_toml(parse_toml("z = -0\n"))));
}

TEST(Doc, JsonRejectsMalformedInput) {
  EXPECT_THROW((void)parse_json("{"), std::invalid_argument);
  EXPECT_THROW((void)parse_json("{\"a\": }"), std::invalid_argument);
  EXPECT_THROW((void)parse_json("{\"a\": 1} trailing"), std::invalid_argument);
  EXPECT_THROW((void)parse_json("{\"a\": 1, \"a\": 2}"), std::invalid_argument);
  try {
    (void)parse_json("{\n\"a\": 1,\n\"b\": {\"c\": 2},\n\"a\": 3\n}");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("line 4"), std::string::npos) << e.what();
  }
}

TEST(Doc, JsonRejectsNestingDeeperThanTheCap) {
  const auto nested = [](int depth) {
    std::string s;
    for (int i = 0; i < depth; ++i) s += "{\"a\":";
    s += "1";
    s.append(static_cast<std::size_t>(depth), '}');
    return s;
  };
  EXPECT_NO_THROW((void)parse_json(nested(64)));
  EXPECT_THROW((void)parse_json(nested(65)), std::invalid_argument);
  // A 100,000-deep bomb (about 600 KB) is rejected, not a stack overflow.
  try {
    (void)parse_json(nested(100000));
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("line 1"), std::string::npos) << e.what();
  }
}

TEST(Doc, TomlNestedTablesBeyondOneLevelThrow) {
  DocTable inner_inner;
  inner_inner.push_back({"x", DocValue(1.0)});
  DocTable inner;
  inner.push_back({"deep", DocValue(std::move(inner_inner))});
  DocTable doc;
  doc.push_back({"t", DocValue(std::move(inner))});
  EXPECT_THROW((void)to_toml(doc), std::invalid_argument);
  EXPECT_NO_THROW((void)to_json(doc));  // JSON nests freely
}

// ---- binary_io: the cache codec primitives -----------------------------------

TEST(BinaryIo, WriterReaderRoundTrip) {
  ByteWriter w;
  w.u64(~std::uint64_t{0});
  w.i64(-17);
  w.f64(-0.0);
  w.str("hello \0 world");  // embedded NUL via string_view literal truncation is fine
  w.str("");
  ByteReader r(w.bytes());
  EXPECT_EQ(r.u64(), ~std::uint64_t{0});
  EXPECT_EQ(r.i64(), -17);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(r.f64()), std::bit_cast<std::uint64_t>(-0.0));
  EXPECT_EQ(r.str(), "hello ");
  EXPECT_EQ(r.str(), "");
  EXPECT_TRUE(r.ok());
  EXPECT_TRUE(r.exhausted());
}

TEST(BinaryIo, ReaderFlagsOverrunsInsteadOfThrowing) {
  ByteWriter w;
  w.u64(7);
  ByteReader r(w.bytes());
  EXPECT_EQ(r.u64(), 7u);
  EXPECT_EQ(r.u64(), 0u);  // past the end
  EXPECT_FALSE(r.ok());

  // A length-prefixed string whose length exceeds the buffer must not read
  // out of bounds.
  ByteWriter bad;
  bad.u64(1000);
  ByteReader rb(bad.bytes());
  EXPECT_EQ(rb.str(), "");
  EXPECT_FALSE(rb.ok());
}

TEST(BinaryIo, Fnv1aSeparatesFieldBoundaries) {
  Fnv1a a;
  a.str("ab");
  a.str("c");
  Fnv1a b;
  b.str("a");
  b.str("bc");
  EXPECT_NE(a.digest(), b.digest());
  Fnv1a empty;
  EXPECT_NE(empty.digest(), 0u);  // FNV offset basis
}

}  // namespace
