// util::json_escape_into — the one escaper behind the JSONL event feed and the
// chrome://tracing writer:
//   * every mandatory JSON escape (quote, backslash, all 32 control bytes),
//   * UTF-8 passthrough,
//   * round-trip: feed lines (schema header included) parse with
//     util::parse_json — our strictest in-repo JSON reader — and decode back
//     to the original bytes.
#include <gtest/gtest.h>


#include <filesystem>
#include <fstream>
#include <string>
#include <string_view>
#include <vector>

#include "test_support.hpp"
#include "testbed/supervisor.hpp"
#include "util/doc.hpp"
#include "util/json_escape.hpp"

namespace {

namespace fs = std::filesystem;

using ebrc::util::doc_find;
using ebrc::util::json_escape_into;
using ebrc::util::parse_json;

/// The escaped form of `s` alone.
std::string escaped(std::string_view s) {
  std::string out;
  json_escape_into(out, s);
  return out;
}

TEST(JsonEscapeTest, EscapesQuotesBackslashesAndNamedControls) {
  EXPECT_EQ(escaped("plain"), "plain");
  EXPECT_EQ(escaped("a\"b"), "a\\\"b");
  EXPECT_EQ(escaped("a\\b"), "a\\\\b");
  EXPECT_EQ(escaped("a\nb"), "a\\nb");
  EXPECT_EQ(escaped("a\rb"), "a\\rb");
  EXPECT_EQ(escaped("a\tb"), "a\\tb");
  EXPECT_EQ(escaped("a\bb"), "a\\bb");
  EXPECT_EQ(escaped("a\fb"), "a\\fb");
}

TEST(JsonEscapeTest, EscapesEveryControlByteAsU00XX) {
  for (int c = 0; c < 0x20; ++c) {
    if (c == '\n' || c == '\r' || c == '\t' || c == '\b' || c == '\f') continue;
    const std::string in(1, static_cast<char>(c));
    const std::string out = escaped(in);
    char expect[8];
    std::snprintf(expect, sizeof(expect), "\\u%04x", c);
    EXPECT_EQ(out, expect) << "control byte " << c;
  }
}

TEST(JsonEscapeTest, PassesUtf8AndHighBytesThrough) {
  const std::string utf8 = "r\xC3\xA9seau \xE2\x86\x92 ok";  // "réseau → ok"
  EXPECT_EQ(escaped(utf8), utf8);
}

TEST(JsonEscapeTest, AppendsWithoutClobbering) {
  std::string out = "prefix:";
  json_escape_into(out, "a\"b");
  EXPECT_EQ(out, "prefix:a\\\"b");
}

TEST(JsonEscapeTest, RoundTripsThroughParseJson) {
  std::string nasty;
  for (int c = 1; c < 0x20; ++c) nasty += static_cast<char>(c);
  nasty += "\"quoted\" back\\slash r\xC3\xA9seau";
  const std::string doc = "{\"k\":\"" + escaped(nasty) + "\"}";
  const auto table = parse_json(doc);
  const auto* v = doc_find(table, "k");
  ASSERT_NE(v, nullptr);
  ASSERT_NE(v->if_string(), nullptr);
  EXPECT_EQ(*v->if_string(), nasty) << "escape + parse must reproduce the exact bytes";
}

// ---- the event feed, line by line, through the strict parser ----------------

using ebrc::testing::TempDir;

TEST(JsonEscapeTest, EveryFeedLineParsesAsStrictJson) {
  TempDir dir;
  const fs::path path = dir.path / "events.jsonl";
  const std::string hostile = "cell \"A\"\nwith\tcontrols\x01\x02 and r\xC3\xA9seau";
  {
    ebrc::testbed::SweepEventFeed feed(path);
    feed.emit("cell_start", 0, hostile, 42, 0);
    feed.emit("cell_done", 0, hostile, 42, 0, 1.25, 2048, {},
              ",\"obs\":{\"kernel_events\":1234,\"queue_drops\":0}");
    feed.emit("cell_crashed", 1, "sc", 7, 2, 0.5, -1, "crashed: SIGSEGV \x7f\x01");
    feed.emit_sweep("sweep_done", ",\"cells\":2,\"obs\":{\"store_hits\":1}");
  }

  std::ifstream in(path);
  std::string line;
  std::vector<std::string> lines;
  while (std::getline(in, line)) lines.push_back(line);
  ASSERT_EQ(lines.size(), 5u);

  for (const auto& l : lines) {
    const auto table = parse_json(l);  // throws on anything non-JSON
    ASSERT_NE(doc_find(table, "ts"), nullptr) << l;
    ASSERT_NE(doc_find(table, "event"), nullptr) << l;
  }

  // The schema header names its version and both field lists.
  const auto schema = parse_json(lines[0]);
  const auto* version = doc_find(schema, "version");
  ASSERT_NE(version, nullptr);
  ASSERT_NE(version->if_u64(), nullptr);
  EXPECT_EQ(*version->if_u64(), 2u);
  ASSERT_NE(doc_find(schema, "events"), nullptr);
  ASSERT_NE(doc_find(schema, "fields"), nullptr);

  // The hostile scenario name round-trips byte-exact through the feed.
  const auto start = parse_json(lines[1]);
  const auto* scenario = doc_find(start, "scenario");
  ASSERT_NE(scenario, nullptr);
  ASSERT_NE(scenario->if_string(), nullptr);
  EXPECT_EQ(*scenario->if_string(), hostile);

  // cell_done's obs fragment is a nested object with numeric values.
  const auto done = parse_json(lines[2]);
  const auto* obs = doc_find(done, "obs");
  ASSERT_NE(obs, nullptr);
  ASSERT_NE(obs->if_table(), nullptr);
  const auto* events = doc_find(*obs->if_table(), "kernel_events");
  ASSERT_NE(events, nullptr);
  ASSERT_NE(events->if_u64(), nullptr);
  EXPECT_EQ(*events->if_u64(), 1234u);
}

TEST(JsonParseTest, DecodesBFAndUnicodeEscapes) {
  const auto table = parse_json("{\"k\":\"a\\bb\\fc\\u0001d\\u00e9e\\/f\"}");
  const auto* v = doc_find(table, "k");
  ASSERT_NE(v, nullptr);
  ASSERT_NE(v->if_string(), nullptr);
  EXPECT_EQ(*v->if_string(), "a\bb\fc\x01"
                             "d\xC3\xA9"
                             "e/f");
  EXPECT_THROW((void)parse_json("{\"k\":\"\\u12\"}"), std::invalid_argument);
  EXPECT_THROW((void)parse_json("{\"k\":\"\\ud800\"}"), std::invalid_argument);
}

}  // namespace
