// A tiny ordered key-value document tree with TOML and JSON text forms —
// the carrier for file-defined scenarios (testbed/scenario_io). No external
// dependency: both formats are implemented here as the subset the scenario
// files need (scalars and one level of named tables for TOML; nesting up to
// 64 objects deep for JSON), with shortest-round-trip number formatting via
// std::to_chars so every double survives text I/O bit-for-bit.
//
// Integers keep their signedness: unsigned values (seeds use the full 64-bit
// range) are stored as std::uint64_t, negative ones as std::int64_t, and the
// consumer coerces to the field's type. Infinities and NaN are emitted as
// inf/nan tokens — valid in our own parsers (a deliberate JSON superset),
// never produced by sane scenarios.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

namespace ebrc::util {

class DocValue;

struct DocEntry;
/// Insertion-ordered table: emitted files list keys in the order the
/// producer wrote them, so serialized scenarios are stable and diffable.
using DocTable = std::vector<DocEntry>;

class DocValue {
 public:
  using Variant =
      std::variant<bool, std::uint64_t, std::int64_t, double, std::string, DocTable>;

  DocValue() : v_(false) {}
  DocValue(bool b) : v_(b) {}
  DocValue(std::uint64_t u) : v_(u) {}
  DocValue(std::int64_t i) : v_(i) {}
  DocValue(double d) : v_(d) {}
  DocValue(std::string s) : v_(std::move(s)) {}
  DocValue(const char* s) : v_(std::string(s)) {}
  DocValue(DocTable t) : v_(std::move(t)) {}

  [[nodiscard]] const bool* if_bool() const noexcept { return std::get_if<bool>(&v_); }
  [[nodiscard]] const std::uint64_t* if_u64() const noexcept {
    return std::get_if<std::uint64_t>(&v_);
  }
  [[nodiscard]] const std::int64_t* if_i64() const noexcept {
    return std::get_if<std::int64_t>(&v_);
  }
  [[nodiscard]] const double* if_double() const noexcept { return std::get_if<double>(&v_); }
  [[nodiscard]] const std::string* if_string() const noexcept {
    return std::get_if<std::string>(&v_);
  }
  [[nodiscard]] const DocTable* if_table() const noexcept { return std::get_if<DocTable>(&v_); }

  /// "bool" | "integer" | "float" | "string" | "table", for error messages.
  [[nodiscard]] const char* type_name() const noexcept;

  [[nodiscard]] const Variant& raw() const noexcept { return v_; }

  friend bool operator==(const DocValue& a, const DocValue& b);

 private:
  Variant v_;
};

struct DocEntry {
  std::string key;
  DocValue value;

  friend bool operator==(const DocEntry& a, const DocEntry& b) {
    return a.key == b.key && a.value == b.value;
  }
};

/// First entry with `key`, or nullptr.
[[nodiscard]] const DocValue* doc_find(const DocTable& table, std::string_view key);

/// Shortest text that round-trips the double exactly (std::to_chars);
/// integral values gain a ".0" suffix so they read back as floats.
[[nodiscard]] std::string format_double(double v);

// ---- TOML subset -------------------------------------------------------------
// Top-level scalars first, then one [section] per table-valued entry (deeper
// nesting throws std::invalid_argument — the scenario schema is flat).
// Parsing accepts comments (#), blank lines, quoted strings with
// \" \\ \n \t \r escapes, booleans, signed/unsigned integers, and floats
// (including inf/nan). Duplicate keys and malformed lines throw
// std::invalid_argument with the line number.
[[nodiscard]] std::string to_toml(const DocTable& root);
[[nodiscard]] DocTable parse_toml(std::string_view text);

// ---- JSON --------------------------------------------------------------------
// One object, nested at most 64 objects deep (deeper input throws
// std::invalid_argument with the line number); pretty-printed with 2-space
// indent. The parser accepts the superset with bare inf/nan number tokens.
[[nodiscard]] std::string to_json(const DocTable& root);
[[nodiscard]] DocTable parse_json(std::string_view text);

}  // namespace ebrc::util
