// Minimal command-line flag parser used by the bench and example binaries.
//
// Supports `--flag`, `--flag=value` and `--flag value` forms. Unknown and
// repeated flags raise an error so typos in experiment scripts do not
// silently run the default (or the last-spelled) configuration.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace ebrc::util {

class Cli {
 public:
  /// Parses argv. Throws std::invalid_argument on malformed input or a flag
  /// given more than once.
  Cli(int argc, const char* const* argv);

  /// True when `--name` was present (with or without a value).
  [[nodiscard]] bool has(const std::string& name) const;

  /// Value of `--name` or `fallback` when absent. The numeric overloads
  /// parse the whole token; the double one also rejects `nan` and `inf`.
  [[nodiscard]] std::string get(const std::string& name, const std::string& fallback) const;
  [[nodiscard]] double get(const std::string& name, double fallback) const;
  [[nodiscard]] int get(const std::string& name, int fallback) const;
  /// Full-width unsigned parse (seeds are 64-bit; the int overload would
  /// truncate or throw on values past 2^31).
  [[nodiscard]] std::uint64_t get(const std::string& name, std::uint64_t fallback) const;
  [[nodiscard]] bool get(const std::string& name, bool fallback) const;

  /// Positional (non-flag) arguments in order of appearance.
  [[nodiscard]] const std::vector<std::string>& positional() const noexcept { return positional_; }

  /// Program name (argv[0]).
  [[nodiscard]] const std::string& program() const noexcept { return program_; }

  /// Declares a flag as known; returns *this for chaining. Calling
  /// `finish()` afterwards rejects any flag never declared.
  Cli& know(const std::string& name);

  /// Throws std::invalid_argument if an undeclared flag was passed.
  void finish() const;

 private:
  std::string program_;
  std::map<std::string, std::optional<std::string>> flags_;
  std::vector<std::string> positional_;
  std::vector<std::string> known_;
};

/// Parses a comma-separated list of strictly positive 64-bit integers, e.g.
/// "100,300,1e6". Each token is parsed whole (no trailing junk); integral
/// scientific notation is accepted so big pool sizes don't need six zeros.
/// Throws std::invalid_argument naming the flag and the offending token.
[[nodiscard]] std::vector<std::int64_t> parse_positive_int_list(const std::string& flag_name,
                                                                const std::string& csv);

}  // namespace ebrc::util
