#include "util/cli.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <stdexcept>

namespace ebrc::util {

Cli::Cli(int argc, const char* const* argv) {
  if (argc > 0) program_ = argv[0];
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(std::move(arg));
      continue;
    }
    arg.erase(0, 2);
    if (arg.empty()) throw std::invalid_argument("bare '--' is not a valid flag");
    const auto set = [this](const std::string& name, std::optional<std::string> value) {
      if (!flags_.emplace(name, std::move(value)).second) {
        throw std::invalid_argument("flag --" + name + " given more than once");
      }
    };
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      set(arg.substr(0, eq), arg.substr(eq + 1));
      continue;
    }
    // `--flag value` form: consume the next token only when it parses as a
    // number — otherwise `--verbose input.txt` would swallow the positional.
    const auto is_number = [](const std::string& s) {
      if (s.empty()) return false;
      char* end = nullptr;
      (void)std::strtod(s.c_str(), &end);
      return end == s.c_str() + s.size();
    };
    if (i + 1 < argc && is_number(argv[i + 1])) {
      set(arg, std::string(argv[++i]));
    } else {
      set(arg, std::nullopt);
    }
  }
}

bool Cli::has(const std::string& name) const { return flags_.count(name) > 0; }

std::string Cli::get(const std::string& name, const std::string& fallback) const {
  const auto it = flags_.find(name);
  if (it == flags_.end() || !it->second) return fallback;
  return *it->second;
}

double Cli::get(const std::string& name, double fallback) const {
  const auto it = flags_.find(name);
  if (it == flags_.end() || !it->second) return fallback;
  const std::string& v = *it->second;
  // Whole-token parse: std::stod would silently read "10s" as 10.
  double parsed = 0.0;
  try {
    std::size_t pos = 0;
    parsed = std::stod(v, &pos);
    if (pos != v.size()) throw std::invalid_argument("trailing characters");
  } catch (const std::exception&) {
    throw std::invalid_argument("flag --" + name + " expects a number, got '" + v + "'");
  }
  // NaN slips past every `<= 0` range guard, so no caller sees one.
  if (!std::isfinite(parsed)) {
    throw std::invalid_argument("flag --" + name + " expects a finite number, got '" + v + "'");
  }
  return parsed;
}

int Cli::get(const std::string& name, int fallback) const {
  const auto it = flags_.find(name);
  if (it == flags_.end() || !it->second) return fallback;
  const std::string& v = *it->second;
  // Whole-token parse: std::stoi would silently read "1e2" as 1.
  try {
    std::size_t pos = 0;
    const long long parsed = std::stoll(v, &pos);
    if (pos != v.size()) throw std::invalid_argument("trailing characters");
    if (parsed < std::numeric_limits<int>::min() ||
        parsed > std::numeric_limits<int>::max()) {
      throw std::out_of_range("out of int range");
    }
    return static_cast<int>(parsed);
  } catch (const std::exception&) {
    throw std::invalid_argument("flag --" + name + " expects an integer, got '" + v + "'");
  }
}

std::uint64_t Cli::get(const std::string& name, std::uint64_t fallback) const {
  const auto it = flags_.find(name);
  if (it == flags_.end() || !it->second) return fallback;
  const std::string& v = *it->second;
  try {
    if (!v.empty() && v[0] == '-') throw std::invalid_argument("negative");
    std::size_t pos = 0;
    const unsigned long long parsed = std::stoull(v, &pos);
    if (pos != v.size()) throw std::invalid_argument("trailing characters");
    return static_cast<std::uint64_t>(parsed);
  } catch (const std::exception&) {
    throw std::invalid_argument("flag --" + name + " expects an unsigned 64-bit integer, got '" +
                                v + "'");
  }
}

bool Cli::get(const std::string& name, bool fallback) const {
  const auto it = flags_.find(name);
  if (it == flags_.end()) return fallback;
  if (!it->second) return true;  // bare `--flag` means true
  const std::string& v = *it->second;
  if (v == "1" || v == "true" || v == "yes" || v == "on") return true;
  if (v == "0" || v == "false" || v == "no" || v == "off") return false;
  throw std::invalid_argument("flag --" + name + " expects a boolean, got '" + v + "'");
}

std::vector<std::int64_t> parse_positive_int_list(const std::string& flag_name,
                                                  const std::string& csv) {
  const auto bad = [&flag_name](const std::string& tok) {
    return std::invalid_argument("flag --" + flag_name +
                                 " expects a comma-separated list of positive integers, got '" +
                                 tok + "'");
  };
  std::vector<std::int64_t> out;
  std::size_t start = 0;
  while (start <= csv.size()) {
    const std::size_t comma = csv.find(',', start);
    const std::string tok =
        csv.substr(start, comma == std::string::npos ? std::string::npos : comma - start);
    start = comma == std::string::npos ? csv.size() + 1 : comma + 1;
    if (tok.empty()) throw bad(tok);
    std::int64_t value = 0;
    try {
      std::size_t pos = 0;
      value = std::stoll(tok, &pos);
      if (pos != tok.size()) {
        // Not a plain integer token; accept integral scientific notation
        // ("1e6") via a whole-token double parse that must round-trip.
        pos = 0;
        const double d = std::stod(tok, &pos);
        if (pos != tok.size()) throw std::invalid_argument("trailing characters");
        if (!(d >= 1.0 && d <= 9.2e18) || d != std::floor(d)) {
          throw std::invalid_argument("not a positive integer");
        }
        value = static_cast<std::int64_t>(d);
      }
    } catch (const std::exception&) {
      throw bad(tok);
    }
    if (value <= 0) throw bad(tok);
    out.push_back(value);
  }
  return out;
}

Cli& Cli::know(const std::string& name) {
  known_.push_back(name);
  return *this;
}

void Cli::finish() const {
  for (const auto& [name, value] : flags_) {
    (void)value;
    if (std::find(known_.begin(), known_.end(), name) == known_.end()) {
      std::string msg = "unknown flag --" + name;
      if (!known_.empty()) {
        msg += " (known flags:";
        for (const auto& k : known_) msg += " --" + k;
        msg += ")";
      }
      throw std::invalid_argument(msg);
    }
  }
}

}  // namespace ebrc::util
