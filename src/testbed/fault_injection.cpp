#include "testbed/fault_injection.hpp"

#include <atomic>
#include <charconv>
#include <limits>
#include <mutex>
#include <stdexcept>

namespace ebrc::testbed::fault {

namespace {

std::mutex g_mu;
std::vector<Injection> g_plan;          // written under g_mu, read lock-free
std::atomic<bool> g_armed{false};       // fast-path gate + publish fence

[[nodiscard]] std::uint64_t parse_u64(std::string_view token, const std::string& context) {
  std::uint64_t v = 0;
  const auto r = std::from_chars(token.data(), token.data() + token.size(), v);
  if (token.empty() || r.ec != std::errc{} || r.ptr != token.data() + token.size()) {
    throw std::invalid_argument("fault plan: malformed number '" + std::string(token) +
                                "' in '" + context + "'");
  }
  return v;
}

[[nodiscard]] Injection parse_token(const std::string& token) {
  const auto at = token.find('@');
  if (at == std::string::npos || at == 0) {
    throw std::invalid_argument("fault plan: expected kind@key[:attempt], got '" + token + "'");
  }
  const std::string kind_name = token.substr(0, at);
  Injection inj;
  bool takes_attempt = false;
  if (kind_name == "throw") {
    inj.kind = Kind::kThrow;
    takes_attempt = true;
  } else if (kind_name == "crash") {
    inj.kind = Kind::kCrash;
    takes_attempt = true;
  } else if (kind_name == "hang") {
    inj.kind = Kind::kHang;
    takes_attempt = true;
  } else if (kind_name == "oom") {
    inj.kind = Kind::kOomStorm;
    takes_attempt = true;
  } else if (kind_name == "torn-cache") {
    inj.kind = Kind::kTornCacheWrite;
  } else if (kind_name == "torn-index") {
    inj.kind = Kind::kTornIndexRecord;
  } else {
    throw std::invalid_argument(
        "fault plan: unknown kind '" + kind_name +
        "' (known: throw, crash, hang, oom, torn-cache, torn-index) in '" + token + "'");
  }

  std::string rest = token.substr(at + 1);
  const auto colon = rest.find(':');
  if (colon != std::string::npos) {
    if (!takes_attempt) {
      throw std::invalid_argument("fault plan: '" + kind_name +
                                  "' takes no :attempt suffix in '" + token + "'");
    }
    const std::string attempt_tok = rest.substr(colon + 1);
    if (attempt_tok == "*") {
      inj.attempt = kEveryAttempt;
    } else {
      const std::uint64_t n = parse_u64(attempt_tok, token);
      if (n > static_cast<std::uint64_t>(std::numeric_limits<int>::max())) {
        throw std::invalid_argument("fault plan: attempt '" + attempt_tok +
                                    "' out of range in '" + token + "'");
      }
      inj.attempt = static_cast<int>(n);
    }
    rest = rest.substr(0, colon);
  }
  inj.key = parse_u64(rest, token);
  return inj;
}

}  // namespace

void arm(std::vector<Injection> plan) {
  std::lock_guard<std::mutex> lock(g_mu);
  g_plan = std::move(plan);
  g_armed.store(!g_plan.empty(), std::memory_order_release);
}

void disarm() { arm({}); }

bool armed() noexcept { return g_armed.load(std::memory_order_acquire); }

bool fire(Kind kind, std::uint64_t key, int attempt) {
  // Lock-free on purpose: fire() runs inside forked worker subprocesses,
  // which inherit the parent's mutexes in whatever state the moment of fork
  // caught them — taking g_mu here could deadlock a child forever. arm()'s
  // release-store on g_armed publishes the plan; the acquire-load above
  // makes reading g_plan without the lock safe as long as nobody re-arms
  // mid-sweep (see the header contract).
  if (!armed()) return false;
  for (const auto& inj : g_plan) {
    if (inj.kind != kind || inj.key != key) continue;
    if (kind != Kind::kTornCacheWrite && kind != Kind::kTornIndexRecord) {
      if (inj.attempt != kEveryAttempt && inj.attempt != attempt) continue;
    }
    return true;
  }
  return false;
}

std::vector<Injection> parse_plan(const std::string& spec) {
  std::vector<Injection> plan;
  std::string token;
  const auto flush = [&] {
    if (!token.empty()) {
      plan.push_back(parse_token(token));
      token.clear();
    }
  };
  for (char c : spec) {
    if (c == ',' || c == ';') {
      flush();
    } else if (c != ' ') {
      token += c;
    }
  }
  flush();
  if (plan.empty()) {
    throw std::invalid_argument("fault plan: no injections in '" + spec + "'");
  }
  return plan;
}

}  // namespace ebrc::testbed::fault
