// Clocks, CPU accounting, digests, order statistics, and the JSON result
// line of the end-to-end benchmark. Everything here measures the program
// from outside: wall time on steady_clock, CPU from getrusage (self plus
// reaped children, so forked sweep workers are charged to the pass that
// spawned them).
#pragma once

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "testbed/experiment.hpp"
#include "testbed/result_store.hpp"
#include "util/binary_io.hpp"
#include "util/json_escape.hpp"

namespace ebrc::e2e {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// User + system CPU seconds of this process and every child it has reaped.
[[nodiscard]] inline double cpu_seconds() {
  rusage self{};
  rusage kids{};
  ::getrusage(RUSAGE_SELF, &self);
  ::getrusage(RUSAGE_CHILDREN, &kids);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + 1e-6 * static_cast<double>(t.tv_usec);
  };
  return tv(self.ru_utime) + tv(self.ru_stime) + tv(kids.ru_utime) + tv(kids.ru_stime);
}

/// Starts a new peak-memory window: hands freed heap back to the system and
/// resets the kernel's high-water mark to the current resident set, so each
/// pass's peak is measured from the same start, as in a fresh process, and
/// not on top of what malloc kept from earlier passes. Where the kernel
/// refuses the reset, peak_rss_mb() reads the peak since the process began.
inline void reset_peak_rss() {
  ::malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
}

/// Peak resident memory in MB since the last reset_peak_rss(): the larger
/// of this process's and that of the largest child it has reaped. The
/// process's own comes from VmHWM, not ru_maxrss, which also remembers the
/// image exec() replaced and cannot be reset.
[[nodiscard]] inline double peak_rss_mb() {
  long self_kb = 0;
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) self_kb = std::stol(line.substr(6));
  }
  rusage kids{};
  ::getrusage(RUSAGE_CHILDREN, &kids);
  return static_cast<double>(std::max(self_kb, kids.ru_maxrss)) / 1024.0;
}

/// The result_digest: FNV-1a over encode_result of the first `count` results
/// (all of them by default), in order.
[[nodiscard]] inline std::uint64_t digest(const std::vector<testbed::ExperimentResult>& rs,
                                          std::size_t count = SIZE_MAX) {
  util::Fnv1a h;
  for (std::size_t i = 0; i < std::min(count, rs.size()); ++i) {
    const std::string payload = testbed::encode_result(rs[i]);
    h.bytes(payload.data(), payload.size());
  }
  return h.digest();
}

[[nodiscard]] inline std::string hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

/// Linear-interpolated quantile, q in [0, 1]; 0 for an empty sample.
[[nodiscard]] inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

[[nodiscard]] inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

struct Check {
  std::string name;
  bool ok = true;
  std::string detail;
};

/// One timed unit of work: a whole sweep pass or one churn cell.
struct PassSample {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  double sim_s = 0.0;  // simulated seconds the pass delivered, summed over cells
  std::size_t cells = 0;
  double peak_rss_mb = 0.0;  // from a reset_peak_rss() just before the pass
};

/// Set-up timing, sampled in short bursts before every pass. Set-up takes
/// microseconds to milliseconds while the host's speed flips between states
/// a fraction of a second long, so one burst sees one state; the median
/// over bursts spread across the whole run is steady where one burst is not.
class SetupTimer {
 public:
  /// Times `setup` (then runs `teardown` untimed) for `span_s` seconds and
  /// at least 5 repetitions.
  template <typename Setup, typename Teardown>
  void burst(Setup&& setup, Teardown&& teardown, double span_s = 0.05) {
    const auto start = Clock::now();
    for (int k = 0; k < 5 || since(start) < span_s; ++k) {
      const auto t0 = Clock::now();
      setup();
      samples_.push_back(since(t0));
      teardown();
    }
  }
  [[nodiscard]] double median_s() const { return median(samples_); }
  [[nodiscard]] std::size_t count() const noexcept { return samples_.size(); }

 private:
  std::vector<double> samples_;
};

/// Everything one bench_e2e invocation measured and checked.
struct RunReport {
  double setup_s = 0.0;  // median of setup_reps repetitions
  std::size_t setup_reps = 0;
  std::vector<PassSample> passes;
  std::uint64_t digest = 0;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<Check> checks;

  /// Records a check outcome; `cells` attempted cells count as failed when
  /// it fails. Repeated checks of one name fold into one entry that keeps
  /// the first failure's detail.
  void check(const std::string& name, bool ok, const std::string& detail, std::size_t cells = 1) {
    auto it = std::find_if(checks.begin(), checks.end(),
                           [&](const Check& c) { return c.name == name; });
    if (it == checks.end()) {
      checks.push_back(Check{name, ok, detail});
    } else if (it->ok && !ok) {
      it->ok = false;
      it->detail = detail;
    }
    if (!ok) failed += cells;
  }
};

/// Builds one JSON object; numbers keep every digit (%.17g), non-finite
/// values become null so the reader rejects them instead of misparsing.
class JsonObject {
 public:
  JsonObject& num(std::string_view key, double v) { return raw(key, number(v)); }
  JsonObject& str(std::string_view key, std::string_view v) {
    std::string quoted = "\"";
    util::json_escape_into(quoted, v);
    quoted += '"';
    return raw(key, quoted);
  }
  JsonObject& boolean(std::string_view key, bool v) { return raw(key, v ? "true" : "false"); }
  JsonObject& nums(std::string_view key, const std::vector<double>& vs) {
    std::string arr = "[";
    for (std::size_t i = 0; i < vs.size(); ++i) {
      if (i > 0) arr += ',';
      arr += number(vs[i]);
    }
    arr += ']';
    return raw(key, arr);
  }
  JsonObject& raw(std::string_view key, std::string_view json) {
    body_ += body_.empty() ? "{\"" : ",\"";
    util::json_escape_into(body_, key);
    body_ += "\":";
    body_ += json;
    return *this;
  }
  [[nodiscard]] std::string done() const { return body_.empty() ? "{}" : body_ + "}"; }

 private:
  static std::string number(double v) {
    if (!std::isfinite(v)) return "null";
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
  }

  std::string body_;
};

[[nodiscard]] inline std::string checks_json(const std::vector<Check>& checks) {
  std::string out = "[";
  for (std::size_t i = 0; i < checks.size(); ++i) {
    if (i > 0) out += ',';
    out += JsonObject()
               .str("name", checks[i].name)
               .boolean("ok", checks[i].ok)
               .str("detail", checks[i].detail)
               .done();
  }
  return out + "]";
}

}  // namespace ebrc::e2e
