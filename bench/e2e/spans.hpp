// Wall-clock spans around the benchmark's calls into the repository's
// modules — the traced run's per-layer breakdown. There are no spans inside
// src/: each one brackets a public call (store.load, experiment.run,
// codec.encode, Simulator::run_until, ...) from the benchmark's own code.
//
// Spans carry name, start, end, parent, thread, and cell; they are kept in
// memory and written once at exit as chrome://tracing JSON (loads in
// Perfetto) plus a per-name summary whose self time is a span's duration
// minus the part of it its child spans cover.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "measure.hpp"

namespace ebrc::e2e {

class SpanRecorder {
 public:
  struct Span {
    const char* name;  // string literal
    double t0 = 0.0;   // seconds since the recorder was created
    double t1 = 0.0;
    int parent = -1;   // index of the parent span, -1 for a root
    int thread = 0;
    long cell = -1;    // batch index of the cell the span belongs to, -1 if none
  };

  int open(const char* name, int parent, long cell) {
    const double t = since(origin_);
    const int thread = thread_id();
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(Span{name, t, t, parent, thread, cell});
    return static_cast<int>(spans_.size() - 1);
  }

  void close(int id) {
    const double t = since(origin_);
    std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<std::size_t>(id)].t1 = t;
  }

  /// Durations in seconds of every span named `name`.
  [[nodiscard]] std::vector<double> durations(std::string_view name) const {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<double> out;
    for (const auto& s : spans_) {
      if (name == s.name) out.push_back(s.t1 - s.t0);
    }
    return out;
  }

  [[nodiscard]] double total(std::string_view name) const {
    double sum = 0.0;
    for (const double d : durations(name)) sum += d;
    return sum;
  }

  /// {"<name>": {"count": n, "total_ms": t, "self_ms": s}, ...}
  [[nodiscard]] std::string summary_json() const {
    std::lock_guard<std::mutex> lock(mu_);
    const std::vector<double> self = self_times();
    struct Acc {
      std::size_t count = 0;
      double total = 0.0;
      double self = 0.0;
    };
    std::map<std::string, Acc> by_name;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      Acc& a = by_name[spans_[i].name];
      ++a.count;
      a.total += spans_[i].t1 - spans_[i].t0;
      a.self += self[i];
    }
    JsonObject out;
    for (const auto& [name, a] : by_name) {
      out.raw(name, JsonObject()
                        .num("count", static_cast<double>(a.count))
                        .num("total_ms", a.total * 1e3)
                        .num("self_ms", a.self * 1e3)
                        .done());
    }
    return out.done();
  }

  /// Trace Event Format JSON: one complete ('X') event per span, on the
  /// thread that ran it, timestamps in wall-clock microseconds.
  [[nodiscard]] bool write_chrome_trace(const std::string& path, std::string_view title) const {
    std::lock_guard<std::mutex> lock(mu_);
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::string name = "\"";
    util::json_escape_into(name, title);
    name += '"';
    std::fprintf(f,
                 "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"
                 "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"args\":{\"name\":%s}}",
                 name.c_str());
    int threads = 0;
    for (const auto& s : spans_) threads = std::max(threads, s.thread + 1);
    for (int t = 0; t < threads; ++t) {
      std::fprintf(f,
                   ",\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":%d,"
                   "\"args\":{\"name\":\"thread %d\"}}",
                   t, t);
    }
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   ",\n{\"name\":\"%s\",\"cat\":\"e2e\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,"
                   "\"pid\":1,\"tid\":%d,\"args\":{\"span\":%zu,\"parent\":%d,\"cell\":%ld}}",
                   s.name, s.t0 * 1e6, (s.t1 - s.t0) * 1e6, s.thread, i, s.parent, s.cell);
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
  }

 private:
  /// Per span: duration minus the union of its children's intervals
  /// (children may run on other threads and overlap each other).
  [[nodiscard]] std::vector<double> self_times() const {
    std::vector<std::vector<std::pair<double, double>>> kids(spans_.size());
    for (const auto& s : spans_) {
      if (s.parent >= 0) kids[static_cast<std::size_t>(s.parent)].emplace_back(s.t0, s.t1);
    }
    std::vector<double> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& p = spans_[i];
      auto& iv = kids[i];
      std::sort(iv.begin(), iv.end());
      double covered = 0.0;
      double reach = p.t0;
      for (const auto& [a, b] : iv) {
        const double lo = std::max(a, reach);
        const double hi = std::min(b, p.t1);
        if (hi > lo) covered += hi - lo;
        reach = std::max(reach, std::min(b, p.t1));
      }
      self[i] = (p.t1 - p.t0) - covered;
    }
    return self;
  }

  static int thread_id() {
    static std::atomic<int> next{0};
    thread_local const int id = next.fetch_add(1);
    return id;
  }

  Clock::time_point origin_ = Clock::now();
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// RAII span. A null recorder records nothing, which is how every traced
/// pass gets its untraced twin from the same code.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* rec, const char* name, int parent = -1, long cell = -1)
      : rec_(rec), id_(rec != nullptr ? rec->open(name, parent, cell) : -1) {}
  ~ScopedSpan() {
    if (rec_ != nullptr) rec_->close(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  [[nodiscard]] int id() const noexcept { return id_; }

 private:
  SpanRecorder* rec_;
  int id_;
};

}  // namespace ebrc::e2e
