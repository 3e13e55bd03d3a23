// The run plan: every input of one benchmark run, generated by run.py from
// the workload seed. bench_e2e derives nothing itself — it only builds what
// the plan names, through the repository's public scenario factories.
//
//   ebrc-e2e-plan v1
//   workload fig05_cold
//   pass ns2 name=ns2-red-15mbps-L2-n2 L=2 n=2 duration=600 warmup=120 seed=123
//   ...
//
// After the header, each line is `workload <name>` or
// `<section> <kind> key=value ...`. Sections: `pass` (the workload's timed
// unit of work) and the traced run's probes (`arm`, `pool`, `codec`,
// `isolate`, `obs`). Cell kinds: ns2, lab, churn (sweep cells built with
// ns2_scenario / lab_scenario / churn_scenario), pool (a saturated churn
// cell driven directly), static (an arm of static flows).
#pragma once

#include <charconv>
#include <cstdint>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "testbed/scenario.hpp"

namespace ebrc::e2e {

struct PlanLine {
  std::string section;
  std::string kind;
  std::map<std::string, std::string> kv;
  std::size_t lineno = 0;

  [[nodiscard]] const std::string& text(const std::string& key) const {
    const auto it = kv.find(key);
    if (it == kv.end()) fail("missing key '" + key + "'");
    return it->second;
  }
  [[nodiscard]] std::string text(const std::string& key, const std::string& fallback) const {
    const auto it = kv.find(key);
    return it == kv.end() ? fallback : it->second;
  }
  [[nodiscard]] double num(const std::string& key) const {
    const std::string& s = text(key);
    double v = 0.0;
    const auto r = std::from_chars(s.data(), s.data() + s.size(), v);
    if (r.ec != std::errc{} || r.ptr != s.data() + s.size()) fail("bad number " + key + "=" + s);
    return v;
  }
  [[nodiscard]] std::uint64_t u64(const std::string& key) const {
    const std::string& s = text(key);
    std::uint64_t v = 0;
    const auto r = std::from_chars(s.data(), s.data() + s.size(), v);
    if (s.empty() || r.ec != std::errc{} || r.ptr != s.data() + s.size()) {
      fail("bad integer " + key + "=" + s);
    }
    return v;
  }
  [[nodiscard]] int count(const std::string& key) const {
    const std::uint64_t v = u64(key);
    if (v < 1 || v > 100'000'000) fail("out-of-range count " + key + "=" + text(key));
    return static_cast<int>(v);
  }

  [[noreturn]] void fail(const std::string& what) const {
    throw std::invalid_argument("plan line " + std::to_string(lineno) + ": " + what);
  }
};

struct Plan {
  std::string workload;
  std::vector<PlanLine> lines;

  [[nodiscard]] std::vector<const PlanLine*> section(const std::string& name) const {
    std::vector<const PlanLine*> out;
    for (const auto& l : lines) {
      if (l.section == name) out.push_back(&l);
    }
    return out;
  }
};

[[nodiscard]] inline Plan load_plan(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read plan " + path);
  std::string line;
  if (!std::getline(in, line) || line != "ebrc-e2e-plan v1") {
    throw std::invalid_argument(path + " is not an ebrc-e2e-plan v1 file");
  }
  Plan plan;
  std::size_t lineno = 1;
  while (std::getline(in, line)) {
    ++lineno;
    std::istringstream fields(line);
    std::string head;
    if (!(fields >> head)) continue;
    if (head == "workload") {
      fields >> plan.workload;
      continue;
    }
    PlanLine pl;
    pl.section = head;
    pl.lineno = lineno;
    if (!(fields >> pl.kind)) pl.fail("missing cell kind");
    std::string token;
    while (fields >> token) {
      const auto eq = token.find('=');
      if (eq == std::string::npos || eq == 0) pl.fail("expected key=value, got '" + token + "'");
      pl.kv[token.substr(0, eq)] = token.substr(eq + 1);
    }
    plan.lines.push_back(std::move(pl));
  }
  if (plan.workload.empty()) throw std::invalid_argument(path + ": no workload line");
  return plan;
}

/// Builds one sweep cell through the repository's scenario factories.
[[nodiscard]] inline testbed::Scenario scenario_of(const PlanLine& c) {
  testbed::Scenario s;
  if (c.kind == "ns2") {
    s = testbed::ns2_scenario(c.count("n"), c.count("n"), static_cast<std::size_t>(c.count("L")),
                              c.u64("seed"));
  } else if (c.kind == "lab") {
    s = testbed::lab_scenario(testbed::QueueKind::kRed, 100, c.count("n"), c.u64("seed"));
  } else if (c.kind == "churn") {
    s = testbed::churn_scenario(c.num("rho"), 0.5, c.u64("seed"));
    s.workload.controller = c.text("controller", "");
  } else {
    c.fail("not a sweep cell kind: " + c.kind);
  }
  s.name = c.text("name");
  s.duration_s = c.num("duration");
  s.warmup_s = c.num("warmup");
  return s;
}

[[nodiscard]] inline std::vector<testbed::Scenario> scenarios_of(
    const std::vector<const PlanLine*>& cells) {
  std::vector<testbed::Scenario> out;
  out.reserve(cells.size());
  for (const PlanLine* c : cells) out.push_back(scenario_of(*c));
  return out;
}

}  // namespace ebrc::e2e
