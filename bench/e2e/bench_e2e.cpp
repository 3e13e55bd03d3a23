// bench_e2e — the program behind the end-to-end + per-layer benchmark.
// run.py generates a plan from the workload seed and runs this once per
// workload run, each in its own process so RSS and CPU are attributable:
//
//   bench_e2e --plan=FILE --work-dir=DIR --seconds=S      timed run
//   bench_e2e --plan=FILE --work-dir=DIR --prepare        sweep_warm's store
//   bench_e2e --plan=FILE --work-dir=DIR --trace-dir=DIR  traced run
//
// The timed run repeats its set-up, then passes of the workload until
// --seconds have elapsed. The traced run does one untraced and one traced
// pass, then the layer probe suite, and writes <workload>.trace.json
// (chrome://tracing / Perfetto) and <workload>.layers.json to --trace-dir.
// The last stdout line is one JSON object of raw samples, digests, and
// checks; run.py turns it into the named metrics. Every cache, handoff, and
// store file lives under --work-dir.
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "churn.hpp"
#include "layers.hpp"
#include "measure.hpp"
#include "plan.hpp"
#include "probes.hpp"
#include "spans.hpp"
#include "sweeps.hpp"
#include "util/cli.hpp"

namespace {

using namespace ebrc;
using namespace ebrc::e2e;

void write_file(const std::filesystem::path& path, const std::string& text) {
  std::ofstream out(path, std::ios::trunc);
  if (!(out << text) || !out.flush()) {
    throw std::runtime_error("cannot write " + path.string());
  }
}

std::string layers_json(const Layers& layers) {
  JsonObject o;
  for (const auto& [name, v] : layers) o.num(name, v);
  return o.done();
}

template <typename T>
std::vector<double> column(const RunReport& rep, T PassSample::*field) {
  std::vector<double> out;
  for (const auto& p : rep.passes) out.push_back(static_cast<double>(p.*field));
  return out;
}

int run(int argc, char** argv) {
  util::Cli cli(argc, argv);
  cli.know("plan").know("work-dir").know("seconds").know("prepare").know("trace-dir");
  const std::string plan_path = cli.get("plan", std::string{});
  const std::filesystem::path work = cli.get("work-dir", std::string{});
  const double seconds = cli.get("seconds", 10.0);
  const bool prepare = cli.get("prepare", false);
  const std::string trace_dir = cli.get("trace-dir", std::string{});
  cli.finish();
  if (plan_path.empty() || work.empty()) {
    throw std::invalid_argument("--plan and --work-dir are required");
  }
  const Plan plan = load_plan(plan_path);
  const auto sweep = sweep_kind(plan.workload);
  if (!sweep && plan.workload != "churn_100k") {
    throw std::invalid_argument("unknown workload '" + plan.workload + "'");
  }
  std::filesystem::create_directories(work);

  JsonObject out;
  out.str("workload", plan.workload);
  RunReport rep;
  if (prepare) {
    if (sweep != Sweep::kSweepWarm) throw std::invalid_argument("--prepare is for sweep_warm");
    out.str("mode", "prepare");
    rep = prepare_warm(plan, work);
  } else if (!trace_dir.empty()) {
    out.str("mode", "trace");
    SpanRecorder rec;
    Layers layers;
    rep = sweep ? trace_sweep(*sweep, plan, work, rec, layers) : trace_churn(plan, rec, layers);
    run_probes(plan, work, kJobs, rec, layers, rep);
    const std::filesystem::path dir = trace_dir;
    std::filesystem::create_directories(dir);
    const auto trace_file = dir / (plan.workload + ".trace.json");
    const auto layers_file = dir / (plan.workload + ".layers.json");
    if (!rec.write_chrome_trace(trace_file.string(), "bench_e2e " + plan.workload)) {
      throw std::runtime_error("cannot write " + trace_file.string());
    }
    write_file(layers_file, JsonObject()
                                .str("workload", plan.workload)
                                .raw("metrics", layers_json(layers))
                                .raw("spans", rec.summary_json())
                                .done() +
                                "\n");
    out.raw("layers", layers_json(layers))
        .str("trace_file", trace_file.string())
        .str("layers_file", layers_file.string());
  } else {
    out.str("mode", "timed");
    rep = sweep ? time_sweep(*sweep, plan, work, seconds) : time_churn(plan, seconds);
  }
  out.num("setup_s", rep.setup_s)
      .num("setup_reps", static_cast<double>(rep.setup_reps))
      .nums("pass_wall_s", column(rep, &PassSample::wall_s))
      .nums("pass_cpu_s", column(rep, &PassSample::cpu_s))
      .nums("pass_sim_s", column(rep, &PassSample::sim_s))
      .nums("pass_cells", column(rep, &PassSample::cells))
      .nums("pass_peak_rss_mb", column(rep, &PassSample::peak_rss_mb))
      .str("digest", hex(rep.digest))
      .num("attempted", static_cast<double>(rep.attempted))
      .num("failed", static_cast<double>(std::min(rep.failed, rep.attempted)))
      .raw("checks", checks_json(rep.checks));
  std::printf("%s\n", out.done().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_e2e: %s\n", e.what());
    return 2;
  }
}
