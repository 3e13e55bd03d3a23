#include "testbed/batch.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>
#include <mutex>
#include <new>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <type_traits>

#include "obs/flight_recorder.hpp"
#include "obs/run_obs.hpp"
#include "obs/trace.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "testbed/fault_injection.hpp"
#include "testbed/result_store.hpp"
#include "testbed/scenario_io.hpp"
#include "util/doc.hpp"
#include "util/json_escape.hpp"

namespace ebrc::testbed {

ShardSpec::ShardSpec(std::size_t index, std::size_t count) : index(index), count(count) {
  if (count < 1) throw std::invalid_argument("ShardSpec: shard count must be >= 1");
  if (index >= count) {
    throw std::invalid_argument("ShardSpec: --shard-index (" + std::to_string(index) +
                                ") must be < --shard-count (" + std::to_string(count) + ")");
  }
}

std::vector<Scenario> replicate(const Scenario& base, std::uint64_t root_seed, int reps) {
  if (reps < 1) throw std::invalid_argument("replicate: reps must be >= 1");
  std::vector<Scenario> out;
  out.reserve(static_cast<std::size_t>(reps));
  for (int rep = 0; rep < reps; ++rep) {
    Scenario s = base;
    // Seed from (root, name, rep) only: adding replications or reordering the
    // batch never perturbs another replication's sample path.
    s.seed = sim::hash_seed(root_seed, base.name + "#rep" + std::to_string(rep));
    out.push_back(std::move(s));
  }
  return out;
}

PairedBatch replicate_paired(const Scenario& a, const Scenario& b, const std::string& pair_tag,
                             std::uint64_t root_seed, int reps) {
  if (reps < 1) throw std::invalid_argument("replicate_paired: reps must be >= 1");
  if (pair_tag.empty()) throw std::invalid_argument("replicate_paired: empty pair_tag");
  PairedBatch out;
  out.a.reserve(static_cast<std::size_t>(reps));
  out.b.reserve(static_cast<std::size_t>(reps));
  for (int rep = 0; rep < reps; ++rep) {
    const std::uint64_t seed =
        sim::hash_seed(root_seed, pair_tag + "#pair" + std::to_string(rep));
    Scenario sa = a;
    Scenario sb = b;
    sa.seed = seed;
    sb.seed = seed;  // common random numbers: identical derived streams
    out.a.push_back(std::move(sa));
    out.b.push_back(std::move(sb));
  }
  return out;
}

BatchResult paired_difference(const std::vector<ExperimentResult>& a,
                              const std::vector<ExperimentResult>& b) {
  if (a.size() != b.size()) {
    throw std::invalid_argument("paired_difference: arm sizes differ (" +
                                std::to_string(a.size()) + " vs " + std::to_string(b.size()) +
                                ")");
  }
  BatchResult out;
  out.runs = a.size();
  for (std::size_t i = 0; i < a.size(); ++i) {
    const BatchResult ra = aggregate({a[i]});
    const BatchResult rb = aggregate({b[i]});
    for (const auto& [name, moments] : ra.metrics) {
      const auto it = rb.metrics.find(name);
      if (it == rb.metrics.end()) continue;  // keep only metrics both arms report
      out.metrics[name].add(moments.mean() - it->second.mean());
    }
  }
  return out;
}

const stats::OnlineMoments& BatchResult::metric(const std::string& name) const {
  const auto it = metrics.find(name);
  if (it == metrics.end()) {
    std::string msg = "BatchResult: no metric '" + name + "' (known:";
    for (const auto& [k, v] : metrics) {
      (void)v;
      msg += " " + k;
    }
    msg += ")";
    throw std::out_of_range(msg);
  }
  return it->second;
}

namespace {

using workload::FieldName;

/// Folds results into a BatchResult through visit_result: each double and
/// u64 outside a list is a metric under its field name, except after a false
/// flag (workload_active gates the workload block), and each obs entry is a
/// metric "obs_<name>".
struct Aggregator {
  BatchResult& out;
  /// Each field's accumulator by ordinal, looked up (and its name built)
  /// once per aggregate() call, not per result.
  std::vector<stats::OnlineMoments*> slots{};
  /// Each obs entry's accumulator by position, with the entry name it was
  /// found for (a view into its metric key). Results of one kind list the
  /// same names in the same order, so a name check replaces building
  /// "obs_<name>" and a map lookup; a mismatch looks it up and re-points.
  struct ObsSlot {
    std::string_view name;
    stats::OnlineMoments* metric = nullptr;
  };
  std::vector<ObsSlot> obs_slots{};
  std::size_t at = 0;
  bool active = true;

  template <class T>
  void field(FieldName n, const T& v) {
    if (at == slots.size()) slots.push_back(nullptr);
    if constexpr (std::is_same_v<T, bool>) {
      active = v;
    } else if constexpr (std::is_same_v<T, double> || std::is_same_v<T, std::uint64_t>) {
      if (active) {
        if (slots[at] == nullptr) slots[at] = &out.metrics[n.str()];
        slots[at]->add(static_cast<double>(v));
      }
    }
    ++at;
  }
  template <class T, class Fn>
  void list(FieldName, const std::vector<T>&, Fn) {}
  template <class Fn>
  void list(FieldName n, const obs::Snapshot& s, Fn) {
    if (obs_slots.size() < s.size()) obs_slots.resize(s.size());
    for (std::size_t i = 0; i < s.size(); ++i) {
      const auto& [name, v] = s[i];
      ObsSlot& slot = obs_slots[i];
      if (slot.metric == nullptr || slot.name != name) {
        const auto it = out.metrics.try_emplace(std::string(n.pattern) + "_" + name).first;
        slot = {std::string_view(it->first).substr(n.pattern.size() + 1), &it->second};
      }
      slot.metric->add(v);
    }
  }
};

}  // namespace

BatchResult aggregate(const std::vector<ExperimentResult>& runs) {
  BatchResult out;
  out.runs = runs.size();
  Aggregator agg{out};
  for (const auto& r : runs) {
    agg.at = 0;
    agg.active = true;
    visit_result(agg, r);
  }
  return out;
}

BatchRunner::BatchRunner(std::size_t jobs) : jobs_(jobs) {
  if (jobs_ == 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    jobs_ = hw > 0 ? hw : 1;
  }
}

void BatchRunner::dispatch(std::size_t n,
                           void (*invoke)(void*, std::size_t slot, std::size_t i),
                           void* ctx) const {
  if (n == 0) return;
  const std::size_t workers = std::min(jobs_, n);
  if (workers <= 1) {
    for (std::size_t i = 0; i < n; ++i) invoke(ctx, 0, i);
    return;
  }

  std::atomic<std::size_t> next{0};
  std::atomic<bool> failed{false};
  std::exception_ptr first_error;
  std::mutex error_mu;
  const auto worker = [&](std::size_t slot) {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      // Stop claiming work once any index has thrown: a failing batch should
      // rethrow in one run's time, not after finishing the whole sweep.
      if (i >= n || failed.load(std::memory_order_relaxed)) return;
      try {
        invoke(ctx, slot, i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(error_mu);
        if (!first_error) first_error = std::current_exception();
        failed.store(true, std::memory_order_relaxed);
      }
    }
  };

  std::vector<std::thread> pool;
  pool.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w) pool.emplace_back(worker, w);
  for (auto& t : pool) t.join();
  if (first_error) std::rethrow_exception(first_error);
}

std::vector<ExperimentResult> BatchRunner::run(const std::vector<Scenario>& scenarios) const {
  // Delegate to the persistence path with no store: same cell executor, so
  // a crashing cell names itself here too.
  return run(scenarios, nullptr);
}

namespace {

[[nodiscard]] std::string cell_context(std::size_t index, const Scenario& s) {
  return "sweep cell #" + std::to_string(index) + " '" + s.name + "' (seed " +
         std::to_string(s.seed) + ")";
}

[[nodiscard]] double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

// ---- cell-keyed fault injections --------------------------------------------

/// Wedges the current attempt. In a worker subprocess we sleep far past any
/// deadline and let the supervisor's SIGKILL end it; in-process we spin on
/// the cooperative wall-deadline poll, which throws once --cell-deadline
/// expires (or immediately when none is armed — an undetectable in-process
/// hang would otherwise wedge the whole sweep).
void hang_now(bool in_worker) {
  if (in_worker) {
    for (;;) std::this_thread::sleep_for(std::chrono::hours(1));
  }
  if (!sim::thread_wall_deadline_armed()) {
    throw std::runtime_error("injected fault: hang with no --cell-deadline armed");
  }
  for (;;) {
    sim::poll_thread_wall_deadline();
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

/// Allocation storm. In a worker subprocess: cap our own address space, then
/// allocate (and touch) until the cap bites — a deterministic, self-limiting
/// stand-in for the kernel OOM killer — and abort. The attribution line goes
/// out first: under a sanitizer the runtime's allocator does not throw but
/// reports and exits (the supervisor recognises that report), so nothing
/// after the storm would be printed. In-process: throw bad_alloc, modeling
/// allocator exhaustion without destabilizing the sweep.
void oom_now(bool in_worker, std::size_t cell) {
  if (!in_worker) throw std::bad_alloc();
  std::fprintf(stderr, "injected fault: oom storm at cell #%zu, allocating until RLIMIT_AS\n",
               cell);
  std::fflush(stderr);
  rlimit lim{};
  ::getrlimit(RLIMIT_AS, &lim);
  const rlim_t cap = rlim_t{1} << 31;  // 2 GiB: far above the sim footprint
  if (lim.rlim_cur == RLIM_INFINITY || lim.rlim_cur > cap) {
    lim.rlim_cur = cap;
    ::setrlimit(RLIMIT_AS, &lim);
  }
  std::vector<std::unique_ptr<char[]>> hoard;
  try {
    constexpr std::size_t kBlock = std::size_t{16} << 20;
    for (;;) {
      hoard.push_back(std::make_unique<char[]>(kBlock));
      for (std::size_t off = 0; off < kBlock; off += 4096) hoard.back()[off] = 1;
    }
  } catch (const std::bad_alloc&) {
    // The cap bit: die as the kernel OOM killer's victim would.
  }
  std::abort();
}

/// The cell-keyed injections shared by both isolation modes. kThrow and
/// kOomStorm(in-process) surface as exceptions; kCrash aborts whichever
/// process this is — under --isolate=process that is the worker, which is
/// exactly the failure class process isolation exists to contain.
void fire_cell_injections(std::size_t i, int attempt, bool in_worker) {
  if (fault::fire(fault::Kind::kThrow, i, attempt)) {
    throw std::runtime_error("injected fault: throw at cell #" + std::to_string(i) +
                             " attempt " + std::to_string(attempt));
  }
  if (fault::fire(fault::Kind::kCrash, i, attempt)) {
    std::fprintf(stderr, "injected fault: crash at cell #%zu attempt %d\n", i, attempt);
    std::fflush(stderr);
    std::abort();
  }
  if (fault::fire(fault::Kind::kHang, i, attempt)) hang_now(in_worker);
  if (fault::fire(fault::Kind::kOomStorm, i, attempt)) oom_now(in_worker, i);
}

/// Arms the thread-local cooperative deadline for one in-process attempt.
struct WallDeadlineGuard {
  bool armed = false;
  explicit WallDeadlineGuard(double seconds) {
    if (seconds > 0) {
      sim::arm_thread_wall_deadline(seconds);
      armed = true;
    }
  }
  ~WallDeadlineGuard() {
    if (armed) sim::disarm_thread_wall_deadline();
  }
  WallDeadlineGuard(const WallDeadlineGuard&) = delete;
  WallDeadlineGuard& operator=(const WallDeadlineGuard&) = delete;
};

// ---- cell attempts ------------------------------------------------------------

/// What one attempt produced. On failure the executor has filled the
/// caller's CellFailure and names the feed event to emit.
struct Attempt {
  std::optional<ExperimentResult> result;  // set iff the attempt succeeded
  obs::CellTrace trace;                    // in-process cells' full trace
  long rss_kb = -1;                        // the cell's peak RSS; -1 = unknown
  std::string_view failure_event = "cell_failed";
};

/// One attempt on the pool thread itself.
[[nodiscard]] Attempt attempt_in_process(const Scenario& sc, std::size_t i, int attempt,
                                         const RunPolicy& policy, CellFailure& fail) {
  Attempt a;
  const auto t0 = std::chrono::steady_clock::now();
  try {
    // Arm the cooperative wall deadline before the injections so an
    // injected in-process hang spins on a live deadline.
    WallDeadlineGuard deadline_guard(policy.cell_deadline_s);
    fire_cell_injections(i, attempt, /*in_worker=*/false);
    // In-process observability: probes sample at policy.probe_interval_s
    // and the cell's full trace (transfer spans, drop instants, probe
    // counter tracks) is absorbed into the sweep-wide writer on success.
    obs::RunObs ro;
    ro.probe_interval_s = policy.probe_interval_s;
    ro.probe_capacity = policy.probe_capacity;
    ro.trace = policy.trace != nullptr ? &a.trace : nullptr;
    a.result = run_experiment(sc, &ro);
    fail.elapsed_s = seconds_since(t0);
  } catch (const sim::WallDeadlineError& e) {
    // The 64k-event poll preempted a cell running past --cell-deadline.
    fail.elapsed_s = seconds_since(t0);
    fail.timed_out = true;
    fail.what = "cell exceeded --cell-deadline (" + std::to_string(fail.elapsed_s) + " s > " +
                std::to_string(policy.cell_deadline_s) + " s): " + e.what();
  } catch (const std::exception& e) {
    fail.elapsed_s = seconds_since(t0);
    fail.what = e.what();
  } catch (...) {
    fail.elapsed_s = seconds_since(t0);
    fail.what = "unknown exception";
  }
  return a;
}

/// Condenses a stderr tail into a single-line suffix for CellFailure::what.
[[nodiscard]] std::string tail_snippet(const std::string& tail) {
  if (tail.empty()) return {};
  std::string s = tail;
  for (char& c : s) {
    if (c == '\n' || c == '\r' || c == '\t') c = ' ';
  }
  constexpr std::size_t kMax = 240;
  if (s.size() > kMax) s = "..." + s.substr(s.size() - kMax);
  while (!s.empty() && s.back() == ' ') s.pop_back();
  return s;
}

/// Repro bundle for a crashed/killed cell: everything needed to rerun it.
/// Best-effort by design — diagnostics must never fail the sweep.
void write_crash_bundle(const RunPolicy& policy, std::size_t i, int attempt,
                        const Scenario& sc, const WorkerOutcome& outcome,
                        const std::string& flight_path = {}) {
  if (policy.crash_dir.empty()) return;
  namespace fs = std::filesystem;
  const fs::path dir = fs::path(policy.crash_dir) / ("cell-" + std::to_string(i));
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) return;
  if (!flight_path.empty()) {
    // The dead worker's flight-recorder ring: decode it into a human-readable
    // tail of the kernel's last executed events. Best-effort like the rest.
    (void)obs::FlightRecorder::dump_to_text(flight_path,
                                            (dir / "flight_recorder.txt").string());
  }
  try {
    // The scenario TOML serializes the derived seed, so replaying this file
    // replays this exact cell.
    save_scenario(sc, dir / "scenario.toml");
  } catch (...) {
  }
  {
    std::ofstream out(dir / "stderr.txt", std::ios::binary | std::ios::trunc);
    out << outcome.stderr_tail;
  }
  {
    std::ofstream out(dir / "status.txt", std::ios::trunc);
    out << "cell " << i << "\n"
        << "scenario " << sc.name << "\n"
        << "seed " << sc.seed << "\n"
        << "attempt " << attempt << "\n"
        << "outcome " << outcome.describe() << "\n"
        << "exit_code " << outcome.exit_code << "\n"
        << "term_signal " << outcome.term_signal << "\n"
        << "elapsed_s " << outcome.elapsed_s << "\n"
        << "max_rss_kb " << outcome.max_rss_kb << "\n";
  }
  {
    std::ofstream out(dir / "repro.txt", std::ios::trunc);
    out << "# scenario.toml carries this cell's derived seed; with the sweep's\n"
           "# --cache attached, re-running the original invocation simulates\n"
           "# only the missing cells, so it reproduces this crash directly:\n";
    if (!policy.invocation.empty()) out << policy.invocation << "\n";
  }
}

void emit_event(const RunPolicy& policy, std::string_view event, std::size_t i,
                const Scenario& sc, int attempt, double elapsed_s = -1.0, long rss_kb = -1,
                std::string_view detail = {}, std::string_view extra_json = {}) {
  if (policy.events == nullptr) return;
  policy.events->emit(event, i, sc.name, sc.seed, attempt, elapsed_s, rss_kb, detail,
                      extra_json);
}

/// Renders a result's obs snapshot as a `,"obs":{...}` feed fragment (empty
/// string when the snapshot is empty). Non-finite values are emitted as 0 so
/// every feed line stays strict JSON.
[[nodiscard]] std::string obs_json(const obs::Snapshot& snap) {
  if (snap.empty()) return {};
  std::string out = ",\"obs\":{";
  bool first = true;
  char buf[64];
  for (const auto& [name, v] : snap) {
    if (!first) out += ',';
    first = false;
    out += '"';
    util::json_escape_into(out, name);
    std::snprintf(buf, sizeof(buf), "\":%.17g", std::isfinite(v) ? v : 0.0);
    out += buf;
  }
  out += '}';
  return out;
}

/// One pool thread's supervised worker, forked before the pool starts and
/// kept for the whole sweep phase. With crash forensics on, it also owns the
/// worker's flight-recorder ring: mapped here, inherited by every (re)spawned
/// worker through the fork, rewound at each cell start, and dumped into a
/// crashed cell's bundle. The ring's name is unique per process and worker,
/// so concurrent sweeps in one process never share one.
class CellWorker {
 public:
  CellWorker(const std::vector<Scenario>& scenarios, const RunPolicy& policy)
      : scenarios_(scenarios),
        policy_(policy),
        proc_([this](const WorkerRequest& req) { return serve(req); }) {
    if (!policy.crash_dir.empty()) {
      static std::atomic<std::uint64_t> next{0};
      flight_path_ = (std::filesystem::temp_directory_path() /
                      ("ebrc-worker-" + std::to_string(::getpid()) + "-" +
                       std::to_string(next.fetch_add(1)) + ".flight"))
                         .string();
      flight_ = obs::FlightRecorder::create(flight_path_);
    }
    proc_.spawn();
  }
  ~CellWorker() {
    proc_.retire();
    std::error_code ec;
    if (flight_ != nullptr) std::filesystem::remove(flight_path_, ec);
  }
  CellWorker(const CellWorker&) = delete;
  CellWorker& operator=(const CellWorker&) = delete;

  [[nodiscard]] std::size_t spawned() const noexcept { return proc_.spawned(); }

  /// One attempt of cell `i` on this worker; any way the worker can die —
  /// throw, SIGSEGV, OOM kill, wedge — lands here as a failed Attempt.
  [[nodiscard]] Attempt run(std::size_t i, int attempt, CellFailure& fail) {
    Attempt a;
    WorkerLimits limits;
    limits.deadline_s = policy_.cell_deadline_s;
    std::string reply;
    WorkerOutcome o = proc_.call({i, attempt}, limits, reply);
    if (o.ok) {
      a.result = decode_result(reply);
      if (!a.result) {
        // The worker's state is suspect: replace it rather than trust it.
        proc_.retire();  // it exits 0 on the closed channel
        o.ok = false;
        o.exit_code = 0;
        o.stderr_tail += "worker replied with an undecodable result\n";
      }
    }
    fail.elapsed_s = o.elapsed_s;
    fail.max_rss_kb = o.max_rss_kb;
    a.rss_kb = o.max_rss_kb;
    if (a.result) return a;
    fail.crashed = o.crashed;
    fail.signal = o.term_signal;
    fail.timed_out = o.killed;
    fail.what = o.describe();
    if (const std::string snippet = tail_snippet(o.stderr_tail); !snippet.empty()) {
      fail.what += "; stderr: " + snippet;
    }
    if (o.crashed || o.killed) {
      write_crash_bundle(policy_, i, attempt, scenarios_[i], o,
                         flight_ != nullptr ? flight_path_ : std::string{});
    }
    a.failure_event = o.killed ? "cell_killed" : o.crashed ? "cell_crashed" : "cell_failed";
    return a;
  }

 private:
  /// The worker's side of one request: the in-process executor's code path
  /// (same code, same seed — bit-identical numbers), minus the store.
  [[nodiscard]] std::string serve(const WorkerRequest& req) const {
    const auto i = static_cast<std::size_t>(req.cell);
    obs::RunObs ro;
    ro.probe_interval_s = policy_.probe_interval_s;
    ro.probe_capacity = policy_.probe_capacity;
    if (flight_ != nullptr) {
      // Rewound before the injections: an attempt that crashes at t=0 still
      // leaves a valid (empty) ring, and a dump never shows an earlier cell.
      flight_->reset();
      ro.ring = flight_->ring();
    }
    fire_cell_injections(i, static_cast<int>(req.attempt), /*in_worker=*/true);
    return encode_result(run_experiment(scenarios_[i], &ro));
  }

  const std::vector<Scenario>& scenarios_;
  const RunPolicy& policy_;
  std::string flight_path_;
  std::unique_ptr<obs::FlightRecorder> flight_;
  SupervisedWorker proc_;
};

}  // namespace

std::vector<ExperimentResult> BatchRunner::run(const std::vector<Scenario>& scenarios,
                                               const ResultStore* store, ShardSpec shard,
                                               SweepReport* report,
                                               const RunPolicy& policy) const {
  const std::size_t n = scenarios.size();
  std::vector<ExperimentResult> out(n);
  SweepReport rep;
  rep.total = n;
  rep.available.assign(n, 0);
  const ResultStore::Counters before =
      store != nullptr ? store->counters() : ResultStore::Counters{};

  // Phase 1: probe the cache for EVERY index, not only owned ones — a warm
  // store makes any shard's run complete, which is exactly how a merge pass
  // reconstructs the full sweep without simulating. The store's index
  // answers outright misses in memory, so this phase costs one filesystem
  // read per HIT, never per cell.
  std::vector<std::uint8_t> hit(n, 0);
  if (store != nullptr) {
    auto probe = [&](std::size_t i) {
      if (auto cached = store->load(scenarios[i])) {
        out[i] = std::move(*cached);
        hit[i] = 1;
      }
    };
    dispatch(
        n,
        [](void* ctx, std::size_t, std::size_t i) { (*static_cast<decltype(probe)*>(ctx))(i); },
        &probe);
  }

  // Phase 2: simulate the misses this shard owns, persisting each result as
  // it lands so an interrupted sweep keeps its finished work. Each cell runs
  // an attempt loop — retries reuse the cell's UNCHANGED derived seed, so a
  // recovered transient failure is bit-identical to a run that never failed
  // (common random numbers survive). Under keep_going a cell that exhausts
  // its attempts becomes a CellFailure instead of aborting the sweep.
  std::vector<std::size_t> todo;
  for (std::size_t i = 0; i < n; ++i) {
    if (hit[i] != 0) {
      rep.available[i] = 1;
      ++rep.hits;
    } else if (shard.owns(i)) {
      todo.push_back(i);
    } else {
      ++rep.skipped;
    }
  }
  // Process isolation: one supervised worker per pool thread, forked here,
  // before dispatch starts its threads (so a warm sweep forks nothing), and
  // reaped before run() returns.
  const bool isolate = policy.isolate == IsolationMode::kProcess;
  std::vector<std::unique_ptr<CellWorker>> workers;
  if (isolate) {
    const std::size_t count = std::min(jobs_, todo.size());
    for (std::size_t w = 0; w < count; ++w) {
      workers.push_back(std::make_unique<CellWorker>(scenarios, policy));
    }
  }
  std::vector<std::uint8_t> done(n, 0);
  std::mutex failures_mu;
  std::vector<CellFailure> failures;
  std::atomic<std::size_t> retried{0};
  auto simulate = [&](std::size_t slot, std::size_t k) {
    const std::size_t i = todo[k];
    const Scenario& sc = scenarios[i];
    const int attempts_allowed = 1 + std::max(0, policy.max_retries);
    CellFailure fail;
    fail.index = i;
    fail.scenario = sc.name;
    fail.seed = sc.seed;
    fail.shard = shard.index;
    for (int attempt = 0; attempt < attempts_allowed; ++attempt) {
      if (attempt > 0) {
        retried.fetch_add(1, std::memory_order_relaxed);
        emit_event(policy, "retry", i, sc, attempt);
        if (policy.backoff_base_s > 0) {
          // Deterministic exponential backoff: base * 2^(attempt-1).
          const double scale = static_cast<double>(1ull << std::min(attempt - 1, 30));
          std::this_thread::sleep_for(
              std::chrono::duration<double>(policy.backoff_base_s * scale));
        }
      }
      fail.attempts = attempt + 1;
      fail.timed_out = false;
      fail.crashed = false;
      fail.signal = 0;
      emit_event(policy, "cell_start", i, sc, attempt);
      Attempt a = isolate ? workers[slot]->run(i, attempt, fail)
                          : attempt_in_process(sc, i, attempt, policy, fail);
      if (a.result) {
        out[i] = std::move(*a.result);
        if (store != nullptr) store->store(sc, out[i]);
        done[i] = 1;
        if (policy.trace != nullptr) {
          // An isolated cell's trace buffer lives in its worker, so it
          // contributes only the attempt span (retries name themselves).
          a.trace.span(0.0, sc.duration_s,
                       attempt > 0 ? "attempt (retry " + std::to_string(attempt) + ")"
                                   : "attempt",
                       "run");
          policy.trace->absorb(i, sc.name, std::move(a.trace));
        }
        emit_event(policy, "cell_done", i, sc, attempt, fail.elapsed_s, a.rss_kb, {},
                   obs_json(out[i].obs));
        return;
      }
      // A retry (same seed) may clear a transient failure, stall, or crash.
      emit_event(policy, a.failure_event, i, sc, attempt, fail.elapsed_s, a.rss_kb, fail.what);
    }
    if (!policy.keep_going) {
      // Fail fast, but never anonymously: a crashing million-cell sweep
      // must name its cell.
      throw std::runtime_error(cell_context(i, sc) + " failed after " +
                               std::to_string(fail.attempts) + " attempt(s): " + fail.what);
    }
    std::lock_guard<std::mutex> lock(failures_mu);
    failures.push_back(std::move(fail));
  };
  dispatch(
      todo.size(),
      [](void* ctx, std::size_t slot, std::size_t k) {
        (*static_cast<decltype(simulate)*>(ctx))(slot, k);
      },
      &simulate);
  for (const auto& w : workers) rep.workers_spawned += w->spawned();
  workers.clear();  // reaps them: their CPU time is this run's
  for (std::size_t i : todo) {
    if (done[i] != 0) {
      rep.available[i] = 1;
      ++rep.simulated;
    }
  }

  // Worker interleaving is nondeterministic; the manifest order is not.
  std::sort(failures.begin(), failures.end(),
            [](const CellFailure& a, const CellFailure& b) { return a.index < b.index; });
  rep.failed = failures.size();
  for (const auto& f : failures) {
    if (f.timed_out) ++rep.timed_out;
    if (f.crashed) ++rep.crashed;
  }
  rep.retried = retried.load(std::memory_order_relaxed);
  rep.failures = std::move(failures);
  if (store != nullptr) {
    rep.quarantined = store->counters().quarantined - before.quarantined;
  }

  if (report != nullptr) *report = std::move(rep);
  return out;
}

// ---- sweep summaries ---------------------------------------------------------

BatchResult merge_batch_results(const std::vector<BatchResult>& parts) {
  BatchResult out;
  for (const auto& p : parts) {
    out.runs += p.runs;
    for (const auto& [name, moments] : p.metrics) out.metrics[name].merge(moments);
  }
  return out;
}

namespace {

[[nodiscard]] double parse_double_token(const std::string& token, const std::string& context) {
  double v = 0.0;
  const char* first = token.data();
  const char* last = token.data() + token.size();
  const auto r = std::from_chars(first, last, v);
  if (r.ec != std::errc{} || r.ptr != last) {
    throw std::invalid_argument("batch-result file: malformed number '" + token + "' in " +
                                context);
  }
  return v;
}

}  // namespace

void save_batch_result(const BatchResult& result, const std::filesystem::path& path) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw std::runtime_error("save_batch_result: cannot open " + path.string());
  out << "ebrc-batch-result v1\n";
  out << "runs " << result.runs << "\n";
  for (const auto& [name, m] : result.metrics) {
    if (name.find_first_of(" \t\n") != std::string::npos) {
      throw std::invalid_argument("save_batch_result: metric name with whitespace: '" + name +
                                  "'");
    }
    out << "metric " << name << ' ' << m.count() << ' ' << util::format_double(m.mean()) << ' '
        << util::format_double(m.m2()) << ' ' << util::format_double(m.min()) << ' '
        << util::format_double(m.max()) << "\n";
  }
  if (!out.flush()) {
    throw std::runtime_error("save_batch_result: write failed for " + path.string());
  }
}

BatchResult load_batch_result(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("load_batch_result: cannot open " + path.string());
  std::string header;
  std::getline(in, header);
  if (header != "ebrc-batch-result v1") {
    throw std::invalid_argument("load_batch_result: " + path.string() +
                                " is not a batch-result file");
  }
  BatchResult out;
  std::string line;
  bool saw_runs = false;
  const auto parse_count = [](const std::string& token, const std::string& context) {
    std::uint64_t count = 0;
    const auto r = std::from_chars(token.data(), token.data() + token.size(), count);
    if (token.empty() || r.ec != std::errc{} || r.ptr != token.data() + token.size()) {
      throw std::invalid_argument("batch-result file: malformed count '" + token + "' in " +
                                  context);
    }
    return count;
  };
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::istringstream fields(line);
    std::string tag;
    fields >> tag;
    if (tag == "runs") {
      if (saw_runs) {
        throw std::invalid_argument("load_batch_result: duplicate 'runs' line");
      }
      std::string runs_tok;
      fields >> runs_tok;
      out.runs = parse_count(runs_tok, line);
      saw_runs = true;
    } else if (tag == "metric") {
      std::string name, count_tok, mean_tok, m2_tok, min_tok, max_tok;
      fields >> name >> count_tok >> mean_tok >> m2_tok >> min_tok >> max_tok;
      if (fields.fail() || name.empty()) {
        throw std::invalid_argument("load_batch_result: malformed metric line '" + line + "'");
      }
      if (out.metrics.count(name) != 0) {
        throw std::invalid_argument("load_batch_result: duplicate metric '" + name + "'");
      }
      out.metrics[name] = stats::OnlineMoments::from_state(
          parse_count(count_tok, line), parse_double_token(mean_tok, line),
          parse_double_token(m2_tok, line), parse_double_token(min_tok, line),
          parse_double_token(max_tok, line));
    } else {
      throw std::invalid_argument("load_batch_result: unknown line '" + line + "'");
    }
  }
  if (!saw_runs) {
    throw std::invalid_argument("load_batch_result: missing 'runs' line in " + path.string());
  }
  return out;
}

// ---- failure manifest --------------------------------------------------------

void save_failure_manifest(const std::vector<CellFailure>& failures,
                           const std::filesystem::path& path) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw std::runtime_error("save_failure_manifest: cannot open " + path.string());
  out << "ebrc-failure-manifest v2\n";
  out << "failures " << failures.size() << "\n";
  for (const auto& f : failures) {
    std::string name = f.scenario;
    for (char& c : name) {
      // Readers split the line on whitespace; any control character
      // (operator>> treats \v and \f as whitespace too) would shear it apart.
      const auto u = static_cast<unsigned char>(c);
      if (u <= 0x20 || u == 0x7f) c = '_';
    }
    std::string what = f.what;
    for (char& c : what) {
      if (c == '\n' || c == '\r') c = ' ';
    }
    out << "cell " << f.index << " seed " << f.seed << " shard " << f.shard << " attempts "
        << f.attempts << " timed_out " << (f.timed_out ? 1 : 0) << " crashed "
        << (f.crashed ? 1 : 0) << " signal " << f.signal << " elapsed_s "
        << util::format_double(f.elapsed_s) << " scenario " << name << " what " << what << "\n";
  }
  if (!out.flush()) {
    throw std::runtime_error("save_failure_manifest: write failed for " + path.string());
  }
}

}  // namespace ebrc::testbed
