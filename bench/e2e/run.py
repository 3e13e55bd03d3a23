#!/usr/bin/env python3
"""End-to-end + per-layer benchmark of the ebrc simulator.

Builds bench_e2e from source (bench/e2e/CMakeLists.txt, Release), generates
every workload's inputs from --seed, runs each workload in its own process,
checks the outputs, and prints every metric by name with its unit. The last
stdout line is one JSON object: {"correct", "attempted", "failed", "metrics"}.
The exit status is non-zero when any output check fails.

  python3 bench/e2e/run.py --workload fig05_cold --seed 1 --seconds 12 --trace 0
  python3 bench/e2e/run.py --workload all --runs 5           # medians, quartiles
  python3 bench/e2e/run.py --workload all --trace 1          # per-layer + traces
  python3 bench/e2e/run.py --smoke                           # whole suite < 30 s
  python3 bench/e2e/run.py --runs 5 --record bench/e2e/records/seed.json

Builds, caches and traces go under $CARGO_TARGET_DIR (default .bench_build)
in the checkout: build in e2e/build, traces in e2e/trace, scratch stores in
e2e/work (removed after each run).
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
WORKLOADS = ["fig05_cold", "churn_100k", "ctrlmx_isolated", "sweep_warm"]
DEFAULT_SEED = 1
HELD_OUT_SEED = 20021
RUN_TIMEOUT_S = 170.0

MASK = (1 << 64) - 1
LINK_PPS = 15e6 / (8 * 1000.0)  # the ns-2 bottleneck's packet capacity
MEAN_TRANSFER_PKTS = 100.0  # churn_scenario's mean transfer size


# ---- input generation ------------------------------------------------------


def fnv1a64(text: str) -> int:
    h = 0xCBF29CE484222325
    for b in text.encode():
        h = ((h ^ b) * 0x100000001B3) & MASK
    return h


def splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & MASK
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & MASK
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & MASK
    return x ^ (x >> 31)


def derive(seed: int, label: str) -> int:
    """Per-cell seed: a pure function of the workload seed and the cell."""
    return splitmix64((seed ^ fnv1a64(label)) & MASK)


def ns2_cells(section: str, seed: int, tag: str, Ls, Ns, duration: float) -> list[str]:
    return [
        f"{section} ns2 name=ns2-red-15mbps-L{L}-n{n} L={L} n={n} duration={duration!r} "
        f"warmup={duration / 5!r} seed={derive(seed, f'{tag}/L{L}/n{n}')}"
        for L in Ls
        for n in Ns
    ]


def ctrlmx_cells(section: str, seed: int, tag: str, reps: int) -> list[str]:
    # Load-major, controller-middle, replication-minor; the four arms at one
    # (load, rep) share a seed: common random numbers, as in bench_controller_matrix.
    out = []
    for rho in (0.5, 0.8, 1.2):
        for ctrl in ("tfrc", "tcp", "delay_aimd", "rcp"):
            for rep in range(reps):
                out.append(
                    f"{section} churn name=ctrlmx-{ctrl}-rho{rho:g} controller={ctrl} "
                    f"rho={rho!r} duration=60.0 warmup=10.0 "
                    f"seed={derive(seed, f'{tag}/rho{rho:g}/rep{rep}')}"
                )
    return out


def pool_line(section: str, seed: int, tag: str, slots: int, ramp: float, window: float,
              rho: float = 1.5, ctrl: str = "") -> str:
    natural = rho * LINK_PPS / MEAN_TRANSFER_PKTS
    if ctrl:  # a churn arm: rho's own arrivals throughout
        kind, arrivals, extra = "churn", natural, f" ctrl={ctrl}"
    else:
        # A filled pool: arrivals raised so the pool fills during the ramp
        # instead of over rho's natural hours; bench_e2e stops them when the
        # ramp ends, so the window runs the admitted flows.
        kind, arrivals, extra = "pool", max(natural, 3.0 * slots / ramp), ""
    return (f"{section} {kind} name={tag} slots={slots} rho={rho!r} "
            f"arrivals={arrivals!r} ramp={ramp!r} window={window!r} "
            f"seed={derive(seed, tag)}{extra}")


def lab_cells(section: str, seed: int, count: int) -> list[str]:
    return [
        f"{section} lab name=lab-red-n8 n=8 duration=4.0 warmup={4.0 / 6!r} "
        f"seed={derive(seed, f'sweep_warm/{k}')}"
        for k in range(count)
    ]


def churn_size(smoke: bool) -> tuple[int, float, float]:
    """(slots, ramp sim-s, window sim-s) of churn_100k's cell and the pool probe."""
    return (20_000, 0.2, 5.0) if smoke else (100_000, 0.4, 50.0)


def make_plan(workload: str, seed: int, smoke: bool, trace: bool) -> str:
    lines = ["ebrc-e2e-plan v1", f"workload {workload}"]
    if workload == "fig05_cold":
        if smoke:
            lines += ns2_cells("pass", seed, "fig05", [8], [2, 8], 60.0)
        else:
            lines += ns2_cells("pass", seed, "fig05", [2, 4, 8, 16], [2, 4, 8, 16, 32, 64], 600.0)
    elif workload == "churn_100k":
        lines.append(pool_line("pass", seed, "churn_100k", *churn_size(smoke)))
    elif workload == "ctrlmx_isolated":
        lines += ctrlmx_cells("pass", seed, "ctrlmx", 1 if smoke else 20)
    elif workload == "sweep_warm":
        lines += lab_cells("pass", seed, 300 if smoke else 10_000)
    if trace:
        lines += probe_plan(seed, smoke)
    return "\n".join(lines) + "\n"


def probe_plan(seed: int, smoke: bool) -> list[str]:
    """The layer probe suite's cells: identical in every workload's traced run."""
    arm_s, entries = (60.0, 1_000) if smoke else (600.0, 10_000)
    lines = [
        f"arm static ctrl={ctrl} flows=8 duration={arm_s!r} warmup={arm_s / 5!r} "
        f"seed={derive(seed, 'probe/' + ctrl)}"
        for ctrl in ("tfrc", "tcp")
    ]
    lines += [
        pool_line("arm", seed, f"probe-{ctrl}", 128, arm_s / 6, arm_s * 5 / 6, rho=1.2, ctrl=ctrl)
        for ctrl in ("delay_aimd", "rcp")
    ]
    lines.append(pool_line("pool", seed, "probe-pool", *churn_size(smoke)))
    lines.append(
        f"codec lab name=lab-red-n8 n=8 duration=4.0 warmup={4.0 / 6!r} "
        f"seed={derive(seed, 'probe/codec')} entries={entries}"
    )
    lines += ctrlmx_cells("isolate", seed, "probe/isolate", 1 if smoke else 2)
    lines += ns2_cells("obs", seed, "probe/obs", [8], [2, 8] if smoke else [2, 4, 8, 16, 32, 64],
                       60.0 if smoke else 600.0)
    return lines


# ---- build and run ---------------------------------------------------------


def out_dir() -> Path:
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return (base if base.is_absolute() else ROOT / base) / "e2e"


def build() -> Path:
    bdir = out_dir() / "build"
    if not (bdir / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(ROOT / "bench" / "e2e"), "-B", str(bdir),
                        "-DCMAKE_BUILD_TYPE=Release"], check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(bdir), "--target", "bench_e2e", "-j",
                    str(os.cpu_count() or 2)], check=True, stdout=sys.stderr)
    return bdir / "bench_e2e"


def run_program(binary: Path, args: list[str], work: Path) -> dict:
    """Runs bench_e2e to completion and returns its result line."""
    env = dict(os.environ, TMPDIR=str(work / "tmp"))
    (work / "tmp").mkdir(parents=True, exist_ok=True)
    proc = subprocess.Popen([str(binary), *args], stdout=subprocess.PIPE, env=env, cwd=ROOT)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    finally:
        if proc.returncode is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"bench_e2e {' '.join(args)} exited {proc.returncode}")
    lines = stdout.decode().strip().splitlines()
    if not lines:
        raise RuntimeError("bench_e2e printed no result")
    return json.loads(lines[-1])


def run_once(binary: Path, spec: dict, workload: str, seed: int, seconds: float, trace: bool,
             smoke: bool) -> dict:
    """One run of one workload; returns metrics, checks, and counts."""
    work = out_dir() / "work" / f"{workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        plan = work / "plan.txt"
        plan.write_text(make_plan(workload, seed, smoke, trace))
        base = [f"--plan={plan}", f"--work-dir={work}"]
        checks = []
        prepared = None
        if workload == "sweep_warm":
            prepared = run_program(binary, base + ["--prepare"], work)
            checks += [dict(c, name="prepare." + c["name"]) for c in prepared["checks"]]
        if trace:
            raw = run_program(binary, base + [f"--trace-dir={out_dir() / 'trace'}"], work)
        else:
            raw = run_program(binary, base + [f"--seconds={seconds!r}"], work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    checks += raw["checks"]
    attempted, failed = int(raw["attempted"]), int(raw["failed"])
    if prepared is not None:
        same = raw["digest"] == prepared["digest"]
        checks.append({"name": "digest_matches_prepare", "ok": same,
                       "detail": f"{raw['digest']} vs {prepared['digest']}"})
        if not same or int(prepared["failed"]):
            failed = attempted  # every pass read a wrong or incomplete cache
    if trace:
        metrics = {m["name"]: raw["layers"].get(m["name"]) for m in spec["per_layer"]}
    else:
        walls = raw["pass_wall_s"]
        metrics = {
            "setup_s": raw["setup_s"],
            "wall_s": statistics.median(walls),
            "cpu_s": statistics.median(raw["pass_cpu_s"]),
            "sim_s_per_s": statistics.median(s / w for s, w in zip(raw["pass_sim_s"], walls)),
            "peak_rss_mb": statistics.median(raw["pass_peak_rss_mb"]),
        }
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    missing = [m["name"] for m in wanted if not isinstance(metrics.get(m["name"]), (int, float))]
    if missing:
        checks.append({"name": "metrics_complete", "ok": False, "detail": " ".join(missing)})
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "metrics": metrics,
        "attempted": attempted,
        "failed": failed,
        "checks": checks,
        "correct": failed == 0 and all(c["ok"] for c in checks),
        "digest": raw["digest"],
        "passes": len(raw["pass_wall_s"]),
        "cells_per_s": statistics.median(
            c / w for c, w in zip(raw["pass_cells"], raw["pass_wall_s"])) if not trace else None,
        "trace_file": raw.get("trace_file"),
        "layers_file": raw.get("layers_file"),
    }


# ---- reporting ---------------------------------------------------------------


def units(spec: dict) -> dict:
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def print_run(res: dict, spec: dict) -> None:
    u = units(spec)
    mode = "traced" if res["trace"] else f"{res['passes']} passes"
    print(f"[{res['workload']}] seed={res['seed']} {mode} "
          f"correct={'yes' if res['correct'] else 'NO'}")
    print(f"  result_digest {res['digest']}")
    for name, value in res["metrics"].items():
        shown = f"{value:<14.6g}" if isinstance(value, (int, float)) else f"{'MISSING':<14}"
        print(f"  {name:<38} {shown} {u[name]}")
    if res["cells_per_s"] is not None:
        print(f"  {'cells_per_s':<38} {res['cells_per_s']:<14.6g} cells/s")
    fail_ratio = res["failed"] / max(1, res["attempted"])
    print(f"  {'fail_ratio':<38} {fail_ratio:<14.6g} ({res['failed']} of {res['attempted']})")
    if res["trace_file"]:
        print(f"  trace  {res['trace_file']}\n  layers {res['layers_file']}")
    for c in res["checks"]:
        if not c["ok"]:
            print(f"  CHECK FAILED {c['name']}: {c['detail']}")


def spread(values: list[float]) -> dict:
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {"median": statistics.median(values), "q1": q[0], "q3": q[2], "n": len(values)}


def summarize(results: list[dict]) -> dict:
    """Per workload: every metric's median and quartiles over its runs."""
    out: dict = {}
    for res in results:
        w = out.setdefault(res["workload"], {})
        for name, value in res["metrics"].items():
            if isinstance(value, (int, float)):
                w.setdefault(name, []).append(value)
    return {w: {name: spread(vs) for name, vs in ms.items()} for w, ms in out.items()}


def print_summary(summary: dict, spec: dict) -> None:
    u = units(spec)
    for w, ms in summary.items():
        print(f"\n== {w}")
        for name, s in ms.items():
            print(f"  {name:<38} {s['median']:<12.6g} [{s['q1']:.6g}, {s['q3']:.6g}] "
                  f"{u[name]} (n={s['n']})")


def host_info() -> dict:
    info = {"nproc": os.cpu_count(), "machine": platform.machine()}
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                info["cpu_model"] = line.split(":", 1)[1].strip()
                break
        for line in Path("/proc/meminfo").read_text().splitlines():
            if line.startswith("MemTotal"):
                info["ram_gb"] = round(int(line.split()[1]) / 1024 / 1024, 1)
    except OSError:
        pass
    return info


def build_info() -> dict:
    cache = {}
    for line in (out_dir() / "build" / "CMakeCache.txt").read_text().splitlines():
        if "=" in line and ":" in line.split("=", 1)[0]:
            key, value = line.split("=", 1)
            cache[key.split(":", 1)[0]] = value
    compiler = cache.get("CMAKE_CXX_COMPILER", "c++")
    try:
        version = subprocess.run([compiler, "--version"], capture_output=True, text=True,
                                 check=True).stdout.splitlines()[0]
    except (OSError, subprocess.CalledProcessError, IndexError):
        version = compiler
    try:
        commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    return {"compiler": version, "build_type": cache.get("CMAKE_BUILD_TYPE", ""),
            "commit": commit}


def write_record(path: Path, results: list[dict], traced: list[dict], spec: dict,
                 args) -> None:
    summary = summarize(results)
    record = {
        "bench": "bench_e2e",
        "recorded": datetime.date.today().isoformat(),
        **build_info(),
        "host": host_info(),
        "seed": args.seed,
        "held_out_seed": HELD_OUT_SEED,
        "run_seconds": args.seconds,
        "runs_per_workload": args.runs,
        "workloads": {
            w: {
                "end_to_end": summary[w],
                "result_digests": sorted({r["digest"] for r in results if r["workload"] == w}),
                "per_layer": next((t["metrics"] for t in traced if t["workload"] == w), {}),
                "correct": all(r["correct"] for r in results + traced if r["workload"] == w),
            }
            for w in summary
        },
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(record, indent=2) + "\n")
    print(f"[record] wrote {path}")


def main() -> int:
    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        print(f"run.py: no repository sources at {ROOT} (need CMakeLists.txt and src/)",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all", choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=None,
                    help="timed length of one run (default: BENCHMARK.json run_seconds)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--runs", type=int, default=1, help="runs per workload")
    ap.add_argument("--smoke", action="store_true", help="tiny sizes: the whole suite < 30 s")
    ap.add_argument("--out", type=Path, help="write every run's metrics (for compare.py)")
    ap.add_argument("--record", type=Path,
                    help="write a record: medians/quartiles of --runs (>= 5) runs plus one "
                         "traced run per workload, with host and build")
    args = ap.parse_args()
    if args.seed < 0 or args.seed > MASK:
        ap.error("--seed must be a 64-bit unsigned integer")
    if args.runs < 1:
        ap.error("--runs must be >= 1")
    if args.record and (args.runs < 5 or args.trace):
        ap.error("--record needs --runs >= 5 and --trace 0")
    if args.seconds is None:
        args.seconds = 1.0 if args.smoke else float(spec["run_seconds"])
    if args.seconds <= 0:
        ap.error("--seconds must be > 0")

    binary = build()
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    results = []
    for w in workloads:
        for _ in range(args.runs):
            res = run_once(binary, spec, w, args.seed, args.seconds, bool(args.trace), args.smoke)
            print_run(res, spec)
            results.append(res)
    traced = []
    if args.record:
        for w in workloads:
            res = run_once(binary, spec, w, args.seed, args.seconds, True, args.smoke)
            print_run(res, spec)
            traced.append(res)
        write_record(args.record, results, traced, spec, args)
    if len(results) > len(workloads) or len(workloads) > 1:
        print_summary(summarize(results), spec)
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps({"runs": results}, indent=1) + "\n")

    everything = results + traced
    correct = all(r["correct"] for r in everything)
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{w}.{name}": s["median"]
                   for w, ms in summarize(results).items() for name, s in ms.items()}
    u = units(spec)
    line = {
        "correct": correct,
        "attempted": sum(r["attempted"] for r in everything),
        "failed": sum(r["failed"] for r in everything),
        # Multi-run names are <workload>.<metric>; per-layer names hold dots too.
        "metrics": {name: {"value": v, "unit": u[name] if name in u else u[name.split(".", 1)[1]]}
                    for name, v in metrics.items()},
    }
    print(json.dumps(line))
    return 0 if correct else 1


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    sys.exit(main())
