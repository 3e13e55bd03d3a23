#!/usr/bin/env python3
"""A/B comparison of two bench_e2e result sets, one row per workload and metric.

  python3 bench/e2e/compare.py PARENT.json CHANGE.json
  python3 bench/e2e/compare.py --run PARENT_CHECKOUT CHANGE_CHECKOUT \
      [--pairs 10] [--workload W ...] [--seed N] [--seconds S] [--save DIR]

A result set is a run.py --out file. Run i of the parent is paired with run i
of the change; --run produces the pairs itself, alternating which side runs
first, each checkout building into its own .bench_build. A metric's tolerance
is its BENCHMARK.json bound times the parent's median, or its absolute floor
below, whichever is larger. For every workload and end-to-end metric:

  gain          the change wins at least 9 of every 10 pairs (ties count for
                neither) and the medians differ by more than the parent's
                interquartile range; needs at least 10 pairs, and no more
                failed cells or incorrect runs than the parent
  unresolved    either side's interquartile range exceeds the tolerance,
                unless every change run beats every parent run
  regression    the change's median is worse than the parent's by more than
                the tolerance
  within bound  none of the above

Exits 1 when any row is a regression or the change fails more cells or runs
than the parent on any workload.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

SPEC = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
MIN_PAIRS = 10
# Absolute floors, in the metric's unit, under the relative bounds: set-up
# times of microseconds and memory of a few MB move by more than any share
# of themselves from run to run. BENCHMARK.json holds one relative bound per
# metric, so the floors live here.
FLOORS = {"setup_s": 0.02, "peak_rss_mb": 2.0}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent: list[float], change: list[float], better: str, tolerance: float,
            fewer_failures: bool) -> dict:
    improves = (lambda a, b: a > b) if better == "higher" else (lambda a, b: a < b)
    n = min(len(parent), len(change))
    wins = sum(improves(c, p) for p, c in zip(parent[:n], change[:n]))
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    worse = pm - cm if better == "higher" else cm - pm
    all_better = all(improves(c, p) for c in change for p in parent)
    if (fewer_failures and n >= MIN_PAIRS and wins >= 0.9 * n and improves(cm, pm)
            and abs(cm - pm) > p3 - p1):
        word = "gain"
    elif max(p3 - p1, c3 - c1) > tolerance and not all_better:
        word = "unresolved"
    elif worse > tolerance:
        word = "regression"
    else:
        word = "within bound"
    return {"pairs": n, "wins": wins, "parent": (p1, pm, p3), "change": (c1, cm, c3),
            "delta": -worse / abs(pm) if pm else 0.0, "verdict": word}


def by_workload(result_set: dict) -> dict:
    out: dict = {}
    for run in result_set["runs"]:
        if not run.get("trace"):
            out.setdefault(run["workload"], []).append(run)
    return out


def failures(runs: list[dict]) -> tuple[int, int]:
    """(failed cells, incorrect runs) over a side's runs of one workload."""
    return sum(r["failed"] for r in runs), sum(not r["correct"] for r in runs)


def compare(parent: dict, change: dict) -> int:
    p_runs, c_runs = by_workload(parent), by_workload(change)
    bad = 0
    print(f"{'workload':<16} {'metric':<12} {'parent median [q1, q3]':<34} "
          f"{'change median [q1, q3]':<34} {'delta':>8} {'wins':>7}  verdict")
    for workload in [w for w in p_runs if w in c_runs]:
        n = min(len(p_runs[workload]), len(c_runs[workload]))
        if n < MIN_PAIRS:
            print(f"{workload}: only {n} pairs; a gain needs at least {MIN_PAIRS}")
        p_fail, c_fail = failures(p_runs[workload]), failures(c_runs[workload])
        more_failures = c_fail[0] > p_fail[0] or c_fail[1] > p_fail[1]
        if more_failures:
            bad += 1
            print(f"{workload}: the change fails more — failed cells {c_fail[0]} vs "
                  f"{p_fail[0]}, incorrect runs {c_fail[1]} vs {p_fail[1]}; no gain counts")
        for m in SPEC["end_to_end"]:
            name = m["name"]
            parent_values = [r["metrics"][name] for r in p_runs[workload]]
            tolerance = max(m["bound"] * abs(statistics.median(parent_values)),
                            FLOORS.get(name, 0.0))
            v = verdict(parent_values, [r["metrics"][name] for r in c_runs[workload]],
                        m["better"], tolerance, not more_failures)
            bad += v["verdict"] == "regression"
            fmt = lambda q: f"{q[1]:.5g} [{q[0]:.5g}, {q[2]:.5g}]"
            print(f"{workload:<16} {name:<12} {fmt(v['parent']):<34} {fmt(v['change']):<34} "
                  f"{v['delta']:>+8.2%} {v['wins']:>3}/{v['pairs']:<3}  {v['verdict']}")
    return 1 if bad else 0


def run_side(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    env = dict(os.environ, CARGO_TARGET_DIR=str(checkout / ".bench_build"))
    proc = subprocess.run([sys.executable, "bench/e2e/run.py", "--workload", workload, "--seed",
                           str(seed), "--seconds", repr(seconds), "--trace", "0"],
                          cwd=checkout, env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{checkout}: run.py printed nothing:\n{proc.stderr[-2000:]}")
    line = json.loads(lines[-1])
    metrics = {name: m["value"] for name, m in line["metrics"].items()}
    return {"workload": workload, "seed": seed, "trace": False, "metrics": metrics,
            "correct": line["correct"], "attempted": line["attempted"],
            "failed": line["failed"]}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("sets", nargs="*", type=Path, help="PARENT.json CHANGE.json")
    ap.add_argument("--run", nargs=2, type=Path, metavar=("PARENT", "CHANGE"),
                    help="checkouts to run alternately instead of reading result sets")
    ap.add_argument("--pairs", type=int, default=MIN_PAIRS)
    ap.add_argument("--workload", action="append",
                    choices=[w["name"] for w in SPEC["workloads"]])
    ap.add_argument("--seed", type=int, default=1, help="pair i runs both sides at seed + i")
    ap.add_argument("--seconds", type=float, default=float(SPEC["run_seconds"]))
    ap.add_argument("--save", type=Path, help="directory for parent.json and change.json")
    args = ap.parse_args()

    if args.run:
        sides = {"parent": {"runs": []}, "change": {"runs": []}}
        for workload in args.workload or [w["name"] for w in SPEC["workloads"]]:
            for i in range(args.pairs):
                order = [("parent", args.run[0]), ("change", args.run[1])]
                for side, checkout in order if i % 2 == 0 else reversed(order):
                    res = run_side(checkout.resolve(), workload, args.seed + i, args.seconds)
                    if not res["correct"]:
                        print(f"warning: {side} {workload} seed {args.seed + i} failed its "
                              "output checks", file=sys.stderr)
                    sides[side]["runs"].append(res)
        if args.save:
            args.save.mkdir(parents=True, exist_ok=True)
            for side, result_set in sides.items():
                (args.save / f"{side}.json").write_text(json.dumps(result_set, indent=1) + "\n")
        return compare(sides["parent"], sides["change"])
    if len(args.sets) != 2:
        ap.error("give PARENT.json CHANGE.json, or --run PARENT CHANGE")
    parent, change = (json.loads(p.read_text()) for p in args.sets)
    return compare(parent, change)


if __name__ == "__main__":
    sys.exit(main())
