#!/usr/bin/env python3
"""The extatica benchmark: one command, one workload per invocation.

    python3 perfbench/run.py --workload nonvanishing --seed 1 --seconds 15 \
        --trace 0

Run from the root of a source checkout.  It times the workload's set-up in
fresh interpreters (one unmeasured, then SETUPS measured around the timed
run, median reported), runs the workload in one more process (jobs=1,
closed loop) for about --seconds, checks every answer independently with
sympy, and prints as its last line one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones (setup_s, wall_s,
call_p50_ms, peak_rss_mb); with --trace 1 the per-layer ones from a traced
run, which also writes its spans to perfbench/out/.  See
perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKLOADS = ("nonvanishing", "vanishing", "cli-small")
SETUPS = 11           # measured fresh-interpreter set-ups per run
WORKER_BUDGET = 150   # seconds; the whole run, checks included, ends in 180


def child_env() -> dict:
    env = dict(os.environ)
    env.update(PYTHONHASHSEED="0", OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


def time_setup(workload: str, seed: int) -> float:
    """Seconds from spawning a fresh interpreter until its inputs are
    built (extatica and numpy imported, fields, systems and argv lists
    made, corpus cofactors re-verified)."""
    argv = [sys.executable, str(WORKER), "--workload", workload,
            "--seed", str(seed), "--setup-only"]
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, env=child_env(),
                            cwd=ROOT, text=True)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
    finally:
        proc.wait(timeout=30)
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up of {workload} failed "
                           f"(exit {proc.returncode})")
    return elapsed


def run_worker(args) -> dict:
    argv = [sys.executable, str(WORKER), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace)]
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, env=child_env(),
                            cwd=ROOT, text=True)
    try:
        out, _ = proc.communicate(timeout=WORKER_BUDGET)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"{args.workload} did not finish in "
                           f"{WORKER_BUDGET} s")
    if proc.returncode != 0:
        raise RuntimeError(f"{args.workload} worker exited "
                           f"{proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def unit_of(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_pct"):
        return "%"
    return "count"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    missing = [p for p in ("src/extatica/__init__.py",
                           "tests/golden_cases.py", "tests/goldens")
               if not (ROOT / p).exists()]
    if missing:
        sys.stderr.write("not an extatica checkout, missing: "
                         + ", ".join(missing) + "\n")
        return 2

    try:
        # half the set-ups before the timed run and half after, so that
        # their median spans the run rather than one moment of the machine
        time_setup(args.workload, args.seed)   # writes bytecode; unmeasured
        setups = [time_setup(args.workload, args.seed)
                  for _ in range(SETUPS // 2)]
        res = run_worker(args)
        setups += [time_setup(args.workload, args.seed)
                   for _ in range(SETUPS - SETUPS // 2)]
    except RuntimeError as exc:
        sys.stderr.write(f"benchmark failed: {exc}\n")
        return 1

    from checks import Checker
    checker = Checker(args.seed)
    failures = []
    for rec in res["records"]:
        failures += [f"{rec['label']}: {msg}" for msg in checker.check(rec)]
    if res["mismatches"]:
        failures.append(f"{res['mismatches']} answers changed between "
                        "rounds")
    attempted, failed = res["attempted"], res["failed"]
    if args.trace:
        attempted += res["traced_attempted"]
        failed += res["traced_failed"]
        if res["traced_mismatches"]:
            failures.append("traced answers differ from untraced ones")
        failures += [f"engines disagree on {row['field']} k={row['k']}"
                     for row in res["crossover"] if not row["agree"]]
        metrics = {name: {"value": value, "unit": unit_of(name)}
                   for name, value in res["layers"].items()}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "wall_s": {"value": statistics.median(res["walls"]),
                       "unit": "s"},
            "call_p50_ms": {"value": statistics.median(res["calls_s"]) * 1e3,
                            "unit": "ms"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
    for rec in res["records"]:
        if "error" in rec:
            sys.stderr.write(f"failed call {rec['label']}: {rec['error']}\n")
    for msg in failures:
        sys.stderr.write(f"check failed: {msg}\n")
    sys.stderr.write(f"{args.workload}: {len(res['walls'])} rounds of "
                     f"{len(res['records'])} calls; set-ups "
                     + " ".join(f"{s:.3f}" for s in setups) + " s\n")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(HERE))
    sys.exit(main())
