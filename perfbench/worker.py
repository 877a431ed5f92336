"""One workload in one process.

    python3 perfbench/worker.py --workload W --seed N --setup-only
    python3 perfbench/worker.py --workload W --seed N --seconds S --trace T

With --setup-only it builds the inputs, prints "ready" and exits; run.py
times that from the spawn.  Otherwise it runs whole rounds over the inputs
(closed loop: each call starts when the previous one returned) until
--seconds have passed, and prints one JSON object: round walls, call
latencies, peak RSS, the first round's answers for checking, and with
--trace 1 the per-layer metrics, whose spans it also writes to
perfbench/out/trace-<workload>-<seed>.json.  Answers of later rounds are
compared with the first round's here, outside the timed region.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import resource
import statistics
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402


def run_round(calls):
    """(wall s, per-call s, results); a raised exception is the result."""
    times, results = [], []
    start = time.perf_counter()
    for call in calls:
        t0 = time.perf_counter()
        try:
            result = call.run()
        except Exception as exc:  # noqa: BLE001 - counted as a failed call
            result = exc
        times.append(time.perf_counter() - t0)
        results.append(result)
    return time.perf_counter() - start, times, results


def records_of(calls, results) -> list:
    out = []
    for call, result in zip(calls, results):
        if isinstance(result, Exception):
            rec = {"error": f"{type(result).__name__}: {result}"}
        else:
            rec = call.record(result)
        rec.update(label=call.label, kind=call.kind)
        out.append(rec)
    return out


class Rounds:
    """Whole timed rounds for about `seconds`: a round that would end past
    the budget, judged by the last one, is not started; at least one."""

    def __init__(self):
        self.walls, self.calls_s, self.records = [], [], None
        self.peak_rss_mb = None
        self.failed = self.attempted = self.mismatches = 0

    def run(self, calls, seconds, after_round=None):
        start = time.perf_counter()
        while True:
            wall, times, results = run_round(calls)
            self.walls.append(wall)
            self.calls_s.extend(times)
            self.attempted += len(calls)
            self.failed += sum(isinstance(r, Exception) for r in results)
            if self.peak_rss_mb is None:
                # the high-water mark of set-up plus one pass; later rounds
                # only add allocator growth, and their number varies
                self.peak_rss_mb = resource.getrusage(
                    resource.RUSAGE_SELF).ru_maxrss / 1024.0
            recs = records_of(calls, results)
            if self.records is None:
                self.records = recs
            else:
                self.mismatches += sum(a != b for a, b in
                                       zip(recs, self.records))
            if after_round:
                after_round()
            if time.perf_counter() - start + wall > seconds:
                return


def crossover(jets) -> list:
    """Both engines on each small jet matrix; originals, untraced."""
    # the module; the package attribute `extatica.extactic` is the function
    ext = sys.modules["extatica.extactic"]
    rows = []
    for key, jet in jets.items():
        m = len(jet.entries)
        timed = {}
        for engine, fn in (("fraction-free", ext.det_fraction_free),
                           ("modular", ext.det_modular)):
            t0 = time.perf_counter()
            det = fn(jet.entries)
            timed[engine] = (time.perf_counter() - t0, det)
        rows.append({
            "field": key[0], "k": key[2], "m": m,
            "auto": "fraction-free" if m <= 4 else "modular",
            "fraction_free_ms": timed["fraction-free"][0] * 1e3,
            "modular_ms": timed["modular"][0] * 1e3,
            "agree": timed["fraction-free"][1] == timed["modular"][1]})
    return rows


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    calls = workloads.build(args.workload, args.seed)
    if args.setup_only:
        print("ready", flush=True)
        return 0

    plain = Rounds()
    plain.run(calls, args.seconds)
    out = {"walls": plain.walls, "calls_s": plain.calls_s,
           "peak_rss_mb": plain.peak_rss_mb,
           "records": plain.records, "attempted": plain.attempted,
           "failed": plain.failed, "mismatches": plain.mismatches}
    if args.trace:
        out.update(traced(args, plain))
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


def traced(args, plain: Rounds) -> dict:
    """Build the inputs again and run rounds with every layer wrapped."""
    import tracing
    tracer = tracing.Tracer()
    tracer.install()
    calls = workloads.build(args.workload, args.seed)
    layers = tracing.setup_metrics(tracer.take())
    per_round, all_spans = [], []

    def after_round():
        spans = tracer.take()
        per_round.append(tracing.round_metrics(spans))
        all_spans.append(spans)

    rounds = Rounds()
    rounds.run(calls, args.seconds, after_round)
    tracer.uninstall()
    for key in per_round[0]:
        layers[key] = statistics.median(r[key] for r in per_round)
    untraced = statistics.median(plain.walls)
    traced_wall = statistics.median(rounds.walls)
    layers.update({
        "trace.wall_untraced_s": untraced,
        "trace.wall_traced_s": traced_wall,
        "trace.overhead_pct": (traced_wall / untraced - 1.0) * 100.0,
        "trace.spans": len(all_spans[-1]),
    })
    cross = crossover(tracer.jets)
    layers.update({
        "crossover.matrices": len(cross),
        "crossover.fraction_free_ms": sum(r["fraction_free_ms"]
                                          for r in cross),
        "crossover.modular_ms": sum(r["modular_ms"] for r in cross),
    })
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    (out / f"trace-{args.workload}-{args.seed}.json").write_text(json.dumps({
        "workload": args.workload, "seed": args.seed,
        "layers": layers, "crossover": cross,
        "rounds": [[s[:4] for s in spans] for spans in all_spans]}))
    return {"layers": layers, "crossover": cross,
            "traced_failed": rounds.failed,
            "traced_attempted": rounds.attempted,
            "traced_mismatches": rounds.mismatches + sum(
                a != b for a, b in zip(rounds.records, plain.records))}


if __name__ == "__main__":
    sys.exit(main())
