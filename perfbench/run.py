"""dinet benchmark: one workload, one seed, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload smoke-train --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  With ``--trace 0`` the workload runs
untraced for ``--seconds`` and the end-to-end metrics are printed; with
``--trace 1`` it runs in rounds of the same operations, each round once
untraced and once traced, and the per-layer metrics are printed together
with the tracing overhead (traced minus untraced round time).  Readable
lines come first; the last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REQUIRED = (ROOT / "src" / "dinet" / "__init__.py", ROOT / "configs" / "synthetic_smoke.json")
WORKLOAD_NAMES = ("smoke-train", "finebin-train", "ensemble-predict")
SETUP_PROBES = 5
TAIL_BEYOND = 10  # samples that must lie beyond the tail percentile

# end-to-end metric names and units, in the order they are printed
END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_s", "s"),
    ("op_tail_s", "s"),
    ("inspect_p50_s", "s"),
    ("test_accuracy", "ratio"),
    ("peak_rss_mb", "MB"),
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def tail(samples):
    """(percentile, value): the highest percentile with TAIL_BEYOND samples above it."""
    s = sorted(samples)
    n = len(s)
    if n < 2 * TAIL_BEYOND:  # no percentile above the median has enough beyond it
        return 50, statistics.median(s)
    pct = 100 * (n - TAIL_BEYOND) // n
    return pct, s[math.ceil(pct * n / 100) - 1]


def git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine():
    import numpy as np
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": cpu,
            "python": platform.python_version(), "numpy": np.__version__,
            "commit": git_commit()}


class Tally:
    """Attempted and failed operations; the first failures go to stderr."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def run(self, fn, *args):
        self.attempted += 1
        try:
            return fn(*args)
        except Exception as exc:  # any failure of the program counts against it
            self.failed += 1
            if self.failed <= 5:
                call = f"{fn.__name__}({', '.join(map(repr, args))})"
                print(f"benchmark: {call}: {type(exc).__name__}: {exc}", file=sys.stderr)
            return None


def setup_seconds(workload, seed):
    """Median set-up time of fresh interpreters (import plus input build)."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"), "--workload", workload,
           "--seed", str(seed)]
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-300:]}")
        times.append(float(proc.stdout))
    return statistics.median(times)


def end_to_end(args, workloads, calibration):
    setup_s = setup_seconds(args.workload, args.seed)
    wl = workloads.build(args.workload, args.seed)
    tally = Tally()
    tally.run(wl.check_setup)
    speed = calibration.SpeedLog()
    timed = []  # (start, end, primary seconds, inspect seconds)
    speed.sample()
    start = perf_counter()
    i = 0
    while i < wl.min_ops or perf_counter() - start < args.seconds:
        op_start = perf_counter()
        times = tally.run(wl.op, i)
        op_end = perf_counter()
        speed.sample()
        if times:
            timed.append((op_start, op_end) + times)
        i += 1
    primary_wall = [t[2] for t in timed]
    primary = [speed.scale(p, a, b) for a, b, p, _ in timed]
    inspect = [speed.scale(q, a, b) for a, b, _, q in timed]
    tally.run(wl.worker_check)
    if not primary:
        raise RuntimeError("no operation succeeded")

    accuracy = wl.accuracy()
    if math.isnan(accuracy):
        tally.attempted += 1
        tally.failed += 1
        print("benchmark: test accuracy not measured (an early op failed)", file=sys.stderr)
        accuracy = 0.0
    ops_per_s = len(primary) / sum(primary)
    tail_pct, tail_s = tail(primary)
    metrics = {
        "setup_s": setup_s,
        "ops_per_s": ops_per_s,
        "op_p50_s": statistics.median(primary),
        "op_tail_s": tail_s,
        "inspect_p50_s": statistics.median(inspect),
        "test_accuracy": accuracy,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }

    # the names the issue uses for each workload's op, and sample details
    rows = workloads.ROWS_PER_OP.get(args.workload)
    op = "predict" if rows else "run"
    notes = {
        "ops_per_s": "predict ops/s" if rows else "runs_per_s",
        "op_p50_s": f"{op}_p50_s; wall {statistics.median(primary_wall):.4g} s",
        "op_tail_s": f"{op}_tail_s, p{tail_pct} of n={len(primary)}",
        "inspect_p50_s": f"n={len(inspect)}",
        "setup_s": f"median of {SETUP_PROBES}, wall time",
    }
    lines = [(name, metrics[name], unit, notes.get(name)) for name, unit in END_TO_END]
    if rows:
        lines.append(("rows_per_s", ops_per_s * rows, "rows/s", f"{rows} rows per predict op"))
    lines.append(("error_rate", tally.failed / tally.attempted, "ratio",
                  f"{tally.failed} of {tally.attempted} ops failed"))
    for name, value, unit, note in lines:
        print(f"{args.workload:<17} {name:<14} {value:.6g} {unit}" + (f"  [{note}]" if note else ""))
    return tally, {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END}


def run_round(wl, tally, speed):
    """(start, end, seconds) of one round of operations, loops sampled around it."""
    speed.sample()
    start = perf_counter()
    total = 0.0
    for i in range(wl.round_ops):
        times = tally.run(wl.op, i)
        if times:
            total += sum(times)
    end = perf_counter()
    speed.sample()
    return start, end, total


def per_layer(args, workloads, tracer, calibration):
    setup_tracer = tracer.Tracer()
    with setup_tracer.installed():
        wl = workloads.build(args.workload, args.seed)
    tally = Tally()
    tally.run(wl.check_setup)
    rounds = tracer.Tracer()
    wl.quiet = rounds.suspended
    speed = calibration.SpeedLog()
    untraced, traced, round_counts = [], [], []
    start = perf_counter()
    last_pair = 0.0
    # start another pair of rounds only if it should end within --seconds
    while not traced or perf_counter() - start + last_pair <= args.seconds:
        pair_start = perf_counter()
        untraced.append(run_round(wl, tally, speed))
        before = Counter(rounds.counts)
        with rounds.installed():
            traced.append(run_round(wl, tally, speed))
        round_counts.append(rounds.counts - before)
        last_pair = perf_counter() - pair_start
    untraced = [speed.scale(total, a, b) for a, b, total in untraced]
    traced = [speed.scale(total, a, b) for a, b, total in traced]
    tally.run(wl.worker_check)

    def check_repeats():
        if any(c != round_counts[0] for c in round_counts):
            raise RuntimeError("per-layer counts differ between identical rounds")
        failures = setup_tracer.cross_check_failures + rounds.cross_check_failures
        if failures:
            raise RuntimeError(f"per-layer solver attribution: {failures[0]}")
    tally.run(check_repeats)

    n = len(traced)
    flat = setup_tracer.snapshot()
    for key, value in rounds.snapshot().items():
        flat[key] = flat.get(key, 0) + value / n
    metrics = tracer.per_layer_metrics(flat)
    overhead = statistics.median(t - u for t, u in zip(traced, untraced))
    metrics["trace.overhead_s"] = overhead
    metrics["trace.overhead_share"] = overhead / statistics.median(untraced)
    print(f"{args.workload}: {n} round(s) of {wl.round_ops} op(s), each untraced then traced; "
          "per-layer values are one traced set-up plus the mean of one round")
    out = {}
    for name, unit in tracer.PER_LAYER:
        value = metrics[name]
        if unit == "count" and float(value).is_integer():
            value = int(value)
        print(f"{args.workload:<17} {name:<26} {value:.6g} {unit}")
        out[name] = {"value": value, "unit": unit}
    return tally, out


def main(argv=None):
    args = parse_args(argv)
    missing = [str(p.relative_to(ROOT)) for p in REQUIRED if not p.is_file()]
    if missing:
        print(f"benchmark: run from a dinet checkout; missing {', '.join(missing)}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import calibration
    import tracer
    import workloads

    print(json.dumps({"machine": machine()}, sort_keys=True))
    try:
        if args.trace:
            tally, metrics = per_layer(args, workloads, tracer, calibration)
        else:
            tally, metrics = end_to_end(args, workloads, calibration)
    except RuntimeError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
