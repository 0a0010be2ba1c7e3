"""Tiny-length self-test of the benchmark (about two minutes).

    python3 perfbench/selftest.py

Runs every workload for one second in both modes and asserts that the last
stdout line is the result object, that it names exactly the metrics of
BENCHMARK.json with their units, that every metric is also printed on a
readable line with its unit, and that the run is correct.  It also asserts
that the benchmark fails, printing no result, in a directory that holds
only BENCHMARK.json and the benchmark's files.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}

# per-workload names the readable lines also give, besides the declared metrics
WORKLOAD_NAMES = {
    "smoke-train": ("runs_per_s", "run_p50_s", "run_tail_s", "error_rate"),
    "finebin-train": ("runs_per_s", "run_p50_s", "run_tail_s", "error_rate"),
    "ensemble-predict": ("rows_per_s", "predict_p50_s", "predict_tail_s", "error_rate"),
}


def run(cwd, workload, trace, seconds=1):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
           "--seconds", str(seconds), "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def check_output(proc, declared, workload, trace):
    where = f"{workload} --trace {trace}"
    assert proc.returncode == 0, f"{where}: exit {proc.returncode}: {proc.stderr}"
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == RESULT_KEYS, f"{where}: result keys {sorted(result)}"
    assert result["correct"] and result["failed"] == 0, f"{where}: {result}\n{proc.stderr}"
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    metrics = result["metrics"]
    assert set(metrics) == set(declared), \
        f"{where}: printed {sorted(metrics)}, declared {sorted(declared)}"
    readable = lines[:-1]
    for name, unit in declared.items():
        assert metrics[name]["unit"] == unit, f"{where}: {name} unit {metrics[name]['unit']}"
        assert isinstance(metrics[name]["value"], (int, float)), f"{where}: {name}"
        assert any(line.split()[:2] == [workload, name] and line.split()[3:4] == [unit]
                   for line in readable), f"{where}: no readable line for {name} {unit}"
    if not trace:
        text = "\n".join(readable)
        for name in WORKLOAD_NAMES[workload]:
            assert name in text, f"{where}: {name} not printed"


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    modes = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
             1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, declared in modes.items():
            check_output(run(ROOT, workload, trace), declared, workload, trace)
            print(f"ok {workload} --trace {trace}", flush=True)

    with tempfile.TemporaryDirectory() as bare:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, Path(bare) / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bare, spec["workloads"][0]["name"], 0)
        assert proc.returncode != 0, "benchmark succeeded without the program"
        assert '"correct"' not in proc.stdout, "benchmark printed a result without the program"
        print("ok fails without the program")


if __name__ == "__main__":
    main()
