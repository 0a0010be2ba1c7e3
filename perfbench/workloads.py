"""The dinet benchmark workloads: set-up, timed operations and output checks.

Each workload is a closed loop in one process with ``workers=1``: the next
operation starts when the previous one ends.  ``op(i)`` runs operation
``i`` and returns the seconds of its primary part and of its inspect
part; the checks between them are not timed, and run under ``self.quiet``
so a tracer can leave them out.  Operation ``i`` is the same work every
time it is run for the same seed, so traced rounds repeat exactly.

- smoke-train: experiment run ``i`` of ``configs/synthetic_smoke.json``
  on synthetic table ``i``.
- finebin-train: experiment run ``i`` with the settings of the published
  CKD rows (one bin per distinct value, ``n_out=2``, 320/80 random split).
- ensemble-predict: predict batch ``i mod 5`` of a 20k-row table with one
  model trained in set-up, in ensemble mode.

After every primary part comes one inspect op (``mi_flow`` plus
``check_bounds``): on the experiment workloads over the run's freshly
trained model and its training rows, on ensemble-predict over the batch.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

from dinet import analysis, cli, network
from dinet.synthetic import make_synthetic_ckd

ROOT = Path(__file__).resolve().parent.parent
SMOKE_CONFIG = ROOT / "configs" / "synthetic_smoke.json"
FINEBIN_OVERRIDES = ("quantizer.default_levels=null", "model.n_out=2",
                     "split.n_train=320", "split.stratify=none")
ENSEMBLE_ROWS = 20_000
BATCH_ROWS = 4_000       # one predict op; small enough for a tail percentile per run
ENSEMBLE_REPEATS = 25
TABLE_SEED_OFFSET = 1_000_000  # the predict table is drawn apart from the training table
ACCURACY_RUNS = 32       # runs whose mean test accuracy is reported
CHECK_RUNS = 4           # runs of the worker-count check
REPORT_METRICS = ("accuracy", "sensitivity", "specificity", "f1")


class CheckFailed(Exception):
    """An output of the program is wrong."""


def table_seed(seed: int, run: int) -> int:
    """Synthetic generator seed of the table that run ``run`` uses."""
    return network.derive_seed(seed, run)


def experiment_config(name: str, seed: int):
    """Config and its overrides, with the synthetic table of run 0."""
    overrides = list(FINEBIN_OVERRIDES if name == "finebin-train" else ())
    overrides += [f"seed={seed}", f"dataset.synthetic_seed={table_seed(seed, 0)}",
                  "workers=1"]
    return cli.apply_overrides(cli.load_config(SMOKE_CONFIG), overrides), overrides


def check_channels(model):
    for key, node in model.nodes.items():
        p = node.channel.p
        if not (np.all(p >= 0) and np.allclose(p.sum(axis=1), 1.0, rtol=0, atol=1e-9)):
            raise CheckFailed(f"node {key}: channel is not row-stochastic")


def check_predictions(preds, n_class):
    if preds.size and (preds.min() < 0 or preds.max() >= n_class):
        raise CheckFailed(f"prediction outside the class alphabet [0, {n_class})")


def check_metric_block(block, where):
    for key in REPORT_METRICS:
        if not 0.0 <= block[key] <= 1.0:
            raise CheckFailed(f"{where}: {key}={block[key]!r} outside [0, 1]")


def check_no_violations(violations):
    if violations:
        raise CheckFailed(f"{len(violations)} mux bound violation(s): {violations[0]}")


class ExperimentWorkload:
    """Experiment runs in a closed loop; run ``i`` draws its own synthetic table.

    A table's difficulty (how many of its nodes hit ``max_iter``) moves run
    time by more than the split does, so one table per seed, or a few, would
    let the tables drawn set a whole seed's figures.  Tables are made before
    each run, untimed, and not kept, so they stay out of ``peak_rss_mb``.
    """

    round_ops = 4  # operations per traced round
    min_ops = ACCURACY_RUNS

    def __init__(self, name: str, seed: int):
        self.name = name
        self.seed = seed
        self.cfg, self.overrides = experiment_config(name, seed)
        self.data = cli.prepare_dataset(self.cfg)  # run 0's table
        self.test_results = {}
        self.quiet = contextlib.nullcontext

    def table(self, i: int):
        if i == 0:
            return self.data
        dataset = dataclasses.replace(self.cfg.dataset, synthetic_seed=table_seed(self.seed, i))
        return cli.prepare_dataset(dataclasses.replace(self.cfg, dataset=dataset))

    def check_setup(self):
        pass

    def op(self, i: int):
        with self.quiet():
            data = self.table(i)
        start = perf_counter()
        result = cli.run_single(self.cfg, data, i, keep_model=True)
        primary = perf_counter() - start
        with self.quiet():
            check_metric_block(result["train"], f"run {i} train")
            check_metric_block(result["test"], f"run {i} test")
            if i < ACCURACY_RUNS:
                self.test_results[i] = result["test"]
            model = result["model"]
            train_rows, test_rows = result["splits"]
            check_channels(model)
            check_predictions(network.predict(model, test_rows, seed=i), model.n_class)
            qtrain = cli.quantize_with(model.quantizers, train_rows)
        start = perf_counter()
        violations = analysis.check_bounds(analysis.mi_flow(model, qtrain))
        inspect = perf_counter() - start
        check_no_violations(violations)
        return primary, inspect

    def accuracy(self):
        """Mean test accuracy of runs 0 to ACCURACY_RUNS - 1, aggregated by dinet."""
        if len(self.test_results) < ACCURACY_RUNS:
            return math.nan
        report = cli.aggregate_metrics([self.test_results[i] for i in range(ACCURACY_RUNS)])
        return report["mean"]["accuracy"]

    def worker_check(self):
        """Report of a short run must be byte-identical for 1 and 2 workers."""
        outputs = [self._cli_report(workers) for workers in (1, 2)]
        if outputs[0] != outputs[1]:
            raise CheckFailed("report differs between workers=1 and workers=2")
        report = json.loads(outputs[0])
        for part in ("train", "test"):
            for stat in ("mean", "std"):
                check_metric_block(report[part][stat], f"report {part}.{stat}")
            for run in report[part]["per_run"]:
                check_metric_block(run, f"report {part} run")

    def _cli_report(self, workers):
        cmd = [sys.executable, "-m", "dinet", "experiment", "--config", str(SMOKE_CONFIG),
               "--quiet", "--set", "outputs.metrics=\"\""]
        for item in self.overrides + [f"runs={CHECK_RUNS}", f"workers={workers}"]:
            cmd += ["--set", item]
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=120)
        if proc.returncode != 0:
            raise CheckFailed(f"dinet experiment (workers={workers}) exited "
                              f"{proc.returncode}: {proc.stderr.strip()[-300:]}")
        return proc.stdout


class EnsemblePredictWorkload:
    """Ensemble prediction in batches with one model trained in set-up."""

    round_ops = ENSEMBLE_ROWS // BATCH_ROWS
    min_ops = round_ops

    def __init__(self, name: str, seed: int):
        self.name = name
        cfg, _ = experiment_config("smoke-train", seed)
        self.model = cli.run_single(cfg, cli.prepare_dataset(cfg), 0, keep_model=True)["model"]
        table = make_synthetic_ckd(n_rows=ENSEMBLE_ROWS, seed=seed + TABLE_SEED_OFFSET)
        self.batches = [table.take(range(lo, lo + BATCH_ROWS))
                        for lo in range(0, ENSEMBLE_ROWS, BATCH_ROWS)]
        self.seed = seed
        self.first_preds = {}
        self.quiet = contextlib.nullcontext

    def check_setup(self):
        check_channels(self.model)

    def op(self, i: int):
        b = i % len(self.batches)
        start = perf_counter()
        q = network.quantize_features(self.model, self.batches[b])
        preds = network.predict_quantized(self.model, q, seed=self.seed + b, mode="ensemble",
                                          repeats=ENSEMBLE_REPEATS)
        primary = perf_counter() - start
        with self.quiet():
            check_predictions(preds, self.model.n_class)
            first = self.first_preds.setdefault(b, (preds, q.labels))[0]
            if not np.array_equal(first, preds):
                raise CheckFailed(f"batch {b}: ensemble predictions changed between ops")
        start = perf_counter()
        violations = analysis.check_bounds(analysis.mi_flow(self.model, q))
        inspect = perf_counter() - start
        check_no_violations(violations)
        return primary, inspect

    def accuracy(self):
        """Ensemble accuracy over the whole table (needs one pass over every batch)."""
        if len(self.first_preds) < len(self.batches):
            return math.nan
        hits = sum(int(np.sum(p == y)) for p, y in self.first_preds.values())
        return hits / ENSEMBLE_ROWS

    def worker_check(self):
        pass


WORKLOADS = {
    "smoke-train": ExperimentWorkload,
    "finebin-train": ExperimentWorkload,
    "ensemble-predict": EnsemblePredictWorkload,
}

# rows classified by one primary op, for rows_per_s
ROWS_PER_OP = {"ensemble-predict": BATCH_ROWS}


def build(name: str, seed: int):
    return WORKLOADS[name](name, seed)
