"""Command-line surface: train, evaluate, experiment, inspect, fetch-data.

One declarative JSON config drives everything; every knob defaults to the
kidney-disease reference setup (beta=5, three output symbols per node below
the class node, 200 balanced training rows, 1000 runs).  Dotted ``--set``
flags override single keys.  Progress streams to stderr as JSON lines;
stdout carries only the final JSON report, so pipelines can consume it
directly.

Exit codes: 0 success, 1 runtime failure, 2 usage/config/data error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import typing
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .analysis import MIFlowReport, mi_flow
from .dataio import (
    CKD_URL,
    RawDataset,
    fetch_ckd,
    json_error,
    load_dataset,
    load_model,
    read_text,
    save_model,
    split,
    write_text,
)
from . import network
from .errors import ConfigError, DatasetFormatError, DinetError, ResourceError
from .network import (Topology, derive_seed, predict, quantize_features, train_network,
                      tree_layer_sizes)
from .quantizer import CATEGORICAL, CONTINUOUS, QuantizedDataset, fit_quantizer, quantize_with
from .synthetic import make_synthetic_ckd

_RUN_TAG = 7          # purpose tag for per-run seed derivation
_SPLIT_TAG = 1
_TRAIN_TAG = 2
_PRED_TRAIN_TAG = 3
_PRED_TEST_TAG = 4

# No config value may size an array beyond this many entries (8 TiB of
# float64), so an absurd value is a ConfigError, never numpy's "array is too
# big"; below it, an array that does not fit fails as out of memory.
MAX_ARRAY_ENTRIES = 2 ** 40


# ---------------------------------------------------------------------------
# configuration

@dataclass
class DatasetConfig:
    path: str = "data/ckd/chronic_kidney_disease_full.arff"
    format: str = "arff"              # csv | arff | synthetic
    target: str = "class"
    positive_class: str = "ckd"
    missing_tokens: list[str] = field(default_factory=lambda: ["?", ""])
    delimiter: str = ","
    synthetic_rows: int = 400
    synthetic_seed: int = 7


@dataclass
class QuantizerConfig:
    default_levels: int | None = None     # None: one bin per distinct value
    categorical_max_distinct: int = 16
    overrides: dict = field(default_factory=dict)


@dataclass
class ModelConfig:
    beta: float = 5.0
    n_out: int = 3                    # output alphabet of every node below the class node
    tol: float = 1e-8
    max_iter: int = 500


@dataclass
class SplitConfig:
    n_train: int = 200
    stratify: str = "balanced"        # none | balanced
    positive_fraction: float = 0.5


@dataclass
class PredictionConfig:
    mode: str = "stochastic"          # stochastic | ensemble
    repeats: int = 25


@dataclass
class OutputConfig:
    model: str = "out/model.json"
    metrics: str = "out/metrics.json"
    mi_flow: str = "out/mi_flow.csv"


@dataclass
class ExperimentConfig:
    dataset: DatasetConfig = field(default_factory=DatasetConfig)
    quantizer: QuantizerConfig = field(default_factory=QuantizerConfig)
    model: ModelConfig = field(default_factory=ModelConfig)
    split: SplitConfig = field(default_factory=SplitConfig)
    prediction: PredictionConfig = field(default_factory=PredictionConfig)
    outputs: OutputConfig = field(default_factory=OutputConfig)
    runs: int = 1000
    seed: int = 0
    workers: int = 1

    def validate(self):
        _check_types(self)
        if self.model.beta <= 0:
            raise ConfigError("model.beta must be positive")
        if self.model.tol <= 0 or self.model.max_iter < 1:
            raise ConfigError("model.tol must be positive and max_iter >= 1")
        if self.model.n_out < 1:
            raise ConfigError("model.n_out must be >= 1")
        if self.runs < 1:
            raise ConfigError("runs must be >= 1")
        if self.quantizer.default_levels is not None and self.quantizer.default_levels < 2:
            raise ConfigError("quantizer.default_levels must be null or >= 2")
        if self.split.n_train < 1:
            raise ConfigError("split.n_train must be >= 1")
        if self.seed < 0 or self.dataset.synthetic_seed < 0:
            raise ConfigError("seed and dataset.synthetic_seed must be >= 0")
        if not 1 <= self.dataset.synthetic_rows <= MAX_ARRAY_ENTRIES:
            raise ConfigError(f"dataset.synthetic_rows must be in [1, {MAX_ARRAY_ENTRIES}]")
        if len(self.dataset.delimiter) != 1:
            raise ConfigError("dataset.delimiter must be one character")
        if self.workers < 1:
            raise ConfigError("workers must be >= 1")
        if not 0 <= self.split.positive_fraction <= 1:
            raise ConfigError("split.positive_fraction must be in [0, 1]")
        if self.split.stratify not in ("none", "balanced"):
            raise ConfigError(f"unknown stratify mode {self.split.stratify!r}")
        if self.prediction.mode not in ("stochastic", "ensemble"):
            raise ConfigError(f"unknown prediction mode {self.prediction.mode!r}")
        if self.prediction.repeats < 1:
            raise ConfigError("prediction.repeats must be >= 1")
        if self.dataset.format not in ("csv", "arff", "synthetic"):
            raise ConfigError(f"unknown dataset format {self.dataset.format!r}")
        return self


def _check_types(section, prefix=""):
    """Raise ConfigError for the first field whose value its annotation does not admit."""
    for name, hint in typing.get_type_hints(type(section)).items():
        value = getattr(section, name)
        if dataclasses.is_dataclass(hint):
            _check_types(value, f"{name}.")
        elif error := json_error(value, hint, prefix + name):
            raise ConfigError(error)


def _build(cls, data: dict, where: str):
    unknown = set(data) - {f.name for f in dataclasses.fields(cls)}
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown)} in {where}")
    return cls(**data)


def config_from_dict(raw: dict) -> ExperimentConfig:
    kwargs = dict(raw)
    for name, hint in typing.get_type_hints(ExperimentConfig).items():
        if dataclasses.is_dataclass(hint) and name in kwargs:
            if not isinstance(kwargs[name], dict):
                raise ConfigError(f"section {name!r} must be an object")
            kwargs[name] = _build(hint, kwargs[name], name)
    return _build(ExperimentConfig, kwargs, "the top level").validate()


def config_to_dict(cfg: ExperimentConfig) -> dict:
    return dataclasses.asdict(cfg)


def load_config(path) -> ExperimentConfig:
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file not found: {p}")
    try:
        raw = json.loads(read_text(p, ConfigError))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{p}: invalid JSON ({exc})") from None
    if not isinstance(raw, dict):
        raise ConfigError(f"{p}: config must be a JSON object")
    return config_from_dict(raw)


def apply_overrides(cfg: ExperimentConfig, assignments) -> ExperimentConfig:
    """Apply dotted key=value overrides (values parsed as JSON, else string)."""
    d = config_to_dict(cfg)
    for item in assignments or ():
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not of the form key=value")
        key, _, value = item.partition("=")
        try:
            parsed = json.loads(value)
        except json.JSONDecodeError:
            parsed = value
        node = d
        parts = key.split(".")
        for part in parts[:-1]:
            if part not in node or not isinstance(node[part], dict):
                raise ConfigError(f"override {key!r}: unknown section {part!r}")
            node = node[part]
        if parts[-1] not in node:
            raise ConfigError(f"override {key!r}: unknown key {parts[-1]!r}")
        node[parts[-1]] = parsed
    return config_from_dict(d)


# ---------------------------------------------------------------------------
# metrics

def compute_metrics(y_true, y_pred, positive_index: int) -> dict:
    """Binary confusion metrics; empty denominators yield 0.0."""
    t = np.asarray(y_true) == positive_index
    p = np.asarray(y_pred) == positive_index
    tp = int(np.sum(t & p))
    tn = int(np.sum(~t & ~p))
    fp = int(np.sum(~t & p))
    fn = int(np.sum(t & ~p))

    def ratio(num, den):
        return num / den if den else 0.0

    return {
        "accuracy": ratio(tp + tn, tp + tn + fp + fn),
        "sensitivity": ratio(tp, tp + fn),
        "specificity": ratio(tn, tn + fp),
        "f1": ratio(2 * tp, 2 * tp + fp + fn),
        "tp": tp, "tn": tn, "fp": fp, "fn": fn,
    }


_METRIC_KEYS = ("accuracy", "sensitivity", "specificity", "f1")


def aggregate_metrics(per_run) -> dict:
    out = {"mean": {}, "std": {}, "per_run": list(per_run)}
    for key in _METRIC_KEYS:
        vals = np.array([r[key] for r in per_run], dtype=np.float64)
        out["mean"][key] = float(vals.mean())
        out["std"][key] = float(vals.std())
    return out


# ---------------------------------------------------------------------------
# pipeline

def prepare_dataset(cfg: ExperimentConfig) -> RawDataset:
    ds = cfg.dataset
    if ds.format == "synthetic":
        data = make_synthetic_ckd(n_rows=ds.synthetic_rows, seed=ds.synthetic_seed)
    else:
        data = load_dataset(ds.path, format=ds.format, target=ds.target,
                            missing_tokens=ds.missing_tokens, delimiter=ds.delimiter)
    if ds.positive_class not in data.classes:
        raise ConfigError(
            f"positive_class {ds.positive_class!r} not among classes {list(data.classes)}")
    return data


def fit_quantizers(train: RawDataset, qcfg: QuantizerConfig, reserve_missing=()):
    """One fitted spec per feature of the training rows.

    Features named in ``reserve_missing`` get a missing symbol even when no
    training cell is missing; it then has zero training mass.
    """
    unknown = set(qcfg.overrides) - set(train.feature_names)
    if unknown:
        raise ConfigError(f"quantizer overrides name unknown features {sorted(unknown)}")
    specs = []
    for i, name in enumerate(train.feature_names):
        override = qcfg.overrides.get(name, {})
        levels = override.get("levels") if isinstance(override, dict) else None
        if not (isinstance(override, dict) and set(override) <= {"kind", "levels"}
                and override.get("kind") in (None, CATEGORICAL, CONTINUOUS)
                and json_error(levels, int | None, name) is None
                and (levels is None or levels >= 2)):
            raise ConfigError(
                f"quantizer override for {name!r} must be an object with an optional "
                f"kind ({CATEGORICAL!r} or {CONTINUOUS!r}) and levels (an int >= 2), "
                f"got {override!r}")
        kind = override.get("kind")
        if kind is None and train.kinds[i] == "nominal":
            kind = CATEGORICAL
        spec = fit_quantizer(
            train.columns[i],
            requested_levels=override.get("levels", qcfg.default_levels),
            kind=kind,
            name=name,
            categorical_max_distinct=qcfg.categorical_max_distinct,
        )
        if name in reserve_missing and not spec.has_missing:
            spec = dataclasses.replace(spec, has_missing=True)
        specs.append(spec)
    return specs


def train_on(train: RawDataset, cfg: ExperimentConfig, seed: int, reserve_missing=()):
    """Fit quantizers on the training rows only, then train the tree.

    Returns the model and the quantized training rows it was trained on.
    Every node below the class node outputs ``cfg.model.n_out`` symbols; a
    channel above ``MAX_ARRAY_ENTRIES`` entries is refused before any array.
    """
    specs = fit_quantizers(train, cfg.quantizer, reserve_missing)
    depth = len(tree_layer_sizes(train.n_features)) - 1
    topo = Topology(cards=tuple(spec.cardinality for spec in specs),
                    n_out=(cfg.model.n_out,) * depth + (len(train.classes),))
    for i, layer in enumerate(topo.layers):
        for n_in in layer.n_in:
            if n_in * layer.n_out > MAX_ARRAY_ENTRIES:
                raise ConfigError(
                    f"a layer-{i} node channel of {n_in} x {layer.n_out} entries exceeds the "
                    f"limit of {MAX_ARRAY_ENTRIES}; lower model.n_out or the quantizer levels")
    rows = quantize_with(specs, train)
    model = train_network(
        rows, topo, beta=cfg.model.beta, tol=cfg.model.tol,
        max_iter=cfg.model.max_iter, seed=seed,
        quantizers=specs, feature_names=train.feature_names,
        class_names=train.classes,
    )
    return model, rows


def _scores(cfg: ExperimentConfig, classes, labels, preds) -> dict:
    return compute_metrics(labels, preds, list(classes).index(cfg.dataset.positive_class))


def evaluate_on(model, data: RawDataset, cfg: ExperimentConfig, seed: int) -> dict:
    preds = predict(model, data, seed=seed,
                    mode=cfg.prediction.mode, repeats=cfg.prediction.repeats)
    return _scores(cfg, data.classes, data.labels, preds)


def split_for_run(cfg: ExperimentConfig, data: RawDataset, run_index: int):
    """Run ``run_index``'s seed and its (train, test) split of the table."""
    run_seed = derive_seed(cfg.seed, _RUN_TAG, run_index)
    positive = cfg.dataset.positive_class if cfg.split.stratify == "balanced" else None
    train, test = split(
        data, cfg.split.n_train, seed=derive_seed(run_seed, _SPLIT_TAG),
        stratify=cfg.split.stratify,
        positive_fraction=cfg.split.positive_fraction,
        positive_label=positive,
    )
    return run_seed, train, test


def _solver_convergence(model) -> dict:
    """Update evaluations and unconverged nodes of a trained model, summed per tree layer."""
    depth = len(model.topology.layers)
    iterations, nonconverged = [0] * depth, [0] * depth
    for (layer, _), node in model.nodes.items():
        iterations[layer] += node.diagnostics.iterations
        nonconverged[layer] += not node.diagnostics.converged
    return {"iterations": iterations, "nonconverged": nonconverged}


def run_single(cfg: ExperimentConfig, data: RawDataset, run_index: int,
               keep_model: bool = False):
    """One split -> train -> evaluate cycle with fully derived seeds.

    The training split is predicted from the quantized rows the tree was
    trained on, so it is quantized once; the test split goes through
    ``evaluate_on``.  The result holds the run index, the train and test
    metrics, and the solver's per-layer ``iterations`` and ``nonconverged``
    counts; with ``keep_model`` also the model, the raw ``splits`` and the
    quantized rows it was ``trained_on``.
    """
    run_seed, train, test = split_for_run(cfg, data, run_index)
    # a test row may hold a feature's only missing cells: reserve the symbol
    with_missing = {name for name, col in zip(data.feature_names, data.columns)
                    if (col.codes < 0).any()}
    model, train_rows = train_on(train, cfg, seed=derive_seed(run_seed, _TRAIN_TAG),
                                 reserve_missing=with_missing)
    # looked up on the module at call time, as ``predict`` does, so that a
    # wrapper set on ``network.predict_quantized`` sees both splits
    train_preds = network.predict_quantized(
        model, train_rows, seed=derive_seed(run_seed, _PRED_TRAIN_TAG),
        mode=cfg.prediction.mode, repeats=cfg.prediction.repeats)
    result = {
        "run": run_index,
        "train": _scores(cfg, train.classes, train_rows.labels, train_preds),
        "test": evaluate_on(model, test, cfg, derive_seed(run_seed, _PRED_TEST_TAG)),
        **_solver_convergence(model),
    }
    if keep_model:
        result["model"] = model
        result["splits"] = (train, test)
        result["trained_on"] = train_rows
    return result


def _run_indexed(cfg: ExperimentConfig, data: RawDataset, run_index: int):
    try:
        return run_single(cfg, data, run_index)
    except DinetError as exc:
        raise type(exc)(f"run {run_index} failed: {exc}") from exc


_worker_job = None  # (config, table) of a pool worker process, set by _pool_init


def _pool_init(cfg_dict, data):
    global _worker_job
    _worker_job = (config_from_dict(cfg_dict), data)


def _pool_run(run_index):
    cfg, data = _worker_job
    return _run_indexed(cfg, data, run_index)


def _pool_results(cfg: ExperimentConfig, data: RawDataset, n_workers: int):
    """Run results in run order from a process pool.

    At most two runs per worker wait in the queue, so memory does not grow
    with ``cfg.runs``; runs still queued when one fails are cancelled.
    """
    with ProcessPoolExecutor(max_workers=n_workers, initializer=_pool_init,
                             initargs=(config_to_dict(cfg), data)) as pool:
        queued = deque()
        try:
            for r in range(cfg.runs):
                queued.append(pool.submit(_pool_run, r))
                if len(queued) > 2 * n_workers:
                    yield queued.popleft().result()
            while queued:
                yield queued.popleft().result()
        finally:
            for future in queued:
                future.cancel()


def run_experiment(cfg: ExperimentConfig, data: RawDataset,
                   progress=None) -> dict:
    """Repeat split/train/evaluate ``cfg.runs`` times and aggregate.

    Per-run seeds derive from (master seed, run index), so the worker count
    never changes the numbers; at most one process per run and per CPU is
    started.  Any per-run failure aborts, naming the run.
    """
    n_workers = min(cfg.workers, cfg.runs, os.cpu_count() or 1)
    if n_workers == 1:
        outcomes = (_run_indexed(cfg, data, r) for r in range(cfg.runs))
    else:
        outcomes = _pool_results(cfg, data, n_workers)
    results = []
    for out in outcomes:
        results.append(out)
        if progress:
            progress(out)
    return {
        "runs": cfg.runs,
        "seed": cfg.seed,
        "train": aggregate_metrics([r["train"] for r in results]),
        "test": aggregate_metrics([r["test"] for r in results]),
    }


def report_json(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


# ---------------------------------------------------------------------------
# commands

def _write(path, text):
    """Write ``text`` to ``path``; as for every output, an empty path means "do not write"."""
    if path:
        write_text(path, text)


def _flag_or(flag, configured):
    """An output flag's path; the config's only when the flag is absent ("" is "do not write")."""
    return configured if flag is None else flag


def _progress_printer(args):
    if args.quiet:
        return None

    def emit(result):
        line = {"run": result["run"],
                "train_accuracy": result["train"]["accuracy"],
                "test_accuracy": result["test"]["accuracy"],
                "iterations": result["iterations"],
                "nonconverged": result["nonconverged"]}
        print(json.dumps(line, sort_keys=True), file=sys.stderr)

    return emit


def _write_mi_flow(model, rows: QuantizedDataset, path) -> MIFlowReport:
    flow = mi_flow(model, rows)
    if path:
        flow.to_csv(path)
    return flow


def cmd_train(cfg: ExperimentConfig, args) -> int:
    data = prepare_dataset(cfg)
    result = run_single(cfg, data, run_index=0, keep_model=True)
    model = result["model"]
    model_path = _flag_or(args.model_out, cfg.outputs.model)
    if model_path:
        save_model(model, model_path)
    _write(_flag_or(args.metrics_out, cfg.outputs.metrics), report_json(result["train"]))
    _write_mi_flow(model, result["trained_on"], _flag_or(args.miflow_out, cfg.outputs.mi_flow))
    print(report_json(result["train"]), end="")
    return 0


def cmd_evaluate(cfg: ExperimentConfig, args) -> int:
    model = load_model(args.model)
    data = prepare_dataset(cfg)
    run_seed, train, test = split_for_run(cfg, data, 0)
    rows, tag = {"train": (train, _PRED_TRAIN_TAG), "test": (test, _PRED_TEST_TAG),
                 "all": (data, _PRED_TEST_TAG)}[args.split]
    metrics = evaluate_on(model, rows, cfg, derive_seed(run_seed, tag))
    _write(args.out, report_json(metrics))
    print(report_json(metrics), end="")
    return 0


def cmd_experiment(cfg: ExperimentConfig, args) -> int:
    data = prepare_dataset(cfg)
    report = run_experiment(cfg, data, progress=_progress_printer(args))
    text = report_json(report)
    _write(_flag_or(args.out, cfg.outputs.metrics), text)
    print(text, end="")
    return 0


def cmd_inspect(cfg: ExperimentConfig, args) -> int:
    model = load_model(args.model)
    flow = _write_mi_flow(model, quantize_features(model, prepare_dataset(cfg)), args.out)
    print(json.dumps({"nodes": len(flow.nodes), "muxes": len(flow.muxes),
                      "csv": str(Path(args.out)) if args.out else None}, sort_keys=True))
    return 0


def cmd_fetch(args) -> int:
    path = fetch_ckd(args.dest, url=args.url, sha256=args.sha256)
    if args.sha256 is None:
        print(json.dumps({"warning": "archive checksum not verified; "
                          "pass --sha256 to pin it"}), file=sys.stderr)
    print(json.dumps({"dataset": str(path)}))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dinet",
        description="Train and evaluate tree-structured information-bottleneck classifiers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", required=True, help="JSON experiment config")
        p.add_argument("--set", dest="overrides", action="append", default=[],
                       metavar="KEY=VALUE", help="override a config key (dotted path)")
        p.add_argument("--quiet", action="store_true", help="suppress stderr progress")

    p = sub.add_parser("train", help="train once and write model/metrics/MI-flow")
    add_common(p)
    p.add_argument("--model-out", default=None)
    p.add_argument("--metrics-out", default=None)
    p.add_argument("--miflow-out", default=None)

    p = sub.add_parser("evaluate", help="evaluate a saved model on a split")
    add_common(p)
    p.add_argument("--model", required=True)
    p.add_argument("--split", choices=["train", "test", "all"], default="test")
    p.add_argument("--out", default=None)

    p = sub.add_parser("experiment", help="repeated splits, aggregated metrics")
    add_common(p)
    p.add_argument("--out", default=None)

    p = sub.add_parser("inspect", help="emit the MI-flow CSV for a saved model")
    add_common(p)
    p.add_argument("--model", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("fetch-data", help="download the kidney-disease dataset")
    p.add_argument("--dest", default="data/ckd")
    p.add_argument("--url", default=CKD_URL)
    p.add_argument("--sha256", default=None,
                   help="expected archive checksum (verified when given)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "fetch-data":
            return cmd_fetch(args)
        cfg = apply_overrides(load_config(args.config), args.overrides)
        if args.command == "train":
            return cmd_train(cfg, args)
        if args.command == "evaluate":
            return cmd_evaluate(cfg, args)
        if args.command == "experiment":
            return cmd_experiment(cfg, args)
        if args.command == "inspect":
            return cmd_inspect(cfg, args)
        raise ConfigError(f"unknown command {args.command!r}")
    except (DinetError, MemoryError) as exc:
        if isinstance(exc, MemoryError):  # also re-raised here from pool workers
            exc = ResourceError(f"out of memory: {exc}")
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}),
              file=sys.stderr)
        return 2 if isinstance(exc, (ConfigError, DatasetFormatError)) else 1


if __name__ == "__main__":
    sys.exit(main())
