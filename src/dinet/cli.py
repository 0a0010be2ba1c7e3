"""Command-line surface: train, evaluate, experiment, inspect, fetch-data.

One declarative JSON config drives everything; every knob defaults to the
kidney-disease reference setup (beta=5, three output symbols per node below
the class node, 200 balanced training rows, 1000 runs).  Dotted ``--set``
flags override single keys.  Progress and warnings stream to stderr as JSON
lines; stdout carries only the final JSON report, so pipelines can consume
it directly.

Exit codes: 0 success, 1 runtime failure, 2 usage/config/data error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import typing
import warnings
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .analysis import MIFlowReport, mi_flow
from .dataio import (
    CKD_URL,
    DEFAULT_MISSING_TOKENS,
    RawDataset,
    fetch_ckd,
    json_error,
    load_dataset,
    load_model,
    read_json,
    save_model,
    split,
    write_text,
)
from . import network
from .errors import (ConfigError, DatasetFormatError, DinetError, ResourceError, ValidationError,
                     naming_os_errors)
from .ib import DEFAULT_MAX_ITER, DEFAULT_TOL
from .network import Topology, derive_seed, quantize_features, train_network, tree_layer_sizes
from .quantizer import (CATEGORICAL, CATEGORICAL_MAX_DISTINCT, CONTINUOUS, QuantizedDataset,
                        fit_quantizer, quantize_with)
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
    missing_tokens: list[str] = field(default_factory=lambda: list(DEFAULT_MISSING_TOKENS))
    delimiter: str = ","
    synthetic_rows: int = 400
    synthetic_seed: int = 7


@dataclass
class QuantizerConfig:
    default_levels: int | None = None     # None: one bin per distinct value
    categorical_max_distinct: int = CATEGORICAL_MAX_DISTINCT
    overrides: dict = field(default_factory=dict)


@dataclass
class ModelConfig:
    beta: float = 5.0
    n_out: int = 3                    # output alphabet of every node below the class node
    tol: float = DEFAULT_TOL
    max_iter: int = DEFAULT_MAX_ITER


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
        """Refuse a value of the wrong type or range before any table is read; the split
        keys are ``dataio.split``'s to judge, and the dataset format ``load_dataset``'s."""
        _check_types(self)
        for name, override in self.quantizer.overrides.items():
            levels = override.get("levels") if isinstance(override, dict) else None
            if not (isinstance(override, dict) and set(override) <= {"kind", "levels"}
                    and override.get("kind") in (None, CATEGORICAL, CONTINUOUS)
                    and json_error(levels, int | None, "") is None
                    and (levels is None or levels >= 2)):
                raise ConfigError(
                    f"quantizer.overrides.{name} must be an object with an optional kind "
                    f"({CATEGORICAL!r} or {CONTINUOUS!r}) and levels (an int >= 2 or null), "
                    f"got {override!r:.40}")
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
        if self.seed < 0 or self.dataset.synthetic_seed < 0:
            raise ConfigError("seed and dataset.synthetic_seed must be >= 0")
        if not 1 <= self.dataset.synthetic_rows <= MAX_ARRAY_ENTRIES:
            raise ConfigError(f"dataset.synthetic_rows must be in [1, {MAX_ARRAY_ENTRIES}]")
        if len(self.dataset.delimiter) != 1:
            raise ConfigError("dataset.delimiter must be one character")
        if self.workers < 1:
            raise ConfigError("workers must be >= 1")
        if self.prediction.mode not in ("stochastic", "ensemble"):
            raise ConfigError(f"unknown prediction mode {self.prediction.mode!r}")
        if self.prediction.repeats < 1:
            raise ConfigError("prediction.repeats must be >= 1")
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


def load_config(path) -> ExperimentConfig:
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file not found: {p}")
    raw = read_json(p, ConfigError)
    if not isinstance(raw, dict):
        raise ConfigError(f"{p}: config must be a JSON object")
    return config_from_dict(raw)


def apply_overrides(cfg: ExperimentConfig, assignments) -> ExperimentConfig:
    """Apply dotted key=value overrides (values parsed as JSON, else string).

    A value nested too deeply for the JSON reader is refused, not read as a string.
    """
    d = dataclasses.asdict(cfg)
    for item in assignments or ():
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not of the form key=value")
        key, _, value = item.partition("=")
        try:
            parsed = json.loads(value)
        except json.JSONDecodeError:
            parsed = value
        except RecursionError:
            raise ConfigError(
                f"override {key!r}: not valid JSON (nested too deeply to read)") from None
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
    if unknown := set(cfg.quantizer.overrides) - set(data.feature_names):
        raise ConfigError(f"quantizer.overrides name unknown features {sorted(unknown)}")
    return data


def _splittable_dataset(cfg: ExperimentConfig):
    """``prepare_dataset``'s table and run 0's ``split_for_run`` of it.

    ``dataio.split`` alone decides which splits a table can give, from its
    counts only, so run 0's refusal is every run's: drawn here, before run 0
    and any pool, it is a ``ConfigError`` (exit 2) with ``split``'s message.
    """
    data = prepare_dataset(cfg)
    try:
        return data, split_for_run(cfg, data, 0)
    except ValidationError as exc:
        raise ConfigError(str(exc)) from None


def fit_quantizers(train: RawDataset, qcfg: QuantizerConfig, reserve_missing=()):
    """One fitted spec per feature of the training rows.

    ``qcfg`` is a validated ``QuantizerConfig``, whose overrides name features
    of the table (``prepare_dataset`` checks the names); only their ``kind``
    and ``levels`` are read here.  Features named in ``reserve_missing`` get a
    missing symbol even when no training cell is missing; it then has zero
    training mass.
    """
    specs = []
    for i, name in enumerate(train.feature_names):
        override = qcfg.overrides.get(name, {})
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


def score(model, rows: QuantizedDataset, cfg: ExperimentConfig, seed: int) -> dict:
    """``model``'s metrics on quantized ``rows``, predicted with ``cfg.prediction`` and scored
    against ``cfg.dataset.positive_class``; ``network.predict_quantized`` is looked up at each
    call, so a wrapper set on it sees every split."""
    preds = network.predict_quantized(model, rows, seed=seed, mode=cfg.prediction.mode,
                                      repeats=cfg.prediction.repeats)
    return compute_metrics(rows.labels, preds,
                           model.class_names.index(cfg.dataset.positive_class))


def split_for_run(cfg: ExperimentConfig, data: RawDataset, run_index: int):
    """Run ``run_index``'s seed and its (train, test) split of the table."""
    run_seed = derive_seed(cfg.seed, _RUN_TAG, run_index)
    train, test = split(
        data, cfg.split.n_train, seed=derive_seed(run_seed, _SPLIT_TAG),
        stratify=cfg.split.stratify,
        positive_fraction=cfg.split.positive_fraction,
        positive_label=cfg.dataset.positive_class,
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

    Both splits are scored as ``evaluate`` scores one, by ``score``: quantized
    with the model's specs (the training split once, for training), predicted
    with ``cfg.prediction`` on its own seed and scored against
    ``cfg.dataset.positive_class``.  The result holds the run index, the train
    and test metrics, and the solver's per-layer ``iterations`` and
    ``nonconverged`` counts; with ``keep_model`` also the model, the raw
    ``splits`` and the quantized rows it was ``trained_on``.
    """
    run_seed, train, test = split_for_run(cfg, data, run_index)
    # a test row may hold a feature's only missing cells: reserve the symbol
    with_missing = {name for name, col in zip(data.feature_names, data.columns)
                    if (col.codes < 0).any()}
    model, train_rows = train_on(train, cfg, seed=derive_seed(run_seed, _TRAIN_TAG),
                                 reserve_missing=with_missing)
    result = {
        "run": run_index,
        "train": score(model, train_rows, cfg, derive_seed(run_seed, _PRED_TRAIN_TAG)),
        "test": score(model, quantize_with(model.quantizers, test), cfg,
                      derive_seed(run_seed, _PRED_TEST_TAG)),
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


def _pool_init(cfg, data):
    global _worker_job
    _worker_job = (cfg, data)
    warnings.showwarning = _say_warning


def _pool_run(run_index):
    cfg, data = _worker_job
    return _run_indexed(cfg, data, run_index)


def _pool_results(cfg: ExperimentConfig, data: RawDataset, n_workers: int):
    """Run results in run order from a process pool.

    At most two runs per worker wait in the queue, so a huge ``cfg.runs`` still starts;
    the results kept for the report's ``per_run`` grow by one per run.  Runs still queued
    when one fails are cancelled.
    """
    # imported here: multiprocessing and its modules would load into every command
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=n_workers, initializer=_pool_init,
                             initargs=(cfg, data)) as pool:
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

def _say(text: str, out=None):
    """Write ``text`` to ``out`` (stdout by default) and flush it; an ``OSError`` is a
    ``ResourceError`` naming the stream."""
    out = sys.stdout if out is None else out
    with naming_os_errors("write to", "stderr" if out is sys.stderr else "stdout"):
        try:
            out.write(text)
            out.flush()
        except OSError:
            _discard_pending(out)
            raise


def _say_warning(message, *_):
    """Write a warning to stderr as one JSON line; it stands in for ``warnings.showwarning``
    while a command runs."""
    _say(json.dumps({"warning": str(message)}) + "\n", sys.stderr)


def _discard_pending(out):
    """Point ``out``'s descriptor at the null device: a failed flush keeps its bytes, and the
    interpreter's flush at exit would fail on them again (a second message, exit 120)."""
    try:
        fd = out.fileno()
    except (AttributeError, OSError, ValueError):  # not backed by a descriptor
        return
    null = os.open(os.devnull, os.O_WRONLY)
    os.dup2(null, fd)
    os.close(null)


def _write(path, text):
    """Write ``text`` to ``path``; as for every output, an empty path means "do not write"."""
    if path:
        write_text(path, text)


def _progress_printer(args):
    if args.quiet:
        return None

    def emit(result):
        line = {"run": result["run"],
                "train_accuracy": result["train"]["accuracy"],
                "test_accuracy": result["test"]["accuracy"],
                "iterations": result["iterations"],
                "nonconverged": result["nonconverged"]}
        _say(json.dumps(line, sort_keys=True) + "\n", sys.stderr)

    return emit


def _write_mi_flow(model, rows: QuantizedDataset, path) -> MIFlowReport:
    flow = mi_flow(model, rows)
    if path:
        flow.to_csv(path)
    return flow


def cmd_train(cfg: ExperimentConfig, args) -> int:
    data, _ = _splittable_dataset(cfg)
    result = run_single(cfg, data, run_index=0, keep_model=True)
    model = result["model"]
    if cfg.outputs.model:
        save_model(model, cfg.outputs.model)
    _write(cfg.outputs.metrics, report_json(result["train"]))
    _write_mi_flow(model, result["trained_on"], cfg.outputs.mi_flow)
    _say(report_json(result["train"]))
    return 0


def cmd_evaluate(cfg: ExperimentConfig, args) -> int:
    model = load_model(args.model)
    data, (run_seed, train, test) = _splittable_dataset(cfg)
    rows, tag = {"train": (train, _PRED_TRAIN_TAG), "test": (test, _PRED_TEST_TAG),
                 "all": (data, _PRED_TEST_TAG)}[args.split]
    metrics = score(model, quantize_features(model, rows), cfg, derive_seed(run_seed, tag))
    _write(args.out, report_json(metrics))
    _say(report_json(metrics))
    return 0


def cmd_experiment(cfg: ExperimentConfig, args) -> int:
    data, _ = _splittable_dataset(cfg)
    report = run_experiment(cfg, data, progress=_progress_printer(args))
    text = report_json(report)
    _write(cfg.outputs.metrics, text)
    _say(text)
    return 0


def cmd_inspect(cfg: ExperimentConfig, args) -> int:
    model = load_model(args.model)
    flow = _write_mi_flow(model, quantize_features(model, prepare_dataset(cfg)), args.out)
    _say(json.dumps({"nodes": len(flow.nodes), "muxes": len(flow.muxes),
                     "csv": str(Path(args.out)) if args.out else None}, sort_keys=True) + "\n")
    return 0


def cmd_fetch(args) -> int:
    path = fetch_ckd(args.dest, url=args.url, sha256=args.sha256)
    if args.sha256 is None:
        _say_warning("archive checksum not verified; pass --sha256 to pin it")
    _say(json.dumps({"dataset": str(path)}) + "\n")
    return 0


class _Parser(argparse.ArgumentParser):
    """A usage error is a ``ConfigError``, so it reaches the user as one JSON line, exit 2."""

    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="dinet",
        description="Train and evaluate tree-structured information-bottleneck classifiers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", required=True, help="JSON experiment config")
        p.add_argument("--set", dest="overrides", action="append", default=[],
                       metavar="KEY=VALUE", help="override a config key (dotted path)")

    p = sub.add_parser("train", help="train once and write model/metrics/MI-flow")
    add_common(p)
    p.set_defaults(run=cmd_train)

    p = sub.add_parser("evaluate", help="evaluate a saved model on a split")
    add_common(p)
    p.add_argument("--model", required=True)
    p.add_argument("--split", choices=["train", "test", "all"], default="test")
    p.add_argument("--out", default=None)
    p.set_defaults(run=cmd_evaluate)

    p = sub.add_parser("experiment", help="repeated splits, aggregated metrics")
    add_common(p)
    p.add_argument("--quiet", action="store_true", help="suppress stderr progress")
    p.set_defaults(run=cmd_experiment)

    p = sub.add_parser("inspect", help="emit the MI-flow CSV for a saved model")
    add_common(p)
    p.add_argument("--model", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(run=cmd_inspect)

    p = sub.add_parser("fetch-data", help="download the kidney-disease dataset")
    p.add_argument("--dest", default="data/ckd")
    p.add_argument("--url", default=CKD_URL)
    p.add_argument("--sha256", default=None,
                   help="expected archive checksum (verified when given)")
    return parser


def main(argv=None) -> int:
    with warnings.catch_warnings():
        warnings.showwarning = _say_warning
        try:
            args = build_parser().parse_args(argv)
            if args.command == "fetch-data":
                return cmd_fetch(args)
            return args.run(apply_overrides(load_config(args.config), args.overrides), args)
        except (DinetError, MemoryError, Warning) as exc:  # a warning the filters made an error
            if isinstance(exc, MemoryError):  # also re-raised here from pool workers
                exc = ResourceError(f"out of memory: {exc}")
            try:
                _say(json.dumps({"error": type(exc).__name__, "message": str(exc)}) + "\n",
                     sys.stderr)
            except ResourceError:  # stderr itself cannot be written: only the exit code is left
                return 1
            return 2 if isinstance(exc, (ConfigError, DatasetFormatError)) else 1


if __name__ == "__main__":
    sys.exit(main())
