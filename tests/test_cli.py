import concurrent.futures
import csv
import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys
import warnings
from concurrent.futures import Future
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dinet.cli import (
    ExperimentConfig,
    aggregate_metrics,
    apply_overrides,
    compute_metrics,
    config_from_dict,
    load_config,
    main,
    prepare_dataset,
    run_experiment,
    run_single,
)
from dinet import cli
from dinet.network import tree_layer_sizes
from dinet.errors import ConfigError, DinetError, ValidationError
from tests.conftest import REPO_ROOT
from tests.test_dataio import write_resigned, write_table

SMOKE_CONFIG = REPO_ROOT / "configs" / "synthetic_smoke.json"
# --set overrides of SMOKE_CONFIG: as is, the published CKD-row settings (a bin
# per distinct value), and ensemble prediction
SETTINGS = {
    "smoke": (),
    "finebin": ("quantizer.default_levels=null", "model.n_out=2", "split.n_train=320",
                "split.stratify=none"),
    "ensemble": ("prediction.mode=ensemble", "prediction.repeats=5"),
}

SYNTH_CONFIG = {
    "dataset": {"format": "synthetic", "positive_class": "sick",
                "synthetic_rows": 200, "synthetic_seed": 11},
    "quantizer": {"default_levels": 8},
    "model": {"beta": 5.0, "n_out": 2},
    "split": {"n_train": 100, "stratify": "balanced", "positive_fraction": 0.5},
    "runs": 2,
    "seed": 3,
}


def child_env():
    """The environment of a child interpreter that imports this checkout's dinet."""
    src = Path(cli.__file__).resolve().parent.parent
    return dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))


@pytest.fixture()
def config_file(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(SYNTH_CONFIG))
    return p


@pytest.fixture()
def cfg(config_file):
    return load_config(config_file)


class TestConfig:
    def test_defaults_follow_reference_setup(self):
        c = ExperimentConfig()
        assert c.model.beta == 5.0
        assert c.model.n_out == 3
        assert c.split.n_train == 200
        assert c.runs == 1000

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="bogus"):
            config_from_dict({"bogus": 1})
        with pytest.raises(ConfigError, match="model"):
            config_from_dict({"model": {"beta": 5, "bogus": 1}})

    def test_validation(self):
        with pytest.raises(ConfigError):
            config_from_dict({"model": {"beta": -1}})
        with pytest.raises(ConfigError):
            config_from_dict({"runs": 0})
        with pytest.raises(ConfigError, match=r"^prediction\.repeats must be >= 1$"):
            config_from_dict({"prediction": {"repeats": 0}})

    def test_overrides(self, cfg):
        out = apply_overrides(cfg, ["model.beta=2.5", "runs=5", "split.stratify=none"])
        assert out.model.beta == 2.5 and out.runs == 5
        assert out.split.stratify == "none"
        with pytest.raises(ConfigError):
            apply_overrides(cfg, ["model.nope=1"])
        with pytest.raises(ConfigError):
            apply_overrides(cfg, ["justakey"])

    def test_round_trips_through_dict(self, cfg):
        assert config_from_dict(dataclasses.asdict(cfg)) == cfg

    def test_quantizer_overrides_reach_the_specs(self):
        from dinet.cli import QuantizerConfig, fit_quantizers
        from dinet.synthetic import make_synthetic_ckd

        data = make_synthetic_ckd(n_rows=150, seed=0)
        qcfg = QuantizerConfig(default_levels=12,
                               overrides={"lab_1": {"levels": 4},
                                          "lab_2": {"kind": "categorical"}})
        specs = {s.name: s for s in fit_quantizers(data, qcfg)}
        assert specs["lab_1"].levels == 4
        assert specs["lab_2"].kind == "categorical"
        assert specs["lab_3"].levels == 12
        assert specs["flag_15"].kind == "categorical"   # nominal hint from loader
        with pytest.raises(ConfigError, match=r"^quantizer\.overrides\.lab_1 must be an object .*"
                                              r", got \{'bins': 3\}$"):
            config_from_dict({"quantizer": {"overrides": {"lab_1": {"bins": 3}}}})
        unknown = {"overrides": {"lab0": {}, "lab_1": {}}}
        with pytest.raises(ConfigError, match=r"unknown features \['lab0'\]"):
            prepare_dataset(config_from_dict(dict(SYNTH_CONFIG, quantizer=unknown)))


def _leaf_keys(d, prefix=""):
    for key, value in d.items():
        if isinstance(value, dict) and key != "overrides":
            yield from _leaf_keys(value, f"{prefix}{key}.")
        else:
            yield prefix + key


KNOWN_KEYS = sorted(_leaf_keys(dataclasses.asdict(ExperimentConfig()))) + [
    "dataset", "model", "split"]
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(KNOWN_KEYS), JSON_VALUES)
def test_override_returns_a_config_or_raises_config_error(key, value):
    try:
        out = apply_overrides(ExperimentConfig(), [f"{key}={json.dumps(value)}"])
    except ConfigError:
        return
    assert isinstance(out, ExperimentConfig)


@pytest.fixture(scope="module")
def synth_table():
    return prepare_dataset(config_from_dict(SYNTH_CONFIG))


# any JSON value, and objects of the two override keys holding any JSON value
OVERRIDE_VALUES = JSON_VALUES | st.fixed_dictionaries({}, optional={
    "kind": st.sampled_from(["categorical", "continuous"]) | JSON_VALUES,
    "levels": st.integers() | JSON_VALUES})


@settings(max_examples=300, deadline=None)
@given(OVERRIDE_VALUES)
def test_an_override_is_refused_when_read_or_fits(synth_table, value):
    try:
        cfg = config_from_dict(dict(SYNTH_CONFIG, quantizer={"overrides": {"lab_1": value}}))
    except ConfigError:
        return
    try:
        specs = cli.fit_quantizers(synth_table, cfg.quantizer)
    except DinetError:
        return
    spec = specs[synth_table.feature_names.index("lab_1")]
    assert spec.kind == value.get("kind") or value.get("kind") is None


class TestMetrics:
    def test_confusion_identities(self):
        y_true = np.array([1, 1, 1, 0, 0, 0])
        y_pred = np.array([1, 1, 0, 0, 0, 1])
        m = compute_metrics(y_true, y_pred, positive_index=1)
        assert (m["tp"], m["tn"], m["fp"], m["fn"]) == (2, 2, 1, 1)
        total = m["tp"] + m["tn"] + m["fp"] + m["fn"]
        assert m["accuracy"] == pytest.approx((m["tp"] + m["tn"]) / total)
        assert m["sensitivity"] == pytest.approx(m["tp"] / (m["tp"] + m["fn"]))
        assert m["specificity"] == pytest.approx(m["tn"] / (m["tn"] + m["fp"]))
        assert m["f1"] == pytest.approx(2 * m["tp"] / (2 * m["tp"] + m["fp"] + m["fn"]))

    def test_empty_denominators(self):
        m = compute_metrics(np.zeros(4, int), np.zeros(4, int), positive_index=1)
        assert m["sensitivity"] == 0.0 and m["accuracy"] == 1.0

    def test_aggregate_equals_arithmetic_mean(self):
        runs = [
            {"accuracy": 0.9, "sensitivity": 0.8, "specificity": 0.7, "f1": 0.6},
            {"accuracy": 0.5, "sensitivity": 0.4, "specificity": 0.3, "f1": 0.2},
            {"accuracy": 0.7, "sensitivity": 0.9, "specificity": 0.5, "f1": 0.4},
        ]
        agg = aggregate_metrics(runs)
        for key in ("accuracy", "sensitivity", "specificity", "f1"):
            manual = sum(r[key] for r in runs) / len(runs)
            assert abs(agg["mean"][key] - manual) < 1e-12


class TestPipeline:
    def test_planted_rule_is_recovered(self):
        # the synthetic table separates deterministically on one feature;
        # majority voting washes out the sampling noise of the tree
        cfg = config_from_dict({
            "dataset": {"format": "synthetic", "positive_class": "sick",
                        "synthetic_rows": 400, "synthetic_seed": 7},
            "quantizer": {"default_levels": 10},
            "model": {"beta": 5.0, "n_out": 3},
            "split": {"n_train": 200, "stratify": "balanced"},
            "prediction": {"mode": "ensemble", "repeats": 25},
            "runs": 1, "seed": 0,
        })
        data = prepare_dataset(cfg)
        result = run_single(cfg, data, 0)
        assert result["train"]["accuracy"] >= 0.99

    def test_run_single_is_deterministic(self, cfg):
        data = prepare_dataset(cfg)
        a = run_single(cfg, data, 0)
        b = run_single(cfg, data, 0)
        assert a == b

    def test_runs_differ_across_indices(self, cfg):
        data = prepare_dataset(cfg)
        a = run_single(cfg, data, 0)
        b = run_single(cfg, data, 1)
        assert a["test"] != b["test"]

    def test_experiment_aggregates_runs(self, cfg):
        data = prepare_dataset(cfg)
        report = run_experiment(cfg, data)
        assert report["runs"] == 2
        accs = [r["accuracy"] for r in report["test"]["per_run"]]
        assert report["test"]["mean"]["accuracy"] == pytest.approx(
            sum(accs) / len(accs), abs=1e-12)

    @pytest.mark.parametrize("overrides", [[], ["quantizer.default_levels=null", "model.n_out=2",
                                                 "split.n_train=320", "split.stratify=none"]],
                             ids=["smoke", "finebin"])
    def test_run_single_quantizes_the_training_rows_once(self, overrides, monkeypatch):
        # the training split is predicted from the rows the tree was trained
        # on, through the network module's binding, which wrappers replace
        from dinet import network
        from dinet.cli import _PRED_TEST_TAG, _PRED_TRAIN_TAG, score, split_for_run
        from dinet.network import derive_seed, quantize_features
        from tests.conftest import REPO_ROOT

        cfg = apply_overrides(load_config(REPO_ROOT / "configs" / "synthetic_smoke.json"),
                              overrides)
        data = prepare_dataset(cfg)
        predict_quantized, train_network = network.predict_quantized, cli.train_network
        quantize_with = {module: module.quantize_with for module in (cli, network)}
        calls, trained_on, quantized = [], [], []

        def recording_predict(model, rows, **kwargs):
            calls.append((rows, kwargs["seed"]))
            return predict_quantized(model, rows, **kwargs)

        def recording_train(rows, *args, **kwargs):
            trained_on.append(rows)
            return train_network(rows, *args, **kwargs)

        def recording_quantize(module):
            def quantize(specs, raw):
                quantized.append(raw.n_rows)
                return quantize_with[module](specs, raw)
            return quantize

        monkeypatch.setattr(network, "predict_quantized", recording_predict)
        monkeypatch.setattr(cli, "train_network", recording_train)
        for module in quantize_with:
            monkeypatch.setattr(module, "quantize_with", recording_quantize(module))
        for run in range(3):
            for log in (calls, trained_on, quantized):
                log.clear()
            result = run_single(cfg, data, run, keep_model=True)
            run_seed, train, test = split_for_run(cfg, data, run)
            model = result["model"]
            assert [seed for _, seed in calls] == [derive_seed(run_seed, _PRED_TRAIN_TAG),
                                                   derive_seed(run_seed, _PRED_TEST_TAG)]
            assert calls[0][0] is trained_on[0] is result["trained_on"]
            assert quantized == [train.n_rows, test.n_rows]
            for rows, raw in zip([rows for rows, _ in calls], (train, test)):
                want = quantize_features(model, raw)
                assert all(np.array_equal(a, b) for a, b in zip(rows.columns, want.columns))
                assert np.array_equal(rows.labels, want.labels)
            for part, raw, tag in (("train", train, _PRED_TRAIN_TAG),
                                   ("test", test, _PRED_TEST_TAG)):
                assert result[part] == score(model, quantize_features(model, raw), cfg,
                                             derive_seed(run_seed, tag))

    @pytest.mark.parametrize("n_out, expected", [(3, (3, 3, 3, 3, 2)), (2, (2, 2, 2, 2, 2))],
                             ids=["n_out=3", "n_out=2"])
    def test_integer_n_out_expands_below_the_class_layer(self, n_out, expected):
        cfg = config_from_dict(dict(SYNTH_CONFIG, model={"n_out": n_out}))
        model, _ = cli.train_on(prepare_dataset(cfg), cfg, seed=0)
        assert model.topology.n_out == expected

    def test_channel_size_limit_is_exact(self, cfg, monkeypatch):
        data = prepare_dataset(cfg)
        model, _ = cli.train_on(data, cfg, seed=0)
        largest = max(node.channel.rows * node.channel.cols for node in model.nodes.values())
        monkeypatch.setattr(cli, "MAX_ARRAY_ENTRIES", largest)
        assert cli.train_on(data, cfg, seed=0)[0].topology == model.topology
        monkeypatch.setattr(cli, "MAX_ARRAY_ENTRIES", largest - 1)
        with pytest.raises(ConfigError, match=f"exceeds the limit of {largest - 1};"):
            cli.train_on(data, cfg, seed=0)

    def test_missing_cell_only_in_test_rows(self):
        # the split puts the table's only missing cell in the test rows; the
        # quantizer must still reserve a missing symbol for it
        from dinet import RawColumn, RawDataset

        cfg = config_from_dict({
            "dataset": {"format": "synthetic", "positive_class": "a"},
            "quantizer": {"default_levels": 2},
            "model": {"n_out": 2},
            "split": {"n_train": 12, "stratify": "none"},
            "runs": 1, "seed": 0,
        })
        n = 20
        ids = RawColumn.from_cells([float(i) for i in range(n)])
        x = [float(i % 3) for i in range(n)]
        labels = np.array([i % 2 == 0 for i in range(n)], dtype=np.int64)  # "a" on odd rows

        def table(x_column):
            return RawDataset(("id", "x"), (ids, RawColumn.from_cells(x_column)), "class",
                              labels, ("a", "b"))

        _, test = run_single(cfg, table(x), 0, keep_model=True)["splits"]
        row = int(test.columns[0].numbers[test.columns[0].codes[0]])
        x_missing = x[:row] + [None] + x[row + 1:]
        result = run_single(cfg, table(x_missing), 0, keep_model=True)
        train, test = result["splits"]
        assert -1 not in train.columns[1].codes and -1 in test.columns[1].codes
        spec = result["model"].quantizers[1]
        assert spec.has_missing and spec.cardinality == 3

    def test_workers_do_not_change_results(self, config_file):
        cfg1 = load_config(config_file)
        data = prepare_dataset(cfg1)
        seq = run_experiment(cfg1, data)
        cfg2 = apply_overrides(cfg1, ["workers=2"])
        par = run_experiment(cfg2, data)
        assert seq == par

    @pytest.mark.parametrize("cpus, started", [(8, [3]), (2, [2]), (1, [])])
    def test_pool_starts_at_most_one_process_per_run_and_cpu(self, cfg, monkeypatch,
                                                             cpus, started):
        class InlinePool:
            """Records the pool size and runs each submitted run in this process."""

            def __init__(self, max_workers, initializer, initargs):
                sizes.append(max_workers)
                initializer(*initargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                future = Future()
                future.set_result(fn(*args))
                return future

        sizes = []
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
        monkeypatch.setattr(cli, "_worker_job", None)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
        data = prepare_dataset(cfg)
        report = run_experiment(apply_overrides(cfg, ["workers=1000000", "runs=3"]), data)
        assert sizes == started
        assert report == run_experiment(apply_overrides(cfg, ["runs=3"]), data)


class TestCommands:
    def run(self, *argv, capsys=None):
        code = main(list(argv))
        out, err = capsys.readouterr()
        return code, out, err

    def test_experiment_byte_identical(self, config_file, tmp_path, capsys):
        r1 = tmp_path / "r1.json"
        r2 = tmp_path / "r2.json"
        code, out, _ = self.run("experiment", "--config", str(config_file),
                                "--quiet", "--set", f"outputs.metrics={r1}", capsys=capsys)
        assert code == 0
        code, _, _ = self.run("experiment", "--config", str(config_file),
                              "--quiet", "--set", f"outputs.metrics={r2}", capsys=capsys)
        assert code == 0
        assert r1.read_bytes() == r2.read_bytes()
        report = json.loads(out)
        assert report["runs"] == 2
        assert report["train"]["mean"]["accuracy"] > 0.9

    def test_progress_lines_are_json(self, config_file, capsys):
        code, out, err = self.run("experiment", "--config", str(config_file),
                                  capsys=capsys)
        assert code == 0
        lines = [ln for ln in err.strip().splitlines() if ln]
        assert len(lines) == 2
        record = json.loads(lines[0])
        assert set(record) == {"run", "train_accuracy", "test_accuracy",
                               "iterations", "nonconverged"}

    def test_progress_lines_report_solver_convergence_per_layer(self, config_file, capsys):
        errs = []
        for workers in (1, 2):
            code, _, err = self.run("experiment", "--config", str(config_file),
                                    "--set", f"workers={workers}", capsys=capsys)
            assert code == 0
            errs.append(err)
        assert errs[0] == errs[1]
        data = prepare_dataset(load_config(config_file))
        depth = len(tree_layer_sizes(len(data.feature_names)))
        records = [json.loads(ln) for ln in errs[0].splitlines() if ln]
        assert [r["run"] for r in records] == [0, 1]
        for record in records:
            assert len(record["iterations"]) == len(record["nonconverged"]) == depth
            assert all(n >= 0 for n in record["iterations"] + record["nonconverged"])
            assert sum(record["iterations"]) > 0

    def test_train_writes_artifacts(self, config_file, tmp_path, capsys):
        model_out = tmp_path / "model.json"
        metrics_out = tmp_path / "metrics.json"
        flow_out = tmp_path / "flow.csv"
        code, out, _ = self.run(
            "train", "--config", str(config_file),
            "--set", f"outputs.model={model_out}", "--set", f"outputs.metrics={metrics_out}",
            "--set", f"outputs.mi_flow={flow_out}", capsys=capsys)
        assert code == 0
        assert model_out.exists() and metrics_out.exists() and flow_out.exists()
        metrics = json.loads(metrics_out.read_text())
        assert metrics["accuracy"] >= 0.9
        assert json.loads(out) == metrics

    def test_train_quantizes_the_training_split_once(self, tmp_path, capsys, monkeypatch):
        # the MI-flow CSV is computed on the rows the tree was trained on
        from dinet import load_model, mi_flow, network
        from dinet.cli import split_for_run
        from tests.conftest import REPO_ROOT

        config = REPO_ROOT / "configs" / "synthetic_smoke.json"
        quantize_with = {module: module.quantize_with for module in (cli, network)}
        quantized = []

        def recording_quantize(module):
            def quantize(specs, raw):
                quantized.append(raw.n_rows)
                return quantize_with[module](specs, raw)
            return quantize

        for module in quantize_with:
            monkeypatch.setattr(module, "quantize_with", recording_quantize(module))
        model_out, flow_out = tmp_path / "model.json", tmp_path / "flow.csv"
        code, _, _ = self.run("train", "--config", str(config),
                              "--set", f"outputs.model={model_out}",
                              "--set", f"outputs.mi_flow={flow_out}",
                              "--set", 'outputs.metrics=""', capsys=capsys)
        monkeypatch.undo()
        assert code == 0
        cfg = load_config(config)
        _, train, test = split_for_run(cfg, prepare_dataset(cfg), 0)
        assert quantized == [train.n_rows, test.n_rows]
        model = load_model(model_out)
        want = tmp_path / "want.csv"
        mi_flow(model, network.quantize_features(model, train)).to_csv(want)
        assert flow_out.read_bytes() == want.read_bytes()

    @staticmethod
    def constant_feature_config(tmp_path, **outputs):
        """A config whose CSV table has a constant feature, ``const``, beside one that is not."""
        rows = ["const,x,class"]
        for i in range(60):
            x = (i * 7) % 13
            rows.append(f"5,{x},{'ckd' if x > 5 else 'notckd'}")
        data = tmp_path / "table.csv"
        data.write_text("\n".join(rows) + "\n")
        cfg = dict(SYNTH_CONFIG, split={"n_train": 40, "stratify": "none"},
                   outputs={"model": "", "metrics": "", "mi_flow": "", **outputs})
        cfg["dataset"] = {"format": "csv", "path": str(data), "target": "class",
                          "positive_class": "ckd"}
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(cfg))
        return p

    def test_constant_feature_has_zero_output_entropy_not_minus_zero(self, tmp_path, capsys):
        flow_out = tmp_path / "flow.csv"
        p = self.constant_feature_config(tmp_path, mi_flow=str(flow_out))
        with warnings.catch_warnings():
            warnings.simplefilter("default")  # not the test suite's error
            code, _, err = self.run("train", "--config", str(p), capsys=capsys)
        assert code == 0
        assert [json.loads(line) for line in err.splitlines()] == [
            {"warning": "feature 'const' is constant; using a single degenerate bin"}]
        with open(flow_out, newline="") as fh:
            node = next(csv.DictReader(fh))
        # one bin, so node (0, 0) passes a point mass through
        assert (node["kind"], node["layer"], node["position"]) == ("node", "0", "0")
        assert (node["mi_in_y"], node["mi_out_y"], node["h_out"]) == ("0.0", "0.0", "0.0")

    @pytest.mark.parametrize("workers", [1, 2])
    def test_a_warning_reaches_stderr_as_a_json_line(self, tmp_path, workers):
        # before, Python's two-line warning text came out between the JSON lines,
        # once per process
        done = subprocess.run(
            [sys.executable, "-m", "dinet", "experiment",
             "--config", str(self.constant_feature_config(tmp_path)),
             "--set", f"workers={workers}"],
            capture_output=True, text=True, env=child_env(), timeout=300)
        assert done.returncode == 0, done.stderr
        records = [json.loads(line) for line in done.stderr.splitlines()]
        warned = [r for r in records if "warning" in r]
        # each process warns once; the progress records are the rest
        assert 1 <= len(warned) <= workers
        assert set(map(json.dumps, warned)) == {json.dumps(
            {"warning": "feature 'const' is constant; using a single degenerate bin"})}
        assert [r["run"] for r in records if "run" in r] == [0, 1]
        assert len(records) == len(warned) + 2

    @pytest.mark.parametrize("workers", [1, 2])
    def test_a_warning_made_an_error_is_one_json_error_line(self, tmp_path, workers):
        done = subprocess.run(
            [sys.executable, "-W", "error", "-m", "dinet", "experiment", "--quiet",
             "--config", str(self.constant_feature_config(tmp_path)),
             "--set", f"workers={workers}"],
            capture_output=True, text=True, env=child_env(), timeout=300)
        assert (done.returncode, done.stdout) == (1, "")
        assert [json.loads(line) for line in done.stderr.splitlines()] == [
            {"error": "UserWarning",
             "message": "feature 'const' is constant; using a single degenerate bin"}]

    @pytest.mark.parametrize("empty", ["model", "metrics", "mi_flow"])
    def test_train_skips_an_empty_output_path(self, config_file, tmp_path, capsys, empty):
        paths = {key: str(tmp_path / f"{key}.out") for key in ("model", "metrics", "mi_flow")}
        paths[empty] = ""
        args = [arg for key, path in paths.items()
                for arg in ("--set", f"outputs.{key}={json.dumps(path)}")]
        code, out, err = self.run("train", "--config", str(config_file), *args,
                                  capsys=capsys)
        assert (code, err) == (0, "")
        assert json.loads(out)["accuracy"] >= 0.9
        written = sorted(p.name for p in tmp_path.rglob("*") if p.name != config_file.name)
        assert written == sorted(f"{key}.out" for key in paths if key != empty)

    def test_experiment_skips_an_empty_output_path(self, config_file, tmp_path, capsys):
        code, out, err = self.run("experiment", "--config", str(config_file), "--quiet",
                                  "--set", 'outputs.metrics=""', capsys=capsys)
        assert (code, err) == (0, "")
        assert json.loads(out)["runs"] == 2
        assert [p.name for p in tmp_path.iterdir()] == [config_file.name]

    def test_inspect_skips_an_empty_output_path(self, config_file, tmp_path, capsys):
        model_out = tmp_path / "model.json"
        self.run("train", "--config", str(config_file),
                 "--set", f"outputs.model={model_out}", capsys=capsys)
        code, out, _ = self.run("inspect", "--config", str(config_file),
                                "--model", str(model_out), "--out", "", capsys=capsys)
        assert code == 0
        assert json.loads(out) == {"nodes": 46, "muxes": 23, "csv": None}

    def test_huge_run_count_fails_on_its_first_run(self, config_file, capsys, monkeypatch):
        def fail(cfg, data, run_index):
            raise ValidationError(f"run {run_index} failed: stop")

        monkeypatch.setattr(cli, "_run_indexed", fail)
        code, _, err = self.run("experiment", "--config", str(config_file), "--quiet",
                                "--set", f"runs={10**20}", "--set", "workers=1",
                                capsys=capsys)
        assert code == 1
        lines = err.strip().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0]) == {"error": "ValidationError",
                                        "message": "run 0 failed: stop"}

    def test_evaluate_matches_experiment_run_zero(self, config_file, tmp_path, capsys):
        model_out = tmp_path / "model.json"
        code, _, _ = self.run("train", "--config", str(config_file),
                              "--set", f"outputs.model={model_out}", capsys=capsys)
        assert code == 0
        code, out, _ = self.run("evaluate", "--config", str(config_file),
                                "--model", str(model_out), "--split", "test",
                                capsys=capsys)
        assert code == 0
        eval_metrics = json.loads(out)
        cfg = load_config(config_file)
        data = prepare_dataset(cfg)
        run0 = run_single(cfg, data, 0)
        assert eval_metrics == run0["test"]

    def test_inspect_emits_csv(self, config_file, tmp_path, capsys):
        model_out = tmp_path / "model.json"
        self.run("train", "--config", str(config_file),
                 "--set", f"outputs.model={model_out}", capsys=capsys)
        flow_out = tmp_path / "flow.csv"
        code, out, _ = self.run("inspect", "--config", str(config_file),
                                "--model", str(model_out), "--out", str(flow_out),
                                capsys=capsys)
        assert code == 0
        assert flow_out.exists()
        assert json.loads(out)["nodes"] == 46

    @pytest.mark.parametrize("override", [
        "split.n_train=0", "split.positive_fraction=1.5", "split.stratify=smart"])
    def test_inspect_reads_no_split_key(self, config_file, tmp_path, capsys, override):
        # inspect draws no split, so only dataio.split's rules could refuse these
        model_out, flow_out = tmp_path / "model.json", tmp_path / "flow.csv"
        self.run("train", "--config", str(config_file),
                 "--set", f"outputs.model={model_out}", capsys=capsys)
        code, out, err = self.run("inspect", "--config", str(config_file), "--set", override,
                                  "--model", str(model_out), "--out", str(flow_out),
                                  capsys=capsys)
        assert (code, err) == (0, "")
        assert json.loads(out)["csv"] == str(flow_out)
        assert flow_out.exists()

    @pytest.mark.parametrize("key, edit", [
        ("class_names", lambda names: names[::-1]),
        ("feature_names", lambda names: names[::-1]),
    ], ids=["class_names", "feature_names"])
    def test_inspect_refuses_a_table_the_model_does_not_name(self, config_file, tmp_path,
                                                             capsys, key, edit):
        model_out = tmp_path / "model.json"
        self.run("train", "--config", str(config_file),
                 "--set", f"outputs.model={model_out}", capsys=capsys)
        doc = json.loads(model_out.read_text())
        doc["payload"][key] = edit(doc["payload"][key])
        write_resigned(doc, model_out)
        flow_out = tmp_path / "flow.csv"
        for command in ("evaluate", "inspect"):
            code, out, err = self.run(command, "--config", str(config_file),
                                      "--model", str(model_out), "--out", str(flow_out),
                                      capsys=capsys)
            assert (code, out) == (1, "")
            assert self.one_error_line(err)["error"] == "SchemaMismatchError"
        assert not flow_out.exists()

    @pytest.mark.parametrize("key, value", [
        ("feature_names", [1]),  # neither hashable nor sortable
        ("feature_names", 7),
        ("class_names", None),
    ], ids=["feature_names-list", "feature_names-int", "class_names-null"])
    def test_a_non_string_name_is_refused_at_load(self, config_file, tmp_path, capsys,
                                                  key, value):
        model_out = tmp_path / "model.json"
        self.run("train", "--config", str(config_file),
                 "--set", f"outputs.model={model_out}", capsys=capsys)
        doc = json.loads(model_out.read_text())
        doc["payload"][key][0] = value
        write_resigned(doc, model_out)
        flow_out = tmp_path / "flow.csv"
        for command in ("evaluate", "inspect"):
            code, out, err = self.run(command, "--config", str(config_file),
                                      "--model", str(model_out), "--out", str(flow_out),
                                      capsys=capsys)
            assert (code, out) == (1, "")
            error = self.one_error_line(err)
            assert error["error"] == "ModelFormatError"
            assert f"key {key!r} must be list[str]" in error["message"]
        assert not flow_out.exists()

    @pytest.mark.parametrize("settings", ["smoke", "finebin"])
    def test_train_inspect_evaluate_and_reload_a_model(self, tmp_path, capsys, settings):
        from dinet import load_model, save_model

        base = ["--config", str(SMOKE_CONFIG),
                *[arg for item in SETTINGS[settings] for arg in ("--set", item)]]
        model_out, flow_out = tmp_path / "m.json", tmp_path / "flow.csv"
        code, _, err = self.run("train", *base, "--set", f"outputs.model={model_out}",
                                "--set", 'outputs.metrics=""', "--set", 'outputs.mi_flow=""',
                                capsys=capsys)
        assert (code, err) == (0, "")
        code, out, err = self.run("inspect", *base, "--model", str(model_out),
                                  "--out", str(flow_out), capsys=capsys)
        assert (code, err) == (0, "")
        assert json.loads(out) == {"nodes": 46, "muxes": 23, "csv": str(flow_out)}
        with open(flow_out, newline="") as fh:
            nodes = [row for row in csv.DictReader(fh) if row["kind"] == "node"]
        assert len(nodes) == 46
        # copysign also finds -0.0, which a plain "< 0" lets through
        bad = [(row["layer"], row["position"], key, row[key]) for row in nodes
               for key in ("mi_in_y", "mi_out_y", "h_out")
               if math.isnan(float(row[key])) or math.copysign(1.0, float(row[key])) < 0]
        assert bad == []
        code, out, err = self.run("evaluate", *base, "--model", str(model_out), capsys=capsys)
        assert (code, err) == (0, "")
        assert 0 <= json.loads(out)["accuracy"] <= 1
        save_model(load_model(model_out), tmp_path / "m2.json")
        assert (tmp_path / "m2.json").read_bytes() == model_out.read_bytes()
        # version 1 has no reader left
        doc = json.loads(model_out.read_text())
        doc["version"] = 1
        write_resigned(doc, model_out)
        for command in ("inspect", "evaluate"):
            code, out, err = self.run(command, *base, "--model", str(model_out), "--out", "",
                                      capsys=capsys)
            assert (code, out) == (1, "")
            assert self.one_error_line(err)["error"] == "ModelVersionError"

    def test_missing_dataset_exits_2_naming_path(self, tmp_path, capsys):
        cfg = dict(SYNTH_CONFIG)
        cfg["dataset"] = {"format": "csv", "path": str(tmp_path / "gone.csv"),
                          "target": "class", "positive_class": "ckd"}
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(cfg))
        code, _, err = self.run("experiment", "--config", str(p), "--quiet",
                                capsys=capsys)
        assert code == 2
        record = json.loads(err.strip().splitlines()[-1])
        assert "gone.csv" in record["message"]

    @pytest.mark.parametrize("token", ["nan", "inf"])
    @pytest.mark.parametrize("command", ["train", "experiment"])
    def test_non_finite_cell_exits_1_naming_feature(self, tmp_path, capsys, token, command):
        rows = ["age,flag,class"]
        for i in range(60):
            age = token if i == 7 else str(20 + (i * 7) % 45)
            rows.append(f"{age},{'yes' if i % 3 else 'no'},{'ckd' if i % 2 else 'notckd'}")
        data = tmp_path / "table.csv"
        data.write_text("\n".join(rows) + "\n")
        cfg = dict(SYNTH_CONFIG, split={"n_train": 40, "stratify": "none"},
                   outputs={"model": "", "metrics": "", "mi_flow": ""})
        cfg["dataset"] = {"format": "csv", "path": str(data), "target": "class",
                          "positive_class": "ckd"}
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(cfg))
        code, _, err = self.run(command, "--config", str(p), capsys=capsys)
        assert code == 1
        lines = err.strip().splitlines()
        assert len(lines) == 1
        record = json.loads(lines[0])
        assert f"feature 'age': non-finite value '{token}'" in record["message"]

    @pytest.mark.parametrize("text", ['{"model": {"beta": -3}}', "[1, 2]"],
                             ids=["negative-beta", "not-an-object"])
    def test_bad_config_exits_2(self, tmp_path, capsys, text):
        p = tmp_path / "cfg.json"
        p.write_text(text)
        code, _, err = self.run("experiment", "--config", str(p), "--quiet",
                                capsys=capsys)
        assert code == 2
        assert self.one_error_line(err)["error"] == "ConfigError"

    @pytest.mark.parametrize("argv", [
        ["experiment", "--config", str(SMOKE_CONFIG), "--bogus"],
        ["experiment"],
        ["evaluate", "--config", str(SMOKE_CONFIG), "--model", "m.json", "--split", "all-rows"],
        [],
        ["train", "--config", str(SMOKE_CONFIG), "--model-out", "x"],
        ["train", "--config", str(SMOKE_CONFIG), "--quiet"],
        ["evaluate", "--config", str(SMOKE_CONFIG), "--model", "m.json", "--quiet"],
        ["inspect", "--config", str(SMOKE_CONFIG), "--model", "m.json", "--out", "", "--quiet"],
        ["experiment", "--config", str(SMOKE_CONFIG), "--model-out", "x"],
    ], ids=["unknown-flag", "no-config", "bad-split", "no-command", "removed-flag",
            "train-quiet", "evaluate-quiet", "inspect-quiet", "experiment-removed-flag"])
    def test_a_usage_error_is_one_config_error_line(self, tmp_path, capsys, argv):
        code, out, err = self.run(*argv, capsys=capsys)
        assert (code, out) == (2, "")
        assert self.one_error_line(err)["error"] == "ConfigError"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv", [["-h"], ["experiment", "--help"]])
    def test_help_prints_usage_and_exits_0(self, capsys, argv):
        with pytest.raises(SystemExit) as info:
            main(argv)
        out, err = capsys.readouterr()
        assert (info.value.code, err) == (0, "")
        assert out.startswith("usage: dinet")

    @pytest.mark.parametrize("table, line", [
        ("a,class\n1,x\n2," + "y" * (csv.field_size_limit() + 1) + "\n", 3),
        ("a,class\n1,x\n2,\n", 3),
    ], ids=["cell-over-the-field-limit", "empty-target-cell"])
    def test_a_table_error_exits_2_naming_its_line(self, tmp_path, capsys, table, line):
        data = tmp_path / "table.csv"
        data.write_text(table)
        code, out, err = self.run("experiment", "--config", str(SMOKE_CONFIG), "--quiet",
                                  "--set", "dataset.format=csv", "--set", f"dataset.path={data}",
                                  capsys=capsys)
        assert (code, out) == (2, "")
        record = self.one_error_line(err)
        assert record["error"] == "DatasetFormatError"
        assert record["message"].startswith(f"{data}: line {line}: ")

    @pytest.mark.parametrize("override", [
        "model.beta=abc", "runs=1.5", 'seed="x"', "split.n_train=abc",
        "quantizer.default_levels=abc", "dataset.synthetic_rows=abc",
        "model.beta=NaN", f"model.beta={10**400}", "model.max_iter=true", "seed=-1",
        "dataset.synthetic_rows=0",
        'dataset.missing_tokens="?"', "model.n_out=[3.0, 2]", 'dataset.delimiter=""',
        "split.positive_fraction=1.5", "split.positive_fraction=-0.5",
        "quantizer.default_levels=1", "split.n_train=0", "model.n_out=[3]", "model.n_out=0",
        "model.tol=0", "model.max_iter=0", "workers=0", "prediction.mode=vote",
        "dataset.format=xml", "nope.beta=1", "dataset.positive_class=nope",
        "split.stratify=smart", 'quantizer.overrides={"lab_1": {"levels": 1}}',
    ])
    def test_mistyped_override_exits_2(self, config_file, capsys, override):
        code, _, err = self.run("experiment", "--config", str(config_file), "--quiet",
                                "--set", override, capsys=capsys)
        assert code == 2
        lines = err.strip().splitlines()
        assert len(lines) == 1
        record = json.loads(lines[0])
        assert record["error"] == "ConfigError"
        assert not record["message"].startswith("run 0 failed")  # refused before run 0

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("command", ["experiment", "train", "evaluate"])
    @pytest.mark.parametrize("override, key", [
        ("split.n_train=400", "split.n_train must be below the table's 400 rows"),
        ("split.n_train=1000", "split.n_train must be below the table's 400 rows"),
        ("split.positive_fraction=0", "split.positive_fraction=0 needs 0 positive and 200 "),
        ("split.n_train=399", "needs 200 positive and 199 negative rows"),
    ])
    def test_an_impossible_split_exits_2_before_run_0(self, capsys, monkeypatch, override, key,
                                                      command, workers):
        # a real pool of two, even where this machine has one CPU
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
        argv = [command, "--config", str(SMOKE_CONFIG), "--set", override,
                "--set", f"workers={workers}", "--set", 'outputs.metrics=""',
                "--set", 'outputs.model=""', "--set", 'outputs.mi_flow=""']
        argv += {"experiment": ["--quiet"], "train": [],
                 "evaluate": ["--model", str(REPO_ROOT / "tests" / "fixtures" / "model.json")]
                 }[command]
        code, out, err = self.run(*argv, capsys=capsys)
        assert (code, out) == (2, "")
        record = self.one_error_line(err)
        assert record["error"] == "ConfigError"
        assert key in record["message"]
        assert not record["message"].startswith("run 0 failed")

    @pytest.mark.parametrize("command", ["experiment", "train", "evaluate"])
    def test_the_pre_run_refusal_is_the_split_refusal(self, capsys, monkeypatch, command):
        message = "split.n_train=200 is refused by a stand-in split"

        def refuse(*args, **kwargs):
            raise ValidationError(message)

        monkeypatch.setattr(cli, "split", refuse)
        argv = [command, "--config", str(SMOKE_CONFIG), "--set", 'outputs.metrics=""',
                "--set", 'outputs.model=""', "--set", 'outputs.mi_flow=""']
        if command == "evaluate":
            argv += ["--model", str(REPO_ROOT / "tests" / "fixtures" / "model.json")]
        code, out, err = self.run(*argv, capsys=capsys)
        assert (code, out) == (2, "")
        assert self.one_error_line(err) == {"error": "ConfigError", "message": message}

    def test_an_unwritable_stderr_exits_1_with_nothing_more(self, capsys, monkeypatch):
        class Full:
            def write(self, *args):
                raise OSError(28, "No space left on device")

            flush = write

        monkeypatch.setattr(sys, "stderr", Full())
        # the progress line fails first, then the error line that reports it
        code, out, _ = self.run("experiment", "--config", str(SMOKE_CONFIG), "--set", "runs=1",
                                "--set", 'outputs.metrics=""', capsys=capsys)
        assert (code, out) == (1, "")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("command", ["train", "evaluate", "experiment", "inspect"])
    def test_an_unwritable_stdout_is_one_resource_error_line(self, tmp_path, capsys, command):
        model = tmp_path / "model.json"
        no_files = ["--set", 'outputs.metrics=""', "--set", 'outputs.model=""',
                    "--set", 'outputs.mi_flow=""', "--set", "runs=1"]
        assert self.run("train", "--config", str(SMOKE_CONFIG), *no_files,
                        "--set", f"outputs.model={model}", capsys=capsys)[0] == 0
        argv = {"train": [], "experiment": ["--quiet"],
                "evaluate": ["--model", str(model)],
                "inspect": ["--model", str(model), "--out", str(tmp_path / "flow.csv")]}[command]
        done = self.run_on_full(command, *no_files, *argv, cwd=tmp_path)
        assert done.returncode == 1
        assert "Traceback" not in done.stderr
        record = self.one_error_line(done.stderr)
        assert record == {"error": "ResourceError",
                          "message": "cannot write to stdout: No space left on device"}

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_an_unwritable_stdout_and_stderr_exit_1(self, tmp_path):
        # the progress line fails on stderr before the report fails on stdout
        done = self.run_on_full("experiment", "--set", "runs=1", "--set", 'outputs.metrics=""',
                                cwd=tmp_path, stderr_too=True)
        assert done.returncode == 1

    @staticmethod
    def run_on_full(command, *argv, cwd, stderr_too=False):
        """Run the CLI in a child whose stdout (and stderr, if asked) is ``/dev/full``, with
        the interpreter's default buffering, so its flush at exit is part of the outcome."""
        env = child_env()
        env.pop("PYTHONUNBUFFERED", None)
        with open("/dev/full", "w") as full:
            return subprocess.run(
                [sys.executable, "-m", "dinet", command, "--config", str(SMOKE_CONFIG), *argv],
                stdout=full, stderr=full if stderr_too else subprocess.PIPE, text=True, env=env,
                cwd=cwd)

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("override", [
        f'quantizer.overrides={{"lab_1": {{"levels": {10**20}}}}}',
    ], ids=["channel-limit"])
    def test_run_failure_keeps_its_error_class(self, config_file, capsys, monkeypatch, override,
                                               workers):
        # a real pool of two, even where this machine has one CPU
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
        code, _, err = self.run("experiment", "--config", str(config_file), "--quiet",
                                "--set", override, "--set", f"workers={workers}", capsys=capsys)
        assert code == 2
        record = json.loads(err.strip())
        assert record["error"] == "ConfigError"
        assert record["message"].startswith("run 0 failed: ")

    @pytest.mark.parametrize("extra", [[], ["--set", "model.beta=1e9"]],
                             ids=["default-beta", "beta=1e9"])
    def test_quiet_writes_nothing_to_stderr(self, capsys, extra):
        # at beta=1e9 the solver's distortions overflow; a warning raises here
        # rather than waiting in pytest's recorder
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = self.run("experiment", "--config", str(SMOKE_CONFIG), "--quiet",
                                      "--set", "runs=2", "--set", 'outputs.metrics=""', *extra,
                                      capsys=capsys)
        assert (code, err) == (0, "")
        assert json.loads(out)["runs"] == 2

    def test_per_layer_n_out_list_exits_2(self, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = self.run("experiment", "--config", str(SMOKE_CONFIG), "--quiet",
                                      "--set", "model.n_out=[3,3,3,3,2]", capsys=capsys)
        assert (code, out) == (2, "")
        record = self.one_error_line(err)
        assert record["error"] == "ConfigError" and "model.n_out must be int" in record["message"]

    def one_error_line(self, err):
        lines = err.strip().splitlines()
        assert len(lines) == 1
        return json.loads(lines[0])

    @pytest.mark.parametrize("override", [
        f"model.n_out={10**20}",
        f"quantizer.default_levels={10**20}",
        f'quantizer.overrides={{"lab_1": {{"levels": {10**20}}}}}',
        f"dataset.synthetic_rows={10**20}",
    ], ids=["n_out", "default_levels", "override-levels", "synthetic_rows"])
    def test_array_size_beyond_the_limit_exits_2(self, config_file, capsys, override):
        code, out, err = self.run("experiment", "--config", str(config_file), "--quiet",
                                  "--set", "runs=1", "--set", 'outputs.metrics=""',
                                  "--set", override, capsys=capsys)
        assert (code, out) == (2, "")
        record = self.one_error_line(err)
        assert record["error"] == "ConfigError"
        assert str(cli.MAX_ARRAY_ENTRIES) in record["message"]

    @pytest.mark.parametrize("key", ["model", "metrics", "mi_flow"])
    def test_unwritable_output_exits_1_naming_it(self, config_file, tmp_path, capsys, key):
        paths = {k: str(tmp_path / f"{k}.out") for k in ("model", "metrics", "mi_flow")}
        paths[key] = str(tmp_path)  # a directory
        code, out, err = self.run("train", "--config", str(config_file),
                                  *[arg for k, path in paths.items()
                                    for arg in ("--set", f"outputs.{k}={path}")],
                                  capsys=capsys)
        assert (code, out) == (1, "")
        record = self.one_error_line(err)
        assert record["error"] == "ResourceError"
        assert record["message"].startswith(f"cannot write {tmp_path}: ")

    @pytest.mark.parametrize("command", ["evaluate", "inspect"])
    def test_missing_model_exits_1_naming_it(self, config_file, tmp_path, capsys, command):
        model = tmp_path / "missing.json"
        code, out, err = self.run(command, "--config", str(config_file),
                                  "--model", str(model), "--out", "", capsys=capsys)
        assert (code, out) == (1, "")
        assert self.one_error_line(err) == {
            "error": "ResourceError",
            "message": f"cannot read {model}: No such file or directory"}

    def test_out_of_memory_exits_1_as_one_line(self, config_file, tmp_path, capsys,
                                               monkeypatch):
        def exhausted(*args, **kwargs):
            raise MemoryError("Unable to allocate 72.8 TiB")

        monkeypatch.setattr(cli, "train_network", exhausted)
        code, out, err = self.run("train", "--config", str(config_file),
                                  "--set", f"outputs.model={tmp_path / 'm.json'}", capsys=capsys)
        assert (code, out) == (1, "")
        assert "Traceback" not in err
        assert self.one_error_line(err) == {
            "error": "ResourceError", "message": "out of memory: Unable to allocate 72.8 TiB"}

    def test_unreadable_archive_exits_1_naming_it(self, tmp_path, capsys):
        url = (tmp_path / "missing.zip").as_uri()
        code, out, err = self.run("fetch-data", "--dest", str(tmp_path / "data"),
                                  "--url", url, capsys=capsys)
        assert (code, out) == (1, "")
        record = self.one_error_line(err)
        assert record["error"] == "ResourceError"
        assert record["message"].startswith(f"cannot download {url}: ")

    def test_directory_as_input_exits_1_naming_it(self, config_file, tmp_path, capsys):
        code, _, err = self.run("train", "--config", str(tmp_path), capsys=capsys)
        assert code == 1
        assert self.one_error_line(err)["message"].startswith(f"cannot read {tmp_path}: ")
        cfg = dict(SYNTH_CONFIG, dataset={"format": "csv", "path": str(tmp_path),
                                          "positive_class": "ckd"})
        config_file.write_text(json.dumps(cfg))
        code, _, err = self.run("train", "--config", str(config_file),
                                capsys=capsys)
        assert code == 1
        assert self.one_error_line(err) == {
            "error": "ResourceError", "message": f"cannot read {tmp_path}: Is a directory"}

    def test_config_not_utf8_exits_2(self, tmp_path, capsys):
        p = tmp_path / "cfg.json"
        p.write_bytes(b'{"seed": "\xff"}')
        code, _, err = self.run("train", "--config", str(p), capsys=capsys)
        assert code == 2
        assert self.one_error_line(err) == {
            "error": "ConfigError", "message": f"{p}: line 1: not UTF-8 text (invalid start byte)"}

    @pytest.mark.parametrize("source", ["config", "override", "model"])
    def test_deeply_nested_json_exits_as_one_line(self, config_file, tmp_path, capsys, source):
        """A value nested beyond what json.loads parses, and the deepest one it
        parses, which reaches the type rule's repr and a model's checksum."""
        model = tmp_path / "model.json"

        def run(depth):
            deep = "[" * depth + "]" * depth
            argv = ["experiment", "--config", str(config_file), "--quiet"]
            if source == "config":
                config_file.write_text(json.dumps(SYNTH_CONFIG)[:-1] + f', "runs": {deep}}}')
            elif source == "override":
                argv += ["--set", "runs=" + deep]
            else:  # signed by hand: json.dumps would need more stack than the loader has
                payload = '{"beta":' + deep + "}"
                sha256 = hashlib.sha256(payload.encode()).hexdigest()
                model.write_text('{"format": "dinet-model", "version": 2, '
                                 f'"sha256": "{sha256}", "payload": {payload}}}')
                argv = ["inspect", "--config", str(config_file), "--model", str(model),
                        "--out", ""]
            code, out, err = self.run(*argv, capsys=capsys)
            assert out == ""
            record = self.one_error_line(err)
            return code, record["error"], record["message"]

        path = model if source == "model" else config_file
        code, error = (1, "ModelFormatError") if source == "model" else (2, "ConfigError")
        refused = f"{path}: not valid JSON (nested too deeply to read)"
        if source == "override":
            refused = "override 'runs': not valid JSON (nested too deeply to read)"
        assert run(30000 if source == "override" else 100000) == (code, error, refused)

        limit = deepest_json_list()
        depth = next(d for d in range(limit, 0, -1) if run(d)[2] != refused)
        assert depth > limit - 20
        typed = "runs must be int"
        if source == "model":
            typed = f"{path}: payload key 'beta' must be float"
        assert run(depth) == (code, error, f"{typed}, got {'[' * 40}")

    def run_override(self, config_file, capsys, source, value):
        """Exit code, stdout and the one stderr record of ``experiment`` with
        ``value``, JSON text, as the override of lab_1 from ``source``."""
        argv = ["experiment", "--config", str(config_file), "--quiet"]
        if source == "config":
            cfg = dict(SYNTH_CONFIG, quantizer={"overrides": {"lab_1": "VALUE"}})
            config_file.write_text(json.dumps(cfg).replace('"VALUE"', value))
        else:
            argv += ["--set", f'quantizer.overrides={{"lab_1": {value}}}']
        code, out, err = self.run(*argv, capsys=capsys)
        return code, out, self.one_error_line(err)

    @pytest.mark.parametrize("depth", [600, 900])
    @pytest.mark.parametrize("source", ["config", "override"])
    def test_deeply_nested_override_exits_2_as_one_line(self, config_file, capsys, depth,
                                                         source):
        """An override value that parses but nests hundreds of levels deep is
        refused when the config is validated, before anything copies it; the
        copy recursed past the interpreter's limit and escaped as a traceback."""
        deep = '{"a": ' * depth + "{}" + "}" * depth
        shown = ("{'a': " * 7)[:40]
        assert self.run_override(config_file, capsys, source, deep) == (2, "", {
            "error": "ConfigError", "message": f"{OVERRIDE_RULE}, got {shown}"})

    @pytest.mark.parametrize("source", ["config", "override"])
    def test_the_deepest_parsed_override_exits_2_as_one_line(self, config_file, capsys, source):
        """The deepest override value ``json.loads`` parses, which reaches the
        override rule's repr, is refused by that rule as one line."""
        def message(depth):
            code, out, record = self.run_override(config_file, capsys, source,
                                                  "[" * depth + "]" * depth)
            assert (code, out, record["error"]) == (2, "", "ConfigError")
            return record["message"]

        limit = deepest_json_list()
        depth = next(d for d in range(limit, 0, -1) if message(d).startswith(OVERRIDE_RULE))
        assert depth > limit - 20
        assert message(depth) == f"{OVERRIDE_RULE}, got {'[' * 40}"

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("command", ["experiment", "train", "evaluate", "inspect"])
    def test_an_override_of_a_missing_feature_exits_2_before_run_0(self, capsys, monkeypatch,
                                                                    command, workers):
        def never(*args, **kwargs):
            raise AssertionError("a run or a pool was started")

        # a real pool of two, even where this machine has one CPU
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
        monkeypatch.setattr(cli, "run_single", never)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", never)
        model = str(REPO_ROOT / "tests" / "fixtures" / "model.json")
        argv = [command, "--config", str(SMOKE_CONFIG), "--set", f"workers={workers}",
                "--set", 'quantizer.overrides={"lab0": {"levels": 3}, "lab_1": {}}',
                "--set", 'outputs.metrics=""', "--set", 'outputs.model=""',
                "--set", 'outputs.mi_flow=""']
        argv += {"experiment": ["--quiet"], "train": [], "evaluate": ["--model", model],
                 "inspect": ["--model", model, "--out", ""]}[command]
        code, out, err = self.run(*argv, capsys=capsys)
        assert (code, out) == (2, "")
        assert self.one_error_line(err) == {
            "error": "ConfigError", "message": "quantizer.overrides name unknown features ['lab0']"}

    @pytest.mark.parametrize("key", ["seed", "quantizer.overrides"])
    def test_a_set_value_nested_too_deeply_to_read_exits_2_naming_its_key(self, capsys,
                                                                          monkeypatch, key):
        def never(*args, **kwargs):
            raise AssertionError("a run or a pool was started")

        monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
        monkeypatch.setattr(cli, "run_single", never)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", never)
        deep = "[" * 3000 + "]" * 3000
        value = deep if key == "seed" else f'{{"lab_1": {deep}}}'
        code, out, err = self.run("experiment", "--config", str(SMOKE_CONFIG), "--quiet",
                                  "--set", "workers=2", "--set", 'outputs.metrics=""',
                                  "--set", f"{key}={value}", capsys=capsys)
        assert (code, out) == (2, "")
        assert self.one_error_line(err) == {
            "error": "ConfigError",
            "message": f"override {key!r}: not valid JSON (nested too deeply to read)"}

    def test_config_file_not_found_exits_2(self, tmp_path, capsys):
        code, _, err = self.run("train", "--config", str(tmp_path / "nope.json"),
                                capsys=capsys)
        assert code == 2


OVERRIDE_RULE = ("quantizer.overrides.lab_1 must be an object with an optional kind ('categorical' "
                 "or 'continuous') and levels (an int >= 2 or null)")


def deepest_json_list():
    """The deepest nested list ``json.loads`` parses when called from here."""
    low, high = 1, 5000
    while low < high:
        mid = (low + high + 1) // 2
        try:
            json.loads("[" * mid + "]" * mid)
            low = mid
        except RecursionError:
            high = mid - 1
    return low


# only fetch-data downloads, and only an experiment with workers > 1 starts a
# pool; every other command should not pay for those imports
@pytest.mark.parametrize("module", ["urllib.request", "concurrent.futures"])
def test_importing_the_cli_leaves_a_module_only_one_path_needs_unloaded(module):
    check = f"import sys, dinet.cli; sys.exit({module!r} in sys.modules)"
    assert subprocess.run([sys.executable, "-c", check], env=child_env()).returncode == 0


# SHA-256 of the stdout report of SMOKE_CONFIG (20 runs) under each of SETTINGS;
# a change to any is a change of contract
PINNED_REPORTS = {
    "smoke": "5f78b62ff159d0b4eb23ffee121fc4aece578e38d1104435515864af248139de",
    "finebin": "1f60eb28f6a3d066f8cbec051f48ba8dc818aeb946ea013cfeb660dab9a124f6",
    "ensemble": "bd1786c33434424c61f7250baa3ed9d17dedbac7a67d337ccc677c09d8674fd9",
}


@pytest.fixture(scope="module")
def smoke_table_files(tmp_path_factory):
    """The smoke config's synthetic table written as CSV and as ARFF."""
    folder = tmp_path_factory.mktemp("smoke-table")
    data = prepare_dataset(load_config(SMOKE_CONFIG))
    for fmt in ("csv", "arff"):
        write_table(data, folder / f"table.{fmt}", fmt)
    return folder, data.target_name


@pytest.mark.parametrize("settings, source", [
    (settings, source) for settings in SETTINGS
    for source in ("synthetic", "synthetic-workers=2", "csv", "arff")
    # a table file changes only the parsing, which ensemble prediction leaves alone
    if settings != "ensemble" or source.startswith("synthetic")])
def test_report_is_pinned_and_the_same_from_table_files(smoke_table_files, capsys, monkeypatch,
                                                         settings, source):
    folder, target = smoke_table_files
    overrides = ['outputs.metrics=""', *SETTINGS[settings]]
    if source == "synthetic-workers=2":
        # a real pool of two, even where this machine has one CPU
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
        overrides.append("workers=2")
    elif source != "synthetic":
        overrides += [f"dataset.format={source}", f"dataset.path={folder / f'table.{source}'}",
                      f"dataset.target={target}"]
    argv = ["experiment", "--config", str(SMOKE_CONFIG), "--quiet"]
    assert main(argv + [arg for item in overrides for arg in ("--set", item)]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == PINNED_REPORTS[settings]
