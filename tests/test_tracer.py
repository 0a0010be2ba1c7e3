"""The benchmark tracer's contract with the package.

``perfbench/tracer.py`` wraps module functions from outside and maps the
``solve_ib`` calls of each ``train_network`` call to tree layers by their
order, then cross-checks the per-layer iteration sums against the trained
model's diagnostics.  These tests import the tracer as it is and train
through it, so a change to the call order or to the bindings it wraps
fails here.
"""

import importlib.util

import numpy as np
import pytest

from dinet import analysis, cli, network
from tests.conftest import REPO_ROOT
from tests.test_cli import SETTINGS, SMOKE_CONFIG
from tests.test_network import settled_after


@pytest.fixture(scope="module")
def tracer_module():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", REPO_ROOT / "perfbench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("settings", ["smoke", "finebin"])
def test_traced_training_passes_the_cross_check(tracer_module, settings):
    cfg = cli.apply_overrides(cli.load_config(SMOKE_CONFIG), list(SETTINGS[settings]))
    data = cli.prepare_dataset(cfg)
    tracer = tracer_module.Tracer()
    originals = (network.solve_ib, network.sample_channel, analysis.mux_combine)
    with tracer.installed():
        result = cli.run_single(cfg, data, 0, keep_model=True)
        model = result["model"]
        analysis.mi_flow(model, cli.quantize_with(model.quantizers, result["splits"][0]))
    assert (network.solve_ib, network.sample_channel, analysis.mux_combine) == originals

    assert tracer.cross_check_failures == []
    topo = model.topology
    assert topo.layer_sizes == (24, 12, 6, 3, 1)
    counts = tracer.counts
    # one solve per node, and the traced per-layer iterations are the model's
    assert counts["ib.solve.calls"] == len(topo.slots)
    for layer in range(len(topo.layers)):
        assert counts[f"ib.iterations.L{layer}"] == sum(
            node.diagnostics.iterations for (i, _), node in model.nodes.items() if i == layer)
    # train, predict (train and test rows) and mi_flow: one sample call per layer
    # and one symbol per node and row
    n_train, n_test = result["splits"][0].n_rows, result["splits"][1].n_rows
    assert counts["network.sample.calls"] == 4 * len(topo.layers)
    assert counts["network.sample_symbols"] == len(topo.slots) * (3 * n_train + n_test)


def test_traced_ensemble_predict_samples_each_layer_once_a_pass(tracer_module):
    """The ensemble-predict workload's contract: while every row is open, one
    sample call per layer and one symbol per node and row in every pass, and
    the walk packs its own muxes, so no traced ``mux_combine`` call is made.
    A pass with some rows settled samples its open rows untraced, inside
    ``network.predict``, and once no row is open no pass is walked."""
    cfg = cli.apply_overrides(cli.load_config(SMOKE_CONFIG), list(SETTINGS["smoke"]))
    result = cli.run_single(cfg, cli.prepare_dataset(cfg), 0, keep_model=True)
    model = result["model"]
    batch = cli.quantize_with(model.quantizers, result["splits"][1])
    tracer = tracer_module.Tracer()
    originals = (network.predict_quantized, network.sample_channel, network.mux_combine)
    with tracer.installed():
        network.predict_quantized(model, batch, mode="ensemble", repeats=3)
    assert (network.predict_quantized, network.sample_channel, network.mux_combine) == originals

    topo, counts, n = model.topology, tracer.counts, batch.n_rows
    open_rows = open_rows_per_pass(model, batch, seed=0, passes=3)
    assert open_rows[:2] == [n, n] and 0 < open_rows[2] < n  # pass 3 walks some rows, not all
    full_passes = open_rows.count(n)
    assert counts["network.predict.calls"] == 1
    assert counts["network.sample.calls"] == full_passes * len(topo.layers)
    assert counts["network.sample_symbols"] == full_passes * len(topo.slots) * n
    assert counts["network.mux.calls"] == 0


def open_rows_per_pass(model, batch, seed, passes):
    """The rows still open before each pass of the full computation: every
    pass over every row, each row settled once no remaining pass can change
    its majority (ties to the smaller label)."""
    rng = np.random.default_rng([seed, network._STREAM_PREDICT])
    votes = np.zeros((batch.n_rows, model.n_class), dtype=np.int64)
    settled = [False] * batch.n_rows
    open_rows = []
    for done in range(1, passes + 1):
        open_rows.append(settled.count(False))
        for _, _, outputs in network.walk(
                model.topology, batch.symbols,
                lambda i, inputs: network.sample_channel(model.tables[i].gather(inputs), rng)):
            pass
        votes[np.arange(batch.n_rows), np.asarray(model.class_alignment)[outputs[0]]] += 1
        for j, row in enumerate(votes.tolist()):
            settled[j] = settled[j] or settled_after(row, passes - done)
    return open_rows
