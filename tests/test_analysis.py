import csv
import dataclasses
import itertools
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dinet import (
    ConditionalMatrix,
    DINModel,
    QuantizedDataset,
    Topology,
    ValidationError,
    check_bounds,
    compose_full_matrix,
    make_synthetic_ckd,
    mi_flow,
    predict_quantized,
    train_network,
)
from dinet.analysis import MIFlowReport, MuxFlow, NodeFlow, _joint_counts, _information
from dinet.cli import apply_overrides, load_config, prepare_dataset, run_single
from dinet.errors import ResourceError
from dinet.ib import IBDiagnostics, IBSolution
from dinet.infotheory import entropy, joint_mutual_information
from dinet.network import (
    _STREAM_MIFLOW,
    channel_cdf,
    mux_combine,
    quantize_features,
    sample_channel,
    tree_layer_sizes,
    walk,
)
from tests.conftest import REPO_ROOT


def hand_model(channels_by_slot, topo, n_class=2, alignment=None):
    nodes = {slot: IBSolution(ConditionalMatrix(chan), IBDiagnostics(0, 0.0, 0.0, True, 0.0))
             for slot, chan in channels_by_slot.items()}
    return DINModel(topology=topo, nodes=nodes, quantizers=(), feature_names=(),
                    class_names=tuple(str(i) for i in range(n_class)),
                    class_alignment=alignment or tuple(range(n_class)),
                    beta=5.0, seed=0)


def random_model(D, rng, n_out=2, n_class=2):
    cards = [int(rng.integers(2, 4)) for _ in range(D)]
    n_layers = int(np.log2(D)) + 1
    topo = Topology(cards=cards, n_out=[n_out] * (n_layers - 1) + [n_class])
    channels = {}
    for li, layer in enumerate(topo.layers):
        for k in range(layer.size):
            channels[(li, k)] = rng.dirichlet(np.ones(layer.n_out), size=layer.n_in[k])
    return hand_model(channels, topo, n_class=n_class)


def brute_force_compose(model):
    """Independent oracle: enumerate every intermediate symbol combination."""
    topo = model.topology
    cards = topo.layers[0].n_in
    n_states = int(np.prod(cards))
    out = np.zeros((n_states, topo.n_class))
    for joint in itertools.product(*[range(c) for c in cards]):
        row = sum(s * int(np.prod(cards[:i])) for i, s in enumerate(joint))
        paths = {tuple(joint): 1.0}
        for li, layer in enumerate(topo.layers):
            nxt = {}
            for symbols, pr in paths.items():
                for outs in itertools.product(*[range(layer.n_out)
                                                for k in range(layer.size)]):
                    p = pr
                    for k in range(layer.size):
                        p *= model.nodes[(li, k)].channel.p[symbols[k], outs[k]]
                    if p == 0.0:
                        continue
                    if li == topo.depth:
                        key = outs
                    else:
                        key = tuple(
                            int(mux_combine([np.array([outs[m]]) for m in g],
                                            [layer.n_out] * len(g))[0])
                            for g in topo.mux_groups[li])
                    nxt[key] = nxt.get(key, 0.0) + p
            paths = nxt
        for (sym,), p in paths.items():
            out[row, model.class_alignment[sym]] += p
    return out


class TestCompose:
    def test_identity_channels_compose_to_identity(self):
        topo = Topology(cards=(2, 2), n_out=(2, 2))
        eye = np.eye(2)
        # root input is the mux pairing (low-order digit = node 0)
        root = np.zeros((4, 2))
        for a, b in itertools.product(range(2), range(2)):
            root[a + 2 * b, a ^ b] = 1.0  # xor decoder: exercises digit order
        model = hand_model({(0, 0): eye, (0, 1): eye, (1, 0): root}, topo)
        full = compose_full_matrix(model).p
        for a, b in itertools.product(range(2), range(2)):
            assert full[a + 2 * b, a ^ b] == 1.0

    @pytest.mark.parametrize("D", [2, 4])
    def test_matches_brute_force(self, D):
        rng = np.random.default_rng(10 + D)
        for _ in range(4):
            model = random_model(D, rng)
            fast = compose_full_matrix(model).p
            slow = brute_force_compose(model)
            assert np.abs(fast - slow).max() < 1e-9

    def test_kronecker_dimension_law(self):
        a = np.random.default_rng(0).dirichlet(np.ones(3), size=4)
        b = np.random.default_rng(1).dirichlet(np.ones(3), size=4)
        k = np.kron(a, b)
        assert k.shape == (16, 9)

    def test_state_space_cap(self):
        rng = np.random.default_rng(5)
        model = random_model(4, rng)
        with pytest.raises(ValidationError, match="cap"):
            compose_full_matrix(model, max_states=2)

    def test_alignment_permutes_columns(self):
        topo = Topology(cards=(2,), n_out=(2,))
        chan = np.array([[0.9, 0.1], [0.3, 0.7]])
        plain = hand_model({(0, 0): chan}, topo, alignment=(0, 1))
        flipped = hand_model({(0, 0): chan}, topo, alignment=(1, 0))
        assert np.allclose(compose_full_matrix(plain).p,
                           compose_full_matrix(flipped).p[:, ::-1])


def trained_toy(seed=0, n=400):
    rng = np.random.default_rng(seed)
    y = rng.integers(0, 2, n)
    col0 = y.copy()                            # deterministic codeword
    col1 = np.where(rng.random(n) < 0.75, y, rng.integers(0, 2, n))
    data = QuantizedDataset(columns=(col0, col1), cardinalities=(2, 2),
                            labels=y, n_class=2)
    topo = Topology(cards=(2, 2), n_out=(2, 2))
    return data, train_network(data, topo, beta=10.0, seed=seed)


def assert_plugin_flow(model, data):
    """Assert that ``mi_flow`` equals, bit for bit, the plug-in formula on the walk's samples.

    The joint is bincount(v * n_class + y) / N and I = H(row sums) + H(column
    sums) - H(joint), read as 0.0 where rounding takes it to 0 or below; H(v)
    is the entropy of bincount(v) / N.  The CSV writes repr() of each value, so
    a last-ulp or sign-of-zero change would change its bytes.  Returns the report.
    """
    topo, y, n_class = model.topology, data.labels, data.n_class

    def h(p):
        nz = p[p > 0]
        return 0.0 - float((nz * np.log2(nz)).sum())

    def mi(v, card):
        joint = np.bincount(v * n_class + y, minlength=card * n_class).reshape(card, n_class)
        joint = joint.astype(np.float64) / v.size
        value = h(joint.sum(axis=1)) + h(joint.sum(axis=0)) - h(joint.ravel())
        return value if value > 0 else 0.0

    def ent(v, card):
        return h(np.bincount(v, minlength=card).astype(np.float64) / v.size)

    rng = np.random.default_rng([model.seed, _STREAM_MIFLOW])

    def sample_node_by_node(layer, inputs):
        return np.array([
            sample_channel(channel_cdf(model.nodes[(layer, k)].channel.p).take(symbols, axis=1),
                           rng)
            for k, symbols in enumerate(inputs)])

    walked = [(list(inputs), list(outputs))
              for _, inputs, outputs in walk(topo, data.columns, sample_node_by_node)]
    want_nodes = [NodeFlow(layer=i, position=k, mi_in_y=mi(inputs[k], layer.n_in[k]),
                           mi_out_y=mi(outputs[k], layer.n_out),
                           h_out=ent(outputs[k], layer.n_out))
                  for i, ((inputs, outputs), layer) in enumerate(zip(walked, topo.layers))
                  for k in range(layer.size)]
    want_muxes = []
    for i, groups in enumerate(topo.mux_groups):
        outputs, card = walked[i][1], topo.layers[i].n_out
        for g_idx, g in enumerate(groups):
            acc, acc_card = outputs[g[0]], card
            for stage, m in enumerate(g[1:]):
                pair = mux_combine([acc, outputs[m]], [acc_card, card])
                i_acc, i_other = mi(acc, acc_card), mi(outputs[m], card)
                want_muxes.append(MuxFlow(
                    layer=i, position=g_idx, stage=stage,
                    lower_bound=max(i_acc, i_other),
                    observed=mi(pair, acc_card * card),
                    upper_bound=min(i_acc + ent(outputs[m], card), i_other + ent(acc, acc_card))))
                acc, acc_card = pair, acc_card * card

    report = mi_flow(model, data)
    assert report.nodes == tuple(want_nodes)
    assert report.muxes == tuple(want_muxes)
    report.to_csv("got.csv")
    MIFlowReport(nodes=tuple(want_nodes), muxes=tuple(want_muxes)).to_csv("want.csv")
    with open("got.csv", "rb") as got, open("want.csv", "rb") as want:
        assert got.read() == want.read()
    return report


@pytest.fixture(scope="module")
def large_batch():
    """The smoke config's run-0 model and a 4000-row, 24-feature batch for it."""
    cfg = apply_overrides(load_config(REPO_ROOT / "configs" / "synthetic_smoke.json"),
                          ["workers=1"])
    model = run_single(cfg, prepare_dataset(cfg), 0, keep_model=True)["model"]
    batch = quantize_features(model, make_synthetic_ckd(n_rows=4000, seed=1))
    assert batch.symbols.shape == (24, 4000)
    return model, batch


def traced_peak(fn, *args):
    """Bytes ``fn(*args)`` holds at its peak under tracemalloc, above its start,
    measured on a second call so that the first call's one-off allocations are made."""
    fn(*args)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        fn(*args)
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


class TestMiFlow:
    def test_report_shape_and_nonnegativity(self):
        data, model = trained_toy()
        rep = mi_flow(model, data)
        assert len(rep.nodes) == sum(model.topology.layer_sizes)
        assert len(rep.muxes) == sum(map(len, model.topology.mux_groups))
        for node in rep.nodes:
            assert node.mi_in_y >= 0 and node.mi_out_y >= 0 and node.h_out >= 0
        for mux in rep.muxes:
            assert mux.lower_bound >= 0 and mux.observed >= 0

    def test_independent_vectors_read_plus_zero(self):
        # every (v, y) pair once: the joint is uniform, so I(v;y) is exactly 0,
        # and the formula H(v) + H(y) - H(v, y) reads a few ulp off it on some
        below = 0
        for n_class in (2, 3):
            for card in range(1, 40):
                joint = np.full((card, n_class), 1.0 / (card * n_class))
                formula = (entropy(joint.sum(axis=1)) + entropy(joint.sum(axis=0))
                           - entropy(joint.ravel()))
                below += formula < 0
                v = np.repeat(np.arange(card), n_class)
                y = np.tile(np.arange(n_class), card)
                (flow,), _ = _information(_joint_counts([v], [card], y, n_class), [card], [False],
                                          n_class, y.size)
                for mi in (joint_mutual_information(joint), flow):
                    # copysign tells 0.0 from -0.0
                    assert math.copysign(1.0, mi) == 1.0, (card, n_class, mi)
                    assert mi == (formula if formula > 0 else 0.0), (card, n_class, mi)
        assert below > 0

    def test_duplicated_feature_attains_lower_bound(self):
        rng = np.random.default_rng(3)
        y = rng.integers(0, 2, 500)
        data = QuantizedDataset(columns=(y.copy(), y.copy()), cardinalities=(2, 2),
                                labels=y, n_class=2)
        topo = Topology(cards=(2, 2), n_out=(2, 2))
        model = train_network(data, topo, beta=10.0, seed=1)
        # near-deterministic channels on identical columns: snap them exact
        nodes = {
            key: dataclasses.replace(node, channel=ConditionalMatrix(
                np.eye(node.channel.cols)[node.channel.p.argmax(axis=1)]))
            for key, node in model.nodes.items()
        }
        model = dataclasses.replace(model, nodes=nodes)
        rep = mi_flow(model, data)
        mux = rep.muxes[0]
        assert mux.observed == pytest.approx(mux.lower_bound, abs=1e-9)

    def test_informative_side_is_a_floor(self):
        data, model = trained_toy(seed=4)
        rep = mi_flow(model, data)
        for mux in rep.muxes:
            assert mux.observed >= mux.lower_bound - 1e-9

    def test_bounds_hold_on_trained_models(self):
        for seed in range(5):
            data, model = trained_toy(seed=seed)
            assert check_bounds(mi_flow(model, data), tol=1e-6) == []

    def test_reproducible_given_model(self):
        data, model = trained_toy(seed=6)
        a = mi_flow(model, data)
        b = mi_flow(model, data)
        assert a == b

    @pytest.mark.parametrize("cards", [[2, 3, 4, 2, 3, 2, 3], [10, 11, 10, 11, 10, 11, 10]],
                             ids=["alphabets_2_to_4", "alphabets_10_to_11"])
    def test_values_are_exactly_the_plugin_formula(self, cards):
        """With 10-11 symbols every layer-0 joint has 20 or more entries, some of them zero."""
        rng = np.random.default_rng(11)
        y = rng.integers(0, 2, 200)
        columns = tuple(np.where(rng.random(200) < 0.6, y, rng.integers(0, c, 200))
                        for c in cards)
        data = QuantizedDataset(columns=columns, cardinalities=tuple(cards), labels=y,
                                n_class=2)
        topo = Topology(cards=cards, n_out=(3, 3, 2))  # two 3-way groups
        model = train_network(data, topo, beta=5.0, seed=3)
        assert sum(m.stage == 1 for m in assert_plugin_flow(model, data).muxes) == 2

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_values_are_exactly_the_plugin_formula_on_random_trees(self, draw):
        """1-9 features (odd layers, 3-way groups, a one-node tree), alphabets of
        1-12 symbols, 1-4 outputs per layer and 1-60 rows, whose labels may leave
        a class out; channels mix spread and deterministic rows."""
        D = draw.draw(st.integers(1, 9), label="D")
        cards = draw.draw(st.lists(st.integers(1, 12), min_size=D, max_size=D), label="cards")
        n_out = draw.draw(st.lists(st.integers(1, 4), min_size=len(tree_layer_sizes(D)),
                                   max_size=len(tree_layer_sizes(D))), label="n_out")
        n_rows = draw.draw(st.integers(1, 60), label="N")
        y = np.array(draw.draw(st.lists(st.integers(0, n_out[-1] - 1), min_size=n_rows,
                                        max_size=n_rows), label="labels"))
        rng = np.random.default_rng(draw.draw(st.integers(0, 2**32 - 1), label="seed"))
        data = QuantizedDataset(columns=tuple(rng.integers(0, c, n_rows) for c in cards),
                                cardinalities=tuple(cards), labels=y, n_class=n_out[-1])
        topo = Topology(cards=cards, n_out=n_out)
        channels = {}
        for li, layer in enumerate(topo.layers):
            for k, n_in in enumerate(layer.n_in):
                chan = rng.dirichlet(np.full(layer.n_out, 0.5), size=n_in)
                point = rng.random(n_in) < 0.3
                chan[point] = np.eye(layer.n_out)[rng.integers(0, layer.n_out, point.sum())]
                channels[(li, k)] = chan
        assert_plugin_flow(hand_model(channels, topo, n_class=n_out[-1]), data)

    def test_a_large_batch_peaks_at_one_layer_of_arrays(self, large_batch):
        """Under tracemalloc, ``mi_flow`` on 4000 rows of 24 features peaks at most
        2.5 MiB above its start.  A layer-0 array is 750 KiB, and the layer-0
        gather and draw alone reach 2.39 MiB.  Keeping every layer's vectors to
        count them after the walk, not while the walk is on the layer, reads 5.0 MiB."""
        assert traced_peak(mi_flow, *large_batch) <= 2.5 * 2**20

    def test_a_large_predict_pass_packs_narrow_outputs_in_place(self, large_batch):
        """One stochastic pass over the same batch peaks at most 3.5 MiB above its
        start (3.21 MiB).  Widening each layer's samples to int64 before the
        mux, and muxing them into new arrays that are then joined, reads 3.86 MiB."""
        assert traced_peak(predict_quantized, *large_batch) <= 3.5 * 2**20

    def test_empty_table_is_refused(self):
        _, model = trained_toy()
        empty = QuantizedDataset(columns=(np.zeros(0, int), np.zeros(0, int)),
                                 cardinalities=(2, 2), labels=np.zeros(0, int), n_class=2)
        with pytest.raises(ValidationError, match="the table has none"):
            mi_flow(model, empty)

    def test_csv_output(self, tmp_path):
        data, model = trained_toy(seed=7)
        rep = mi_flow(model, data)
        out = tmp_path / "flow.csv"
        rep.to_csv(out)
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        kinds = {r["kind"] for r in rows}
        assert kinds == {"node", "mux"}
        assert len(rows) == len(rep.nodes) + len(rep.muxes)
        node0 = next(r for r in rows if r["kind"] == "node")
        assert float(node0["mi_in_y"]) >= 0.0

    def test_csv_into_a_missing_directory_creates_it(self, tmp_path):
        out = tmp_path / "new" / "dir" / "flow.csv"
        MIFlowReport(nodes=(), muxes=()).to_csv(out)
        assert out.read_bytes().startswith(b"kind,layer,position,stage,")

    def test_csv_into_a_directory_names_it(self, tmp_path):
        with pytest.raises(ResourceError, match=re.escape(f"cannot write {tmp_path}")):
            MIFlowReport(nodes=(), muxes=()).to_csv(tmp_path)


class TestKidneyFlow:
    """Information-flow profile on the real table (skipped until fetched)."""

    def test_max_mux_information_grows_with_depth(self, ckd_arff):
        from dinet.cli import DatasetConfig, ExperimentConfig, train_on
        from dinet.dataio import load_dataset, split
        from dinet.network import quantize_features

        cfg = ExperimentConfig()
        cfg.dataset = DatasetConfig(path=str(ckd_arff))
        data = load_dataset(ckd_arff, format="arff", target="class")
        train, _ = split(data, 200, seed=0, stratify="balanced",
                         positive_fraction=0.5, positive_label="ckd")
        model, _ = train_on(train, cfg, seed=0)
        rep = mi_flow(model, quantize_features(model, train))
        per_layer_max = {}
        for mux in rep.muxes:
            per_layer_max[mux.layer] = max(per_layer_max.get(mux.layer, 0.0),
                                           mux.observed)
        layers = sorted(per_layer_max)
        values = [per_layer_max[i] for i in layers]
        assert all(b >= a - 1e-9 for a, b in zip(values, values[1:]))


class TestCheckBounds:
    def test_empty_report_is_clean(self):
        assert check_bounds(MIFlowReport(nodes=(), muxes=())) == []

    def test_detects_observed_above_upper(self):
        bad = MuxFlow(layer=0, position=3, stage=0,
                      lower_bound=0.1, observed=0.9, upper_bound=0.5)
        violations = check_bounds(MIFlowReport(nodes=(), muxes=(bad,)), tol=1e-6)
        assert len(violations) == 1
        assert "pos=3" in violations[0] and "above upper" in violations[0]

    def test_detects_observed_below_lower(self):
        bad = MuxFlow(layer=1, position=0, stage=1,
                      lower_bound=0.5, observed=0.2, upper_bound=0.9)
        violations = check_bounds(MIFlowReport(nodes=(), muxes=(bad,)))
        assert len(violations) == 1 and "below lower" in violations[0]

    def test_tolerance_is_respected(self):
        edge = MuxFlow(layer=0, position=0, stage=0,
                       lower_bound=0.5, observed=0.5 - 1e-9, upper_bound=0.6)
        assert check_bounds(MIFlowReport(nodes=(), muxes=(edge,)), tol=1e-6) == []
