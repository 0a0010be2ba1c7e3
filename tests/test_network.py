import dataclasses
import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dinet import (
    ConfigError,
    QuantizedDataset,
    SchemaMismatchError,
    Topology,
    ValidationError,
    make_synthetic_ckd,
    mux_combine,
    mux_split,
    predict,
    predict_quantized,
    train_network,
)
from dinet.analysis import mi_flow
from dinet.infotheory import ConditionalMatrix, DiscreteDistribution
from dinet.network import (
    _STREAM_MIFLOW,
    _STREAM_PREDICT,
    _STREAM_TRAIN_SAMPLE,
    channel_cdf,
    derive_seed,
    quantize_features,
    sample_channel,
    tree_layer_sizes,
    walk,
)
from tests.test_ib import reference_estimate


def toy_dataset(rng, n=300):
    """Single informative binary feature plus a noisy 3-symbol one."""
    y = rng.integers(0, 2, n)
    informative = y.copy()
    noisy = rng.integers(0, 3, n)
    return QuantizedDataset(columns=(informative, noisy), cardinalities=(2, 3),
                            labels=y, n_class=2)


class TestBuildTopology:
    @pytest.mark.parametrize("D", [2, 4, 8, 16])
    def test_power_of_two_counts(self, D):
        layers = int(np.log2(D)) + 1
        topo = Topology(cards=[4] * D, n_out=[3] * (layers - 1) + [2])
        assert sum(topo.layer_sizes) == 2 * D - 1
        assert sum(map(len, topo.mux_groups)) == D - 1

    def test_tree_layer_sizes(self):
        assert tree_layer_sizes(24) == (24, 12, 6, 3, 1)
        for D in (1, 2, 3):
            sizes = tree_layer_sizes(D)
            topo = Topology(cards=[4] * D, n_out=[3] * (len(sizes) - 1) + [2])
            assert topo.layer_sizes == sizes

    def test_24_feature_layout(self):
        topo = Topology(cards=[5] * 24, n_out=(3, 3, 3, 3, 2))
        assert topo.layer_sizes == (24, 12, 6, 3, 1)
        # final 3-way merge: input alphabet is the cube of the feeding outputs
        assert topo.mux_groups[-1] == ((0, 1, 2),)
        assert topo.layers[-1].n_in == (27,)

    def test_single_feature_degenerates(self):
        topo = Topology(cards=(4,), n_out=(2,))
        assert sum(topo.layer_sizes) == 1 and sum(map(len, topo.mux_groups)) == 0

    def test_mux_input_cardinality_is_product(self):
        topo = Topology(cards=(7, 7, 7, 7), n_out=(3, 2, 2))
        assert topo.layers[1].n_in == (9, 9)
        assert topo.layers[2].n_in == (4,)

    def test_wrong_layer_count_rejected(self):
        with pytest.raises(ConfigError, match="3 entries but this tree has 4 layers"):
            Topology(cards=[4] * 8, n_out=(3, 3, 2))

    def test_topology_is_its_inputs(self):
        topo = Topology(cards=(2, 3, 4), n_out=(3, 2))
        assert topo.layers[1].n_in == (27,) and topo.mux_groups == (((0, 1, 2),),)
        assert repr(topo) == "Topology(cards=(2, 3, 4), n_out=(3, 2))"

    def test_huge_alphabets_do_not_wrap(self):
        topo = Topology(cards=[4] * 4, n_out=(2 ** 40, 2 ** 40, 2))
        assert topo.layers[1].n_in == (2 ** 80, 2 ** 80)
        assert topo.layers[2].n_in == (2 ** 80,)

    @pytest.mark.parametrize("cards, n_out, message", [
        ((), (2,), "need at least one feature"),
        ((2, 0), (2, 2), "feature cardinalities must be >= 1"),
        ((2, 2), (2,), "1 entries but this tree has 2 layers"),
        ((2, 2), (0, 2), "n_out values must be >= 1"),
    ], ids=["no-feature", "card-zero", "n_out-short", "n_out-zero"])
    def test_topology_input_checks(self, cards, n_out, message):
        with pytest.raises(ConfigError, match=message):
            Topology(cards=cards, n_out=n_out)


class TestMux:
    def test_paired_symbols(self):
        out = mux_combine([np.array([1]), np.array([2])], [3, 3])
        assert out[0] == 7

    def test_all_zero(self):
        out = mux_combine([np.zeros(4, int), np.zeros(4, int)], [3, 3])
        assert np.all(out == 0)

    def test_three_way(self):
        out = mux_combine([np.array([2]), np.array([1]), np.array([0])], [3, 3, 3])
        assert out[0] == 5

    def test_symbol_above_radix_rejected(self):
        with pytest.raises(ValidationError):
            mux_combine([np.array([3]), np.array([0])], [3, 2])

    def test_single_input_rejected(self):
        with pytest.raises(ValidationError):
            mux_combine([np.array([0])], [3])

    def test_one_radix_per_input(self):
        with pytest.raises(ValidationError, match="^need one radix per input vector$"):
            mux_combine([np.array([0]), np.array([1])], [2])

    def test_inputs_of_two_shapes_rejected(self):
        with pytest.raises(ValidationError, match="^input arrays must share one shape$"):
            mux_combine([np.array([0, 1]), np.array([1])], [2, 2])

    @pytest.mark.parametrize("symbol", [-1, 6])
    def test_split_refuses_a_symbol_outside_the_product(self, symbol):
        with pytest.raises(ValidationError, match=re.escape("symbol outside [0, 6)")):
            mux_split(np.array([0, symbol]), [2, 3])

    @pytest.mark.parametrize("call, product", [
        (lambda: mux_combine([np.array([2**32 - 1]), np.array([2**32 - 1])], [2**32, 2**32]),
         2**64),
        (lambda: mux_combine([np.array([3]), np.array([2**62])], [4, 2**63]), 2**65),
        (lambda: mux_split(np.array([5]), [2**32, 2**32]), 2**64),
        # refused before a symbol is read, so an out-of-range one is not what is named
        (lambda: mux_combine([np.array([-1]), np.array([0])], [2**32, 2**32]), 2**64),
        (lambda: mux_split(np.array([-1]), [2**40, 2**40]), 2**80),
    ], ids=["combine-wraps", "combine-drops-a-digit", "split", "combine-first", "split-first"])
    def test_a_radix_product_above_2_pow_63_is_refused(self, call, product):
        with pytest.raises(ValidationError,
                           match=re.escape(f"radix product {product} exceeds 2**63")):
            call()

    @pytest.mark.parametrize("call", [
        lambda: mux_combine([np.array([5]), np.array([0])], [2**63, 1]),
        lambda: mux_split(np.array([5]), [2**63, 1]),
        # a radix beside a 0: the product is 0, and no symbol is read
        lambda: mux_split(np.array([], dtype=np.int64), [2**63, 0]),
    ], ids=["combine", "split", "split-empty"])
    def test_a_radix_above_2_pow_63_minus_1_is_refused(self, call):
        with pytest.raises(ValidationError, match=re.escape(f"radix {2**63} exceeds 2**63 - 1")):
            call()

    def test_a_radix_product_of_2_pow_63_packs_and_splits(self):
        radices = [2, 2**62]
        packed = mux_combine([np.array([1]), np.array([2**62 - 1])], radices)
        assert packed.dtype == np.int64 and packed.tolist() == [2**63 - 1]
        assert [d.tolist() for d in mux_split(packed, radices)] == [[1], [2**62 - 1]]

    @pytest.mark.parametrize("radices", [(2, 2), (3, 3), (2, 5), (5, 5, 5), (2, 3, 4)])
    def test_round_trip_exhaustive(self, radices):
        grids = [np.array(v) for v in zip(*itertools.product(*[range(r) for r in radices]))]
        combined = mux_combine(grids, radices)
        assert len(set(combined.tolist())) == combined.size  # bijective
        back = mux_split(combined, radices)
        for orig, rec in zip(grids, back):
            assert np.array_equal(orig, rec)


@given(st.lists(st.integers(1, 6), min_size=2, max_size=4).flatmap(
    lambda radices: st.tuples(
        st.just(radices),
        st.lists(st.tuples(*[st.integers(0, r - 1) for r in radices]), max_size=30))))
def test_mux_round_trip_any_radices(case):
    radices, rows = case
    digits = [np.array([row[i] for row in rows], dtype=np.int64) for i in range(len(radices))]
    back = mux_split(mux_combine(digits, radices), radices)
    assert len(back) == len(radices)
    for orig, rec in zip(digits, back):
        assert np.array_equal(orig, rec)


DIGIT_DTYPES = (np.int64, np.int32, np.uint8, np.bool_)


@st.composite
def mux_inputs(draw):
    """2-4 digit vectors of one length and mixed dtypes, with radices 0-10."""
    n = draw(st.integers(0, 12))
    vecs, radices = [], []
    for _ in range(draw(st.integers(2, 4))):
        dtype = draw(st.sampled_from(DIGIT_DTYPES))
        if dtype is np.bool_:
            values = st.booleans()
        else:
            info = np.iinfo(dtype)
            values = (st.integers(max(-2, int(info.min)), 12)
                      | st.sampled_from([int(info.min), int(info.max)]))
        vecs.append(np.array(draw(st.lists(values, min_size=n, max_size=n)), dtype=dtype))
        radices.append(draw(st.integers(0, 10)))
    return vecs, radices


@settings(max_examples=300, deadline=None)
@given(mux_inputs())
def test_mux_combine_checks_ranges_and_packs_like_python_ints(case):
    vecs, radices = case
    digits = [[int(d) for d in v] for v in vecs]
    if any(not 0 <= d < r for column, r in zip(digits, radices) for d in column):
        with pytest.raises(ValidationError, match="outside"):
            mux_combine(vecs, radices)
        return
    got = mux_combine(vecs, radices)
    want = [sum(d * math.prod(radices[:k]) for k, d in enumerate(row)) for row in zip(*digits)]
    assert got.dtype == np.int64 and got.tolist() == want


# the digit dtypes a layer's outputs come in, with the largest radix each holds
PACK_DTYPES = {np.uint8: 2**8, np.uint16: 2**16, np.int64: 2**20}


@st.composite
def layer_outputs(draw):
    """One layer's ``(K, N)`` outputs in one dtype, every digit in ``[0, r)``."""
    dtype = draw(st.sampled_from(list(PACK_DTYPES)))
    r = draw(st.integers(1, PACK_DTYPES[dtype]))
    K, N = draw(st.integers(2, 7)), draw(st.integers(0, 3))
    digit = st.integers(0, r - 1) | st.sampled_from([0, r - 1])
    rows = draw(st.lists(st.lists(digit, min_size=N, max_size=N), min_size=K, max_size=K))
    return np.array(rows, dtype=dtype).reshape(K, N), r


@settings(max_examples=300, deadline=None)
@given(layer_outputs())
@example((np.array([[255], [255], [255]], dtype=np.uint8), 256))
@example((np.zeros((5, 0), dtype=np.uint16), 300))
@example((np.full((3, 2), 1625, dtype=np.uint16), 1626))  # packs past 2**32
def test_walk_packs_like_mux_combine_and_python_ints(case):
    """The walk packs a layer's pairs and trailing triple, read in their own
    dtype, into the next layer's int64 inputs exactly as the checked mux does."""
    outputs, r = case
    K, N = outputs.shape
    topo = Topology(cards=(1,) * K, n_out=(r,) + (1,) * (len(tree_layer_sizes(K)) - 1))
    seen = {}

    def hook(layer, inputs):
        seen[layer] = inputs
        return outputs if layer == 0 else np.zeros(inputs.shape, dtype=np.uint8)

    for _ in walk(topo, np.zeros((K, N), dtype=np.int64), hook):
        pass
    groups = topo.mux_groups[0]
    got = seen[1]
    assert got.dtype == np.int64 and got.shape == (len(groups), N)
    checked = [mux_combine([outputs[m] for m in g], [r] * len(g)) for g in groups]
    assert np.array_equal(got, np.array(checked).reshape(got.shape))
    digits = outputs.tolist()
    want = [[sum(digits[m][j] * r ** s for s, m in enumerate(g)) for j in range(N)]
            for g in groups]
    assert got.tolist() == want


def sample_channel_oracle(channel, symbols, rng):
    """The clamped inverse-CDF formula over the full (rows, n_out) comparison."""
    cum = np.cumsum(channel, axis=1)
    u = rng.random(symbols.size)
    out = (u[:, None] >= cum[symbols]).sum(axis=1)
    return np.minimum(out, channel.shape[1] - 1).astype(np.int64)


@st.composite
def channels(draw):
    """Row-stochastic matrices mixing one-hot rows, exact zeros and all-zero columns."""
    n_in, n_out = draw(st.integers(1, 6)), draw(st.integers(1, 5))
    weight = st.one_of(st.just(0.0), st.sampled_from([1.0, 3.0]),
                       st.floats(1e-12, 1.0))
    w = np.array(draw(st.lists(st.lists(weight, min_size=n_out, max_size=n_out),
                               min_size=n_in, max_size=n_in)))
    dead = draw(st.lists(st.integers(0, n_out - 1), max_size=n_out - 1, unique=True))
    w[:, dead] = 0.0
    live = [j for j in range(n_out) if j not in dead]
    for i in range(n_in):
        if draw(st.booleans()) or w[i].sum() == 0:
            w[i] = 0.0
            w[i, draw(st.sampled_from(live))] = 1.0
    return ConditionalMatrix(w / w.sum(axis=1, keepdims=True)).p


class FixedDraws:
    """A stand-in generator whose ``random(shape)`` returns the given draws."""

    def __init__(self, draws):
        self.draws = np.array(draws, dtype=np.float64)

    def random(self, shape):
        return self.draws.reshape(shape)


class TestSampling:
    @settings(max_examples=300, deadline=None)
    @given(channels(), st.data(), st.integers(0, 2**32 - 1))
    def test_matches_clamped_inverse_cdf(self, channel, data, seed):
        symbols = np.array(data.draw(st.lists(st.integers(0, channel.shape[0] - 1),
                                              max_size=40)), dtype=np.int64)
        got = sample_channel(channel_cdf(channel).take(symbols, axis=1),
                             np.random.default_rng(seed))
        want = sample_channel_oracle(channel, symbols, np.random.default_rng(seed))
        # counted in, and returned as, the narrowest type that holds n_out - 1
        assert got.dtype == np.uint8 and got.shape == symbols.shape
        assert np.array_equal(got, want)

    def test_draws_on_and_above_the_thresholds(self):
        # a valid row may sum to just below 1, so a draw can pass every
        # threshold; a draw equal to a threshold passes it, as the inverse
        # CDF's "first symbol whose cumulative probability exceeds u" has it
        channel = ConditionalMatrix(np.array([[0.5, 0.5 - 1e-10]])).p
        draws = FixedDraws([0.25, 0.5, 0.75, 1.0 - 1e-11])
        symbols = np.zeros(4, dtype=np.int64)
        got = sample_channel(channel_cdf(channel).take(symbols, axis=1), draws)
        assert got.tolist() == [0, 1, 1, 1]
        draws = FixedDraws([0.25, 0.5, 0.75, 1.0 - 1e-11])
        assert np.array_equal(got, sample_channel_oracle(channel, symbols, draws))

    @pytest.mark.parametrize("u", [0.0, 0.5, 1.0 - 2.0 ** -53])
    def test_keep_input_nodes_pass_every_symbol_for_every_draw(self, u):
        # numpy's random() can return exactly 0.0
        for n_in, n_out in ((3, 3), (2, 4), (1, 2)):
            x = np.arange(n_in)
            got = sample_channel(channel_cdf(np.eye(n_in, n_out)).take(x, axis=1),
                                 FixedDraws([u] * n_in))
            assert got.tolist() == x.tolist()

    @pytest.mark.parametrize("u, want", [(0.0, 1), (0.4 - 2.0 ** -54, 1), (0.4, 2), (0.9, 2)])
    def test_a_zero_probability_symbol_is_never_emitted(self, u, want):
        channel = np.array([[0.0, 0.4, 0.6], [0.5, 0.0, 0.5]])
        got = sample_channel(channel_cdf(channel).take([0], axis=1), FixedDraws([u]))
        assert got.tolist() == [want]
        # symbol 1 of the second row has no mass: a draw on its threshold skips it
        got = sample_channel(channel_cdf(channel).take([1], axis=1), FixedDraws([0.5]))
        assert got.tolist() == [2]

    def test_a_wide_alphabet_counts_past_255(self):
        channel = np.full((1, 300), 1 / 300)
        symbols = np.zeros(3, dtype=np.int64)
        draws = [0.0, 1.0 - 2.0 ** -53, 1 / 300]
        got = sample_channel(channel_cdf(channel).take(symbols, axis=1), FixedDraws(draws))
        assert got.dtype == np.uint16 and got.tolist()[:2] == [0, 299]
        assert np.array_equal(got, sample_channel_oracle(channel, symbols, FixedDraws(draws)))

    @pytest.mark.parametrize("K, N", [(1, 5), (2, 7), (3, 1), (3, 0)])
    def test_a_layer_draw_is_the_stream_of_its_nodes(self, K, N):
        rng = np.random.default_rng(K * 100 + N)
        chans = [ConditionalMatrix(rng.dirichlet(np.ones(3), size=4)).p for _ in range(K)]
        x = rng.integers(0, 4, (K, N))
        table = channel_cdf(np.concatenate(chans))
        layer_rng, node_rng = np.random.default_rng(5), np.random.default_rng(5)
        got = sample_channel(table.take(x + 4 * np.arange(K)[:, None], axis=1), layer_rng)
        want = [sample_channel(channel_cdf(c).take(row, axis=1), node_rng)
                for c, row in zip(chans, x)]
        assert got.shape == (K, N) and got.dtype == np.uint8
        assert np.array_equal(got, np.array(want).reshape(K, N))
        assert layer_rng.bit_generator.state == node_rng.bit_generator.state

    def test_deterministic_rows_pass_through(self):
        chan = np.eye(3)
        rng = np.random.default_rng(0)
        x = np.array([2, 0, 1, 1])
        assert np.array_equal(sample_channel(channel_cdf(chan).take(x, axis=1), rng), x)

    def test_marginal_frequencies(self):
        chan = np.array([[0.8, 0.2], [0.1, 0.9]])
        rng = np.random.default_rng(1)
        x = np.zeros(20000, dtype=int)
        out = sample_channel(channel_cdf(chan).take(x, axis=1), rng)
        assert out.mean() == pytest.approx(0.2, abs=0.01)


class TestTrainNetwork:
    def test_single_feature_identity_is_perfect(self):
        rng = np.random.default_rng(0)
        y = rng.integers(0, 2, 200)
        data = QuantizedDataset(columns=(y.copy(),), cardinalities=(2,),
                                labels=y, n_class=2)
        topo = Topology(cards=(2,), n_out=(2,))
        model = train_network(data, topo, beta=5.0, seed=0)
        preds = predict_quantized(model, data, seed=1)
        assert np.array_equal(preds, y)

    def test_informative_feature_dominates(self):
        rng = np.random.default_rng(1)
        data = toy_dataset(rng)
        topo = Topology(cards=(2, 3), n_out=(2, 2))
        model = train_network(data, topo, beta=10.0, seed=0)
        preds = predict_quantized(model, data, seed=0)
        assert (preds == data.labels).mean() >= 0.95

    def test_training_is_reproducible(self):
        rng = np.random.default_rng(2)
        data = toy_dataset(rng)
        topo = Topology(cards=(2, 3), n_out=(2, 2))
        a = train_network(data, topo, beta=5.0, seed=7)
        b = train_network(data, topo, beta=5.0, seed=7)
        for key in a.nodes:
            assert np.array_equal(a.nodes[key].channel.p, b.nodes[key].channel.p)
        assert a.class_alignment == b.class_alignment

    def test_per_node_relevance_never_grows(self):
        rng = np.random.default_rng(3)
        data = toy_dataset(rng)
        topo = Topology(cards=(2, 3), n_out=(2, 2))
        model = train_network(data, topo, beta=5.0, seed=1)
        for node in model.nodes.values():
            assert node.diagnostics.i_y_out <= node.diagnostics.mi_in_y + 1e-9

    def test_schema_mismatch_rejected(self):
        rng = np.random.default_rng(4)
        data = toy_dataset(rng)
        topo = Topology(cards=(2, 4), n_out=(2, 2))  # wrong cardinality for col 1
        with pytest.raises(SchemaMismatchError):
            train_network(data, topo, beta=5.0, seed=0)

    def test_nonconverged_node_recorded_not_fatal(self):
        rng = np.random.default_rng(5)
        data = toy_dataset(rng)
        topo = Topology(cards=(2, 3), n_out=(2, 2))
        model = train_network(data, topo, beta=5.0, seed=0, max_iter=1)
        assert any(not n.diagnostics.converged for n in model.nodes.values())


def xor_dataset(seed, n=200):
    """Two binary features whose xor is the label; each alone is irrelevant."""
    rng = np.random.default_rng(seed)
    x0, x1 = rng.integers(0, 2, n), rng.integers(0, 2, n)
    return QuantizedDataset(columns=(x0, x1), cardinalities=(2, 2),
                            labels=x0 ^ x1, n_class=2)


class TestPassThrough:
    def test_xor_layer0_nodes_keep_their_input(self):
        data = xor_dataset(0)
        model = train_network(data, Topology(cards=(2, 2), n_out=(2, 2)),
                              beta=10.0, seed=0)
        for k in range(2):
            node = model.nodes[(0, k)]
            assert np.array_equal(node.channel.p, np.eye(2))
            assert node.diagnostics.iterations == 0
            assert node.diagnostics.converged is True
        assert model.nodes[(1, 0)].diagnostics.iterations >= 1
        preds = predict_quantized(model, data, seed=0, mode="ensemble", repeats=25)
        assert np.array_equal(preds, data.labels)

    def test_embedding_into_wider_alphabet_is_lossless(self):
        rng = np.random.default_rng(8)
        data = toy_dataset(rng)
        model = train_network(data, Topology(cards=(2, 3), n_out=(4, 2)),
                              beta=5.0, seed=0)
        for k, n_in in enumerate((2, 3)):
            node = model.nodes[(0, k)]
            assert np.array_equal(node.channel.p, np.eye(n_in, 4))
            assert node.diagnostics.iterations == 0
            assert node.diagnostics.i_y_out == pytest.approx(node.diagnostics.mi_in_y, abs=1e-12)

    def test_final_node_always_solves(self):
        rng = np.random.default_rng(9)
        y = rng.integers(0, 2, 100)
        data = QuantizedDataset(columns=(y.copy(),), cardinalities=(2,),
                                labels=y, n_class=2)
        model = train_network(data, Topology(cards=(2,), n_out=(2,)), beta=5.0, seed=0)
        assert model.nodes[(0, 0)].diagnostics.iterations >= 1

    def test_dead_embedding_symbols_follow_zero_mass_rule(self):
        data = xor_dataset(1)
        model = train_network(data, Topology(cards=(2, 2), n_out=(3, 2)),
                              beta=10.0, seed=0)
        # identity channels sample deterministically, so the layer-1 input is
        # the muxed features; symbols with a digit 2 are never emitted
        x = mux_combine(list(data.columns), [3, 3])
        px = np.bincount(x, minlength=9) / x.size
        channel = model.nodes[(1, 0)].channel.p
        dead = px == 0
        assert dead.sum() == 5
        assert np.allclose(channel[dead], px @ channel, atol=1e-12)


class TestPredict:
    @pytest.fixture()
    def trained(self):
        rng = np.random.default_rng(6)
        data = toy_dataset(rng)
        topo = Topology(cards=(2, 3), n_out=(2, 2))
        return data, train_network(data, topo, beta=10.0, seed=0)

    def test_same_seed_same_output(self, trained):
        data, model = trained
        a = predict_quantized(model, data, seed=42)
        b = predict_quantized(model, data, seed=42)
        assert np.array_equal(a, b)

    def test_deterministic_channels_ignore_seed(self):
        from dinet import ConditionalMatrix

        rng = np.random.default_rng(7)
        y = rng.integers(0, 2, 150)
        data = QuantizedDataset(columns=(y.copy(),), cardinalities=(2,),
                                labels=y, n_class=2)
        model = train_network(data, Topology(cards=(2,), n_out=(2,)), beta=8.0, seed=0)
        # force exact 0/1 entries: no randomness left anywhere
        nodes = {
            key: dataclasses.replace(node, channel=ConditionalMatrix(
                np.eye(2)[node.channel.p.argmax(axis=1)]))
            for key, node in model.nodes.items()
        }
        model = dataclasses.replace(model, nodes=nodes)
        a = predict_quantized(model, data, seed=1)
        b = predict_quantized(model, data, seed=999)
        assert np.array_equal(a, b)

    def test_ensemble_single_repeat_equals_stochastic(self, trained):
        data, model = trained
        a = predict_quantized(model, data, seed=3, mode="stochastic")
        b = predict_quantized(model, data, seed=3, mode="ensemble", repeats=1)
        assert np.array_equal(a, b)

    def test_ensemble_votes_stabilize(self, trained):
        data, model = trained
        a = predict_quantized(model, data, seed=1, mode="ensemble", repeats=41)
        b = predict_quantized(model, data, seed=2, mode="ensemble", repeats=41)
        assert (a == b).mean() > 0.95

    def test_unknown_mode_rejected(self, trained):
        data, model = trained
        with pytest.raises(ValidationError):
            predict_quantized(model, data, mode="map")

    @pytest.mark.parametrize("mode, repeats", [("ensemble", 0), ("stochastic", -5)])
    def test_every_mode_needs_a_repeat(self, trained, mode, repeats):
        data, model = trained
        with pytest.raises(ValidationError, match=f"^repeats must be >= 1, got {repeats}$"):
            predict_quantized(model, data, mode=mode, repeats=repeats)

    def test_alignment_must_be_a_bijection(self, trained):
        _, model = trained
        with pytest.raises(ValidationError,
                           match="^class_alignment must be a bijection on the classes$"):
            dataclasses.replace(model, class_alignment=(0, 0))

    def test_a_model_without_quantizers_quantizes_nothing(self, trained):
        _, model = trained
        with pytest.raises(SchemaMismatchError,
                           match="^model carries no quantizers; pass quantized data$"):
            quantize_features(model, make_synthetic_ckd(n_rows=20, seed=0))


class TestPredictRawRows:
    """``predict`` quantizes a raw table with the model's specs, then predicts its rows."""

    @pytest.fixture(scope="class")
    def trained(self):
        from dinet.cli import load_config, prepare_dataset, run_single
        from tests.conftest import REPO_ROOT

        cfg = load_config(REPO_ROOT / "configs" / "synthetic_smoke.json")
        raw = prepare_dataset(cfg)
        return raw, run_single(cfg, raw, 0, keep_model=True)["model"]

    @pytest.mark.parametrize("mode", ["stochastic", "ensemble"])
    def test_predict_is_predict_quantized_of_the_quantized_rows(self, trained, mode):
        raw, model = trained
        got = predict(model, raw, seed=4, mode=mode, repeats=7)
        want = predict_quantized(model, quantize_features(model, raw), seed=4, mode=mode,
                                 repeats=7)
        assert got.dtype == want.dtype and np.array_equal(got, want)

    def test_a_table_of_other_feature_names_is_refused(self, trained):
        raw, model = trained
        names = ("renamed",) + raw.feature_names[1:]
        with pytest.raises(SchemaMismatchError, match=re.escape(
                f"dataset columns {list(names)} do not match the model's features; "
                f"missing column(s) {[raw.feature_names[0]]}")):
            predict(model, dataclasses.replace(raw, feature_names=names))


class TestTableFitsTree:
    """Training, prediction and ``mi_flow`` refuse a table whose alphabets are not the tree's."""

    @pytest.fixture(scope="class")
    def model(self):
        data = toy_dataset(np.random.default_rng(6))
        return train_network(data, Topology(cards=(2, 3), n_out=(2, 2)), beta=10.0, seed=0)

    @pytest.mark.parametrize("cards", [(2, 4), (2,), (2, 3, 2)],
                             ids=["alphabet", "fewer-features", "more-features"])
    @pytest.mark.parametrize("caller", ["train_network", "predict_quantized", "mi_flow"])
    def test_each_caller_names_both_alphabets(self, model, caller, cards):
        y = np.array([0, 1, 1, 0])
        data = QuantizedDataset(columns=[y] * len(cards), cardinalities=cards, labels=y,
                                n_class=2)
        call = {"train_network": lambda: train_network(data, model.topology, beta=10.0),
                "predict_quantized": lambda: predict_quantized(model, data),
                "mi_flow": lambda: mi_flow(model, data)}[caller]
        with pytest.raises(SchemaMismatchError, match=re.escape(
                f"dataset alphabets {cards} do not match the tree's layer-0 alphabets (2, 3)")):
            call()

    def test_training_refuses_a_class_count_the_tree_lacks(self):
        data = toy_dataset(np.random.default_rng(0))
        with pytest.raises(SchemaMismatchError,
                           match="^dataset has 2 classes, topology expects 3$"):
            train_network(data, Topology(cards=(2, 3), n_out=(2, 3)), beta=5.0)


class TestSeedDerivation:
    def test_distinct_streams(self):
        seeds = {derive_seed(0, 1, layer, pos) for layer in range(4) for pos in range(6)}
        assert len(seeds) == 24

    def test_stable_values(self):
        assert derive_seed(1, 2, 3) == derive_seed(1, 2, 3)
        assert derive_seed(1, 2, 3) != derive_seed(1, 3, 2)


def propagate_oracle(topology, channels, columns, rng, record=None):
    """The per-layer loop prediction used before ``walk``, kept as an oracle.

    Every node draws from ``rng``, in (layer, position) order.  When
    ``record`` is a list, each layer's ``(inputs, outputs)`` is appended.
    Returns the final node's raw output symbols.
    """
    current = [np.asarray(c, dtype=np.int64) for c in columns]
    for layer_idx, layer in enumerate(topology.layers):
        sampled = [
            sample_channel(channel_cdf(channels[(layer_idx, k)]).take(current[k], axis=1), rng)
            for k in range(layer.size)
        ]
        if record is not None:
            record.append((current, sampled))
        if layer_idx == topology.depth:
            return sampled[0]
        groups = topology.mux_groups[layer_idx]
        current = [
            mux_combine([sampled[m] for m in g], [layer.n_out] * len(g))
            for g in groups
        ]


@st.composite
def small_trees(draw):
    """A model trained on random rows of a random tree of 1-7 features."""
    D = draw(st.integers(1, 7))
    n_class = draw(st.integers(2, 3))
    n_rows = draw(st.integers(1, 30))
    cards = draw(st.lists(st.integers(1, 4), min_size=D, max_size=D))
    n_layers = len(tree_layer_sizes(D))
    n_out = draw(st.lists(st.integers(1, 3), min_size=n_layers - 1,
                          max_size=n_layers - 1)) + [n_class]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    data = QuantizedDataset(
        columns=tuple(rng.integers(0, c, n_rows) for c in cards), cardinalities=tuple(cards),
        labels=rng.integers(0, n_class, n_rows), n_class=n_class)
    topo = Topology(cards=cards, n_out=n_out)
    return train_network(data, topo, beta=5.0, max_iter=20, seed=draw(st.integers(0, 99))), data


def plugin_mi(a, b):
    """Plug-in I(a;b) in bits from paired symbol vectors."""
    _, ia = np.unique(a, return_inverse=True)
    _, ib = np.unique(b, return_inverse=True)
    joint = np.zeros((ia.max() + 1, ib.max() + 1))
    np.add.at(joint, (ia, ib), 1.0 / a.size)
    pa, pb = joint.sum(axis=1), joint.sum(axis=0)
    nz = joint > 0
    return float(np.sum(joint[nz] * np.log2(joint[nz] / np.outer(pa, pb)[nz])))


def plugin_h(a):
    p = np.unique(a, return_counts=True)[1] / a.size
    return float(-np.sum(p * np.log2(p)))


class TestWalk:
    @settings(max_examples=60, deadline=None)
    @given(small_trees(), st.integers(0, 2**32 - 1))
    def test_predict_matches_the_per_layer_loop(self, tree, seed):
        model, data = tree
        channels = {key: node.channel.p for key, node in model.nodes.items()}
        align = np.asarray(model.class_alignment)

        def oracle_pass(rng):
            return align[propagate_oracle(model.topology, channels, data.columns, rng)]

        rng = np.random.default_rng([seed, _STREAM_PREDICT])
        assert np.array_equal(predict_quantized(model, data, seed=seed), oracle_pass(rng))
        # the passes of an ensemble draw one after another from the same
        # generator, over the rows still open
        got = predict_quantized(model, data, seed=seed, mode="ensemble", repeats=3)
        assert np.array_equal(got, reference_predict(model, data, seed, 3)[0])

    @settings(max_examples=60, deadline=None)
    @given(small_trees())
    def test_mi_flow_rows_are_plugin_values_of_the_loop_samples(self, tree):
        model, data = tree
        topo, y = model.topology, data.labels
        channels = {key: node.channel.p for key, node in model.nodes.items()}
        record = []
        propagate_oracle(topo, channels, data.columns,
                         np.random.default_rng([model.seed, _STREAM_MIFLOW]),
                         record)
        report = mi_flow(model, data)

        want_nodes = [(i, k, plugin_mi(inputs[k], y), plugin_mi(out, y), plugin_h(out))
                      for i, (inputs, outputs) in enumerate(record)
                      for k, out in enumerate(outputs)]
        got_nodes = [(n.layer, n.position, n.mi_in_y, n.mi_out_y, n.h_out) for n in report.nodes]
        want_muxes = []
        for i, groups in enumerate(topo.mux_groups):
            outputs, cards = record[i][1], [topo.layers[i].n_out] * len(record[i][1])
            for g_idx, g in enumerate(groups):
                acc, acc_card = outputs[g[0]], cards[g[0]]
                for stage, m in enumerate(g[1:]):
                    pair = acc + acc_card * outputs[m]
                    i_a, i_b = plugin_mi(acc, y), plugin_mi(outputs[m], y)
                    want_muxes.append((i, g_idx, stage, max(i_a, i_b), plugin_mi(pair, y),
                                       min(i_a + plugin_h(outputs[m]), i_b + plugin_h(acc))))
                    acc, acc_card = pair, acc_card * cards[m]
                # the chained digits are the next layer's input
                assert np.array_equal(acc, record[i + 1][0][g_idx])
        got_muxes = [(m.layer, m.position, m.stage, m.lower_bound, m.observed, m.upper_bound)
                     for m in report.muxes]

        for got, want, n_keys in ((got_nodes, want_nodes, 2), (got_muxes, want_muxes, 3)):
            assert len(got) == len(want)
            for g, w in zip(got, want):
                assert g[:n_keys] == w[:n_keys]
                assert g[n_keys:] == pytest.approx(w[n_keys:], abs=1e-12)

    def test_train_solves_and_samples_each_node_once_in_order(self, monkeypatch):
        """One solve per node in walk order, then one sample call per layer."""
        from dinet import network

        calls = []
        walked = []  # the (layer, inputs, outputs) the training walk yields
        solve, sample, walk = network.solve_ib, network.sample_channel, network.walk

        def recording_solve(problem, **kwargs):
            calls.append(("solve", kwargs["seed"]))
            return solve(problem, **kwargs)

        def recording_sample(thresholds, rng):
            calls.append(("sample", thresholds, rng, rng.bit_generator.state))
            return sample(thresholds, rng)

        def recording_walk(*args):
            for item in walk(*args):
                walked.append(item)
                yield item

        monkeypatch.setattr(network, "solve_ib", recording_solve)
        monkeypatch.setattr(network, "sample_channel", recording_sample)
        monkeypatch.setattr(network, "walk", recording_walk)
        rng = np.random.default_rng(10)
        cards = [2, 3, 4, 2, 3]
        y = rng.integers(0, 2, 80)
        data = QuantizedDataset(columns=tuple(rng.integers(0, c, 80) for c in cards),
                                cardinalities=tuple(cards), labels=y, n_class=2)
        topo = Topology(cards=cards, n_out=(3, 3, 2))
        model = train_network(data, topo, beta=5.0, seed=4)

        # each layer: its nodes' solves in position order, then the layer's one draw
        assert [c[0] for c in calls] == [kind for size in topo.layer_sizes
                                         for kind in ["solve"] * size + ["sample"]]
        solves = [c for c in calls if c[0] == "solve"]
        samples = [c for c in calls if c[0] == "sample"]
        assert solves == [("solve", derive_seed(4, network._STREAM_IB, i, k))
                          for i, k in topo.slots]
        assert len(samples) == len(walked) == len(topo.layers)
        # one generator serves every layer; a layer draws one uniform per node
        # and row, after the rows of the layers before it
        oracle = np.random.default_rng([4, _STREAM_TRAIN_SAMPLE])
        for (i, inputs, _), layer, sampled in zip(walked, topo.layers, samples):
            _, thresholds, sample_rng, state = sampled
            assert sample_rng is samples[0][2]
            assert state == oracle.bit_generator.state
            for _ in range(layer.size):
                oracle.random(80)
            # the layer's thresholds are its trained nodes' tables at their inputs
            want = np.stack([channel_cdf(model.nodes[(i, k)].channel.p).take(inputs[k], axis=1)
                             for k in range(layer.size)], axis=1)
            assert np.array_equal(thresholds, want)


class TestKeptTables:
    """The model holds one sampling table per layer, built once when the model is made."""

    @staticmethod
    def assert_tables(model):
        layers = model.topology.layers
        assert len(model.tables) == len(layers)
        for i, (layer, table) in enumerate(zip(layers, model.tables)):
            cdfs = [channel_cdf(model.nodes[(i, k)].channel.p) for k in range(layer.size)]
            assert np.array_equal(table.thresholds, np.concatenate(cdfs, axis=1)), i
            assert table.offsets.tolist() == [[sum(layer.n_in[:k])] for k in range(layer.size)]
            assert not table.thresholds.flags.writeable

    def test_trained_loaded_and_reloaded_nodes_hold_their_table(self, tmp_path):
        from dinet import load_model, save_model
        from dinet.cli import load_config, prepare_dataset, run_single
        from tests.conftest import REPO_ROOT

        self.assert_tables(load_model(REPO_ROOT / "tests" / "fixtures" / "model.json"))
        cfg = load_config(REPO_ROOT / "configs" / "synthetic_smoke.json")
        model = run_single(cfg, prepare_dataset(cfg), 0, keep_model=True)["model"]
        self.assert_tables(model)
        path = tmp_path / "model.json"
        save_model(model, path)
        text = path.read_text()
        for word in ("thresholds", "tables", "offsets"):  # derived, so never written
            assert word not in text
        self.assert_tables(load_model(path))

    def test_table_is_derived_not_given(self):
        from dinet.network import DINModel

        data = toy_dataset(np.random.default_rng(6))
        model = train_network(data, Topology(cards=(2, 3), n_out=(2, 2)), beta=10.0)
        fields = {f.name: getattr(model, f.name) for f in dataclasses.fields(model) if f.init}
        with pytest.raises(TypeError):
            DINModel(**fields, tables=model.tables)
        table = model.tables[0].thresholds
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0, 0] = 0.5
        # a model made from other nodes derives its tables from them
        nodes = {key: dataclasses.replace(node, channel=ConditionalMatrix(
            np.eye(node.channel.cols)[node.channel.p.argmax(axis=1)]))
            for key, node in model.nodes.items()}
        replaced = dataclasses.replace(model, nodes=nodes)
        self.assert_tables(replaced)
        assert not np.array_equal(replaced.tables[0].thresholds, table)

    @pytest.mark.parametrize("mode", ["stochastic", "ensemble"])
    def test_the_walk_and_the_model_each_build_a_table_once_and_its_readers_none(
            self, monkeypatch, mode):
        from dinet import network

        tabled = []  # (stacked channels, their table) per channel_cdf call
        cdf = network.channel_cdf

        def counting_cdf(channel):
            tabled.append((channel, cdf(channel)))
            return tabled[-1][1]

        monkeypatch.setattr(network, "channel_cdf", counting_cdf)
        rng = np.random.default_rng(12)
        cards = [2, 3, 4, 2, 3]
        y = rng.integers(0, 2, 90)
        data = QuantizedDataset(columns=tuple(rng.integers(0, c, 90) for c in cards),
                                cardinalities=tuple(cards), labels=y, n_class=2)
        topo = Topology(cards=cards, n_out=(3, 3, 2))
        model = train_network(data, topo, beta=5.0, seed=1)
        # the walk samples each layer from its own table, then the model derives its
        # tables from its nodes: one table each per layer, of the same stacked channels
        n_layers = len(topo.layers)
        assert len(tabled) == 2 * n_layers
        for i, layer in enumerate(topo.layers):
            stacked = np.concatenate([model.nodes[(i, k)].channel.p for k in range(layer.size)])
            (walked, walk_table), (held, model_table) = tabled[i], tabled[n_layers + i]
            assert np.array_equal(walked, stacked) and np.array_equal(held, stacked)
            assert np.array_equal(walk_table, model_table)
            assert model.tables[i].thresholds is model_table
        self.assert_tables(model)
        tabled.clear()
        predict_quantized(model, data, seed=2, mode=mode, repeats=3)
        mi_flow(model, data)
        assert tabled == []


# ---------------------------------------------------------------------------
# The node-by-node walk, training and prediction that the layer walk replaced,
# kept as the reference that the layer walk must match draw for draw.  Two
# edits: the sampling rule is ``u >= t`` where it had ``u > t`` (they differ
# only on a draw exactly equal to a threshold), and an ensemble pass walks
# only the rows whose majority is still open.

def reference_sample_channel(thresholds, rng):
    u = rng.random(thresholds.shape[1])
    out = np.zeros(thresholds.shape[1], dtype=np.int64)
    for row in thresholds:
        out += u >= row
    return out


def reference_walk(topology, columns, node):
    inputs = [np.asarray(c, dtype=np.int64) for c in columns]
    for layer_idx, layer in enumerate(topology.layers):
        outputs = [node(layer_idx, k, inputs[k]) for k in range(layer.size)]
        yield layer_idx, inputs, outputs
        if layer_idx < topology.depth:
            inputs = [
                mux_combine([outputs[m] for m in g], [layer.n_out] * len(g))
                for g in topology.mux_groups[layer_idx]
            ]


def reference_train(data, topology, beta, max_iter, seed):
    """Each node's (channel, diagnostics, mi_in_y), the alignment and the generator."""
    from dinet.ib import IBProblem, posteriors, solve_ib
    from dinet.infotheory import mutual_information
    from dinet.network import _STREAM_IB, _align_classes

    nodes = {}
    final = None
    rng = np.random.default_rng([seed, _STREAM_TRAIN_SAMPLE])

    def node(layer_idx, k, symbols):
        nonlocal final
        layer = topology.layers[layer_idx]
        px, py_x = reference_estimate(symbols, data.labels, layer.n_in[k], data.n_class)
        problem = IBProblem(px=DiscreteDistribution(px), py_given_x=ConditionalMatrix(py_x),
                            beta=beta, n_out=layer.n_out)
        sol = solve_ib(problem, max_iter=max_iter,
                       seed=derive_seed(seed, _STREAM_IB, layer_idx, k),
                       keep_input=layer_idx < topology.depth)
        nodes[(layer_idx, k)] = (sol.channel.p, sol.diagnostics,
                                 mutual_information(px, py_x))
        final = problem, sol.channel  # the walk ends on the final node
        return reference_sample_channel(channel_cdf(sol.channel.p).take(symbols, axis=1), rng)

    for _ in reference_walk(topology, data.columns, node):
        pass
    return nodes, _align_classes(posteriors(*final)[1].p), rng


def reference_node(model, rng):
    def node(layer, pos, symbols):
        table = channel_cdf(model.nodes[(layer, pos)].channel.p)
        return reference_sample_channel(table.take(symbols, axis=1), rng)
    return node


def reference_predict(model, data, seed, passes):
    """The labels, the generator and the open rows before each walked pass.

    Each pass walks node by node over the rows still open, drawing from one
    generator, and a row settles once ``settled_after`` says no remaining
    pass can change its majority.
    """
    rng = np.random.default_rng([seed, _STREAM_PREDICT])
    align = np.asarray(model.class_alignment, dtype=np.int64)
    votes = np.zeros((data.n_rows, model.n_class), dtype=np.int64)
    rows = list(range(data.n_rows))
    open_rows = []
    for done in range(1, passes + 1):
        if not rows:
            break
        open_rows.append(len(rows))
        columns = [np.asarray(c)[rows] for c in data.columns]
        for _, _, outputs in reference_walk(model.topology, columns, reference_node(model, rng)):
            pass
        votes[rows, align[outputs[0]]] += 1
        rows = [j for j in rows if not settled_after(votes[j].tolist(), passes - done)]
    return votes.argmax(axis=1), rng, open_rows


@st.composite
def reference_trees(draw):
    """Tree settings: 1-7 features, so 3-way groups, n_out 1-3 per layer, and
    alphabets of 1-4, so pass-through nodes, all occur."""
    D = draw(st.integers(1, 7))
    n_layers = len(tree_layer_sizes(D))
    return dict(
        cards=draw(st.lists(st.integers(1, 4), min_size=D, max_size=D)),
        n_out=draw(st.lists(st.integers(1, 3), min_size=n_layers - 1, max_size=n_layers - 1)),
        n_class=draw(st.integers(2, 3)), n_rows=draw(st.integers(1, 30)),
        data_seed=draw(st.integers(0, 2**32 - 1)), seed=draw(st.integers(0, 99)))


def reference_case(cards, n_out, n_class, n_rows, data_seed, seed):
    rng = np.random.default_rng(data_seed)
    data = QuantizedDataset(
        columns=tuple(rng.integers(0, c, n_rows) for c in cards), cardinalities=tuple(cards),
        labels=rng.integers(0, n_class, n_rows), n_class=n_class)
    return data, Topology(cards=cards, n_out=[*n_out, n_class])


class TestReferenceWalk:
    @settings(max_examples=60, deadline=None)
    @given(reference_trees())
    @example(dict(cards=[2, 2, 3], n_out=[1], n_class=2, n_rows=9, data_seed=1, seed=0))
    @example(dict(cards=[2, 1, 3, 2, 2], n_out=[3, 1], n_class=3, n_rows=12, data_seed=2,
                  seed=5))
    def test_layer_walk_matches_the_node_by_node_reference(self, tree):
        with pytest.MonkeyPatch.context() as monkeypatch:
            self.check_against_the_reference(monkeypatch, tree)

    @staticmethod
    def check_against_the_reference(monkeypatch, tree):
        from dinet import analysis, network

        data, topo = reference_case(**tree)
        generators = []  # every generator a sample call draws from
        sample = network.sample_channel

        def recording_sample(thresholds, rng):
            generators.append(rng)
            return sample(thresholds, rng)

        monkeypatch.setattr(network, "sample_channel", recording_sample)
        monkeypatch.setattr(analysis, "sample_channel", recording_sample)

        def last_state():
            state = generators[-1].bit_generator.state
            generators.clear()
            return state

        model = train_network(data, topo, beta=5.0, max_iter=20, seed=tree["seed"])
        nodes, alignment, rng = reference_train(data, topo, 5.0, 20, tree["seed"])
        assert last_state() == rng.bit_generator.state
        assert model.class_alignment == alignment
        for slot, (channel, diagnostics, mi_in_y) in nodes.items():
            node = model.nodes[slot]
            assert np.array_equal(node.channel.p, channel), slot
            assert node.diagnostics == diagnostics, slot
            assert node.diagnostics.mi_in_y == mi_in_y, slot

        empty = QuantizedDataset(columns=tuple(np.zeros(0, np.int64) for _ in topo.cards),
                                 cardinalities=topo.cards, labels=np.zeros(0, np.int64),
                                 n_class=topo.n_class)
        for rows in (data, empty):
            for mode, passes in (("stochastic", 1), ("ensemble", 4)):
                got = predict_quantized(model, rows, seed=7, mode=mode, repeats=passes)
                want, rng, _ = reference_predict(model, rows, 7, passes)
                assert np.array_equal(got, want) and got.dtype == want.dtype
                assert last_state() == rng.bit_generator.state

        # mi_flow over the reference's samples: the layer walk's arrays, row for row
        rng = np.random.default_rng([model.seed, _STREAM_MIFLOW])

        def walk_the_reference(topology, columns, _):
            for layer, inputs, outputs in reference_walk(topology, columns,
                                                         reference_node(model, rng)):
                yield layer, np.array(inputs), np.array(outputs)

        report = mi_flow(model, data)
        state = last_state()
        monkeypatch.setattr(analysis, "walk", walk_the_reference)
        assert report == mi_flow(model, data)
        assert state == rng.bit_generator.state


# ---------------------------------------------------------------------------
# An ensemble row leaves the walk once its majority is settled.

def settled_after(votes, remaining):
    """Whether no ``remaining`` further votes can change a row's majority,
    ties to the smaller label: the leader's lead over each other class."""
    lead = max(range(len(votes)), key=lambda k: (votes[k], -k))
    return all(votes[k] + remaining < votes[lead]
               or (votes[k] + remaining == votes[lead] and lead < k)
               for k in range(len(votes)) if k != lead)


def ensemble_model(tree, final):
    """The model trained on ``reference_case(**tree)``, its final channel the
    trained one, uniform (so an even count of votes often ties), one-hot, or
    constant (every row settles at the first pass that can settle it)."""
    data, topo = reference_case(**tree)
    model = train_network(data, topo, beta=5.0, max_iter=20, seed=tree["seed"])
    slot = (topo.depth, 0)
    n_in, n_class = topo.layers[-1].n_in[0], topo.n_class
    channel = {"trained": model.nodes[slot].channel.p,
               "uniform": np.full((n_in, n_class), 1 / n_class),
               "one-hot": np.eye(n_class)[np.arange(n_in) % n_class],
               "constant": np.eye(n_class)[np.zeros(n_in, dtype=np.int64)]}[final]
    nodes = dict(model.nodes)
    nodes[slot] = dataclasses.replace(nodes[slot], channel=ConditionalMatrix(channel))
    return dataclasses.replace(model, nodes=nodes), data


@st.composite
def ensemble_cases(draw):
    """A tree of 2-4 classes with one of ``ensemble_model``'s final channels,
    and 1-41 passes."""
    tree = draw(reference_trees())
    tree["n_class"] = draw(st.integers(2, 4))
    final = draw(st.sampled_from(["trained", "uniform", "one-hot", "constant"]))
    return (*ensemble_model(tree, final), draw(st.integers(1, 41)))


class TestSettledRows:
    @settings(max_examples=300, deadline=None)
    @given(st.integers(2, 4), st.integers(1, 11), st.data())
    def test_the_rule_is_exact(self, n_class, passes, data):
        """``_settled`` holds exactly when every split of the remaining votes
        leaves the leader the majority (ties to the smaller label)."""
        from dinet.network import _settled

        done = data.draw(st.integers(0, passes))
        rows = data.draw(st.lists(st.lists(st.integers(0, n_class - 1), min_size=done,
                                           max_size=done), min_size=1, max_size=8))
        votes = np.array([np.bincount(r, minlength=n_class) for r in rows]).T
        lead = votes.argmax(axis=0)
        got = _settled(votes, lead, passes - done)
        for j, row in enumerate(votes.T):
            ends = (row + np.bincount(rest, minlength=n_class)
                    for rest in itertools.combinations_with_replacement(
                        range(n_class), passes - done))
            assert got[j] == all(end.argmax() == lead[j] for end in ends), row
            assert got[j] == settled_after(row.tolist(), passes - done), row

    @settings(max_examples=80, deadline=None)
    @given(ensemble_cases(), st.integers(0, 99))
    def test_predictions_and_generator_are_those_of_the_open_row_walk(self, case, seed):
        model, data, passes = case
        got, generator = predict_and_record(model, data, seed, passes)
        want, rng, _ = reference_predict(model, data, seed, passes)
        assert np.array_equal(got, want) and got.dtype == want.dtype
        assert generator.bit_generator.state == rng.bit_generator.state

    @settings(max_examples=80, deadline=None)
    @given(ensemble_cases(), st.integers(0, 99))
    def test_the_stream_is_consumed_by_the_open_rows_exactly(self, case, seed):
        self.check_stream(*case, seed)

    @pytest.mark.parametrize("final, passes, want_open", [
        ("trained", 1, lambda n, open_rows: open_rows == [n]),
        # R = 5: the first check follows pass 3, and settles every row
        ("constant", 5, lambda n, open_rows: open_rows == [n] * 3),
        # rows settle before the last pass and some are open to it
        ("uniform", 9, lambda n, open_rows: len(open_rows) == 9 and 0 < open_rows[-1] < n)],
        ids=["one-pass", "all-settled-at-the-first-check", "open-to-the-last-pass"])
    def test_the_stream_is_consumed_by_the_open_rows_in(self, final, passes, want_open):
        tree = dict(cards=[2, 3, 2], n_out=[2], n_class=3, n_rows=30, data_seed=3, seed=1)
        model, data = ensemble_model(tree, final)
        open_rows = self.check_stream(model, data, passes, seed=4)
        assert want_open(data.n_rows, open_rows), open_rows

    @staticmethod
    def check_stream(model, data, passes, seed):
        """The generator ends one double past each node's draw for each open
        row of each walked pass: PCG64 takes one 64-bit word per double."""
        _, generator = predict_and_record(model, data, seed, passes)
        open_rows = reference_predict(model, data, seed, passes)[2]
        want = np.random.default_rng([seed, _STREAM_PREDICT])
        want.bit_generator.advance(sum(open_rows) * len(model.topology.slots))
        assert generator.bit_generator.state == want.bit_generator.state
        return open_rows

    @pytest.mark.parametrize("n", [0, 1, 2, 7, 4000, 25 * 46 * 400])
    def test_advance_skips_as_many_draws_on_the_predict_stream(self, n):
        """``check_stream``'s premise: advancing the predict stream by n is
        drawing n doubles from it, in any number of calls."""
        drawn = np.random.default_rng([5, _STREAM_PREDICT])
        for size in (n // 3, n - n // 3):
            drawn.random(size)
        skipped = np.random.default_rng([5, _STREAM_PREDICT])
        skipped.bit_generator.advance(n)
        assert skipped.bit_generator.state == drawn.bit_generator.state
        assert np.array_equal(skipped.random(9), drawn.random(9))


def predict_and_record(model, data, seed, passes):
    """The ensemble labels and the generator every sample call drew from."""
    from dinet import network

    generators = []
    sample = network.sample_channel

    def recording_sample(thresholds, rng):
        generators.append(rng)
        return sample(thresholds, rng)

    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(network, "sample_channel", recording_sample)
        got = predict_quantized(model, data, seed=seed, mode="ensemble", repeats=passes)
    assert all(rng is generators[0] for rng in generators)
    return got, generators[-1]
