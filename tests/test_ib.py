import math
import re
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dinet import (
    ConditionalMatrix,
    DiscreteDistribution,
    IBDiagnostics,
    IBProblem,
    ValidationError,
    estimate_empirical,
    ib_step,
    lagrangian,
    posteriors,
    solve_ib,
)
from dinet.ib import DEFAULT_MAX_ITER, DEFAULT_TOL, layer_problems
from dinet.infotheory import entropy, joint_mutual_information, mutual_information
from tests.test_infotheory import reference_mutual_information


def random_problem(rng, beta=5.0, n_in=None, n_class=None, n_out=None):
    n_in = n_in or int(rng.integers(2, 17))
    n_class = n_class or int(rng.integers(2, 5))
    n_out = n_out or int(rng.integers(2, min(n_in, 6) + 1))
    return IBProblem(
        px=DiscreteDistribution(rng.dirichlet(np.ones(n_in))),
        py_given_x=ConditionalMatrix(rng.dirichlet(np.ones(n_class), size=n_in)),
        beta=beta,
        n_out=n_out,
    )


def empirical_problem(rng, n_in, n_rows, n_class, beta, n_out, concentration=0.5):
    """A node problem as training builds one: frequencies of drawn (symbol, label) rows.

    Each symbol has its own class distribution, Dirichlet with the given
    concentration; a small one makes the label nearly a function of the
    symbol.  With few rows per symbol, some symbols go unseen (zero-mass
    rows) and many seen ones have a class posterior of exactly 0 or 1.
    """
    w = rng.dirichlet(np.full(n_class, concentration), size=n_in)
    x = rng.integers(0, n_in, n_rows)
    y = np.minimum((rng.random(n_rows)[:, None] > w[x].cumsum(axis=1)).sum(axis=1), n_class - 1)
    px, py_x = estimate_empirical(x, y, n_in, n_class)
    return IBProblem(px=px, py_given_x=py_x, beta=beta, n_out=n_out)


CLUSTER_PROBLEM = IBProblem(
    px=DiscreteDistribution([0.25] * 4),
    py_given_x=ConditionalMatrix([[1, 0], [1, 0], [0, 1], [0, 1]]),
    beta=5.0,
    n_out=2,
)


class TestEstimateEmpirical:
    def test_identity_counts(self):
        px, pyx = estimate_empirical([0, 0, 1, 1], [0, 0, 1, 1], 2, 2)
        assert np.allclose(px.probs, [0.5, 0.5])
        assert np.allclose(pyx.p, np.eye(2))

    def test_single_symbol(self):
        px, pyx = estimate_empirical([0, 0, 0, 0], [0, 1, 0, 1], 2, 2)
        assert px.probs[0] == 1.0
        assert np.allclose(pyx.p[0], [0.5, 0.5])

    def test_unseen_symbol_gets_class_prior(self):
        px, pyx = estimate_empirical([0, 1], [1, 0], 3, 2)
        assert px.probs[2] == 0.0
        assert np.allclose(pyx.p[2], [0.5, 0.5])

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            estimate_empirical([], [], 2, 2)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValidationError):
            estimate_empirical([0, 2], [0, 0], 2, 2)
        with pytest.raises(ValidationError):
            estimate_empirical([0, 1], [0, 5], 2, 2)

    def test_unequal_lengths_rejected(self):
        with pytest.raises(ValidationError,
                           match="^x_symbols and y_labels must be equal-length vectors$"):
            estimate_empirical([0, 1, 1], [0, 1], 2, 2)


def reference_estimate(x, y, n_in, n_class):
    """P(in) and P(y|in) of one node by the plain formulas; unseen symbols get the class prior."""
    counts_xy = np.bincount(x * n_class + y, minlength=n_in * n_class)
    counts_xy = counts_xy.reshape(n_in, n_class).astype(np.float64)
    counts_x = counts_xy.sum(axis=1)
    prior = counts_xy.sum(axis=0) / y.size
    py_x = np.where(counts_x[:, None] > 0,
                    counts_xy / np.maximum(counts_x[:, None], 1.0),
                    prior[None, :])
    return counts_x / x.size, py_x


@st.composite
def layers(draw):
    """A layer's (K, N) inputs, labels, alphabets and class count.

    Node k draws its symbols uniformly from the first ``seen`` of them, so
    with few rows many go unseen; a node with a reserved symbol has one more
    symbol, never drawn, as the missing-value symbol is on complete rows.
    """
    k, n_rows, n_class = draw(st.integers(1, 24)), draw(st.integers(1, 400)), draw(
        st.integers(2, 3))
    reserved = draw(st.lists(st.booleans(), min_size=k, max_size=k))
    seen = [draw(st.integers(1, 320 - r)) for r in reserved]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    inputs = np.array([rng.integers(0, s, n_rows) for s in seen])
    labels = rng.integers(0, n_class, n_rows)
    return inputs, labels, [s + r for s, r in zip(seen, reserved)], n_class


class TestLayerProblems:
    @settings(max_examples=200, deadline=None)
    @given(layers())
    @example((np.array([[0, 0, 1], [2, 0, 0]]), np.array([0, 1, 1]), [3, 320], 2))
    @example((np.zeros((24, 1), np.int64), np.array([2]), [1, 2] * 12, 3))
    def test_every_node_is_its_own_estimate_bit_for_bit(self, layer):
        """The layer's one count and array passes give each node what the plain
        one-node formulas give, and what ``estimate_empirical`` and a problem
        built on its own give."""
        inputs, labels, n_in, n_class = layer
        problems = layer_problems(inputs, labels, n_in, n_class, beta=5.0, n_out=2)
        assert len(problems) == len(n_in)
        for x, n, problem in zip(inputs, n_in, problems):
            px, py_x = reference_estimate(x, labels, n, n_class)
            prior = px @ py_x
            plogp = np.where(py_x > 0, py_x * np.log2(np.where(py_x > 0, py_x, 1.0)), 0.0)
            src = problem._source
            assert np.array_equal(problem.px.probs, px)
            assert np.array_equal(problem.py_given_x.p, py_x)
            assert (problem.beta, problem.n_out) == (5.0, 2)
            assert np.array_equal(src.px, px) and np.array_equal(src.py_x, py_x)
            assert np.array_equal(src.prior, prior)
            assert np.array_equal(src.plogp, plogp.sum(axis=1)[:, None])
            assert np.array_equal(src.zero_mass, px[:, None] == 0)
            assert src.any_zero_mass is bool((px == 0).any())
            assert src.h_in == entropy(px) and src.h_y == entropy(prior)
            assert src.mi_in_y == mutual_information(px, py_x) == reference_mutual_information(px, py_x)
            alone = IBProblem(*estimate_empirical(x, labels, n, n_class), beta=5.0, n_out=2)
            for got, want in zip(src, alone._source):
                assert np.array_equal(got, want)

    def test_a_reserved_symbol_has_zero_mass_and_the_class_prior(self):
        inputs = np.array([[0, 1, 1, 0], [1, 1, 1, 1]])
        labels = np.array([0, 1, 1, 1])
        problems = layer_problems(inputs, labels, [3, 2], 2, beta=5.0, n_out=2)
        assert [p.px.probs.tolist() for p in problems] == [[0.5, 0.5, 0.0], [0.0, 1.0]]
        assert problems[0].py_given_x.p[2].tolist() == [0.25, 0.75]
        assert problems[1].py_given_x.p[0].tolist() == [0.25, 0.75]
        assert [p._source.any_zero_mass for p in problems] == [True, True]

    def test_the_layer_is_frozen_and_checked(self):
        problems = layer_problems(np.array([[0, 1], [1, 1]]), np.array([0, 1]), [2, 2], 2,
                                  beta=5.0, n_out=2)
        with pytest.raises(ValueError):
            problems[1].px.probs[0] = 0.5
        with pytest.raises(ValueError):
            problems[0].py_given_x.p[0, 0] = 0.5

    @pytest.mark.parametrize("inputs, labels, message", [
        ([[0, 2], [0, 1]], [0, 1], "input symbols outside [0, 2)"),
        ([[0, 1], [0, 3]], [0, 1], "input symbols outside [0, 3)"),
        ([[0, -1], [0, 1]], [0, 1], "input symbols outside [0, 2)"),
        ([[0, 1], [0, 1]], [0, 2], "labels outside [0, 2)"),
        (np.zeros((2, 0), np.int64), np.zeros(0, np.int64), "empty training vectors"),
        ([[0, 1], [0, 1]], [0, 1, 1], "inputs must be a (K, N) array for N labels"),
        ([0, 1], [0, 1], "inputs must be a (K, N) array for N labels"),
    ])
    def test_refuses(self, inputs, labels, message):
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            layer_problems(inputs, labels, [2, 3], 2, beta=5.0, n_out=2)

    def test_refuses_bad_knobs_as_a_problem_does(self):
        with pytest.raises(ValidationError, match="^beta must be positive, got 0.0$"):
            layer_problems([[0, 1]], [0, 1], [2], 2, beta=0.0, n_out=2)


class TestProblem:
    @pytest.mark.parametrize("change, message", [
        (dict(beta=0.0), "beta must be positive, got 0.0"),
        (dict(beta=float("nan")), "beta must be positive, got nan"),
        (dict(n_out=0), "n_out must be >= 1, got 0"),
        (dict(px=DiscreteDistribution([0.5, 0.25, 0.25])),
         "py_given_x has 2 rows for 3 input symbols"),
    ], ids=["beta-zero", "beta-nan", "n_out-zero", "rows"])
    def test_refuses(self, change, message):
        fields = dict(px=DiscreteDistribution([0.5, 0.5]),
                      py_given_x=ConditionalMatrix(np.eye(2)), beta=5.0, n_out=2)
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            IBProblem(**{**fields, **change})


class TestIBStep:
    def test_small_beta_collapses_to_marginal(self):
        # with a vanishing trade-off weight the update pulls every row
        # toward the current output marginal
        rng = np.random.default_rng(0)
        prob = random_problem(rng, beta=1e-9)
        chan = ConditionalMatrix(rng.dirichlet(np.ones(prob.n_out), size=prob.n_in))
        p_out = prob.px.probs @ chan.p
        stepped = ib_step(prob, chan)
        assert np.allclose(stepped.p, np.tile(p_out, (prob.n_in, 1)), atol=1e-6)
        # at that fixed point the copy carries no information
        fixed = stepped
        for _ in range(5):
            fixed = ib_step(prob, fixed)
        assert mutual_information(prob.px.probs, fixed.p) == pytest.approx(0.0, abs=1e-9)

    def test_converged_channel_is_fixed_point(self):
        sol = solve_ib(CLUSTER_PROBLEM, tol=1e-12, max_iter=2000, seed=1)
        again = ib_step(CLUSTER_PROBLEM, sol.channel)
        assert np.abs(again.p - sol.channel.p).max() < 1e-8

    def test_single_output_column(self):
        rng = np.random.default_rng(2)
        prob = random_problem(rng, beta=7.0, n_out=1)
        chan = ConditionalMatrix(np.ones((prob.n_in, 1)))
        assert np.array_equal(ib_step(prob, chan).p, chan.p)

    def test_rows_stay_stochastic(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            prob = random_problem(rng, beta=float(rng.choice([0.1, 1, 5, 20])))
            chan = ConditionalMatrix(rng.dirichlet(np.ones(prob.n_out), size=prob.n_in))
            out = ib_step(prob, chan)
            assert np.abs(out.p.sum(axis=1) - 1).max() < 1e-9

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError):
            ib_step(CLUSTER_PROBLEM, ConditionalMatrix(np.eye(3)))

    @pytest.mark.parametrize("of_channel", [lagrangian, posteriors])
    def test_channel_of_the_wrong_shape_refused(self, of_channel):
        n_in, n_out = CLUSTER_PROBLEM.n_in, CLUSTER_PROBLEM.n_out
        for rows, cols in ((n_in + 1, n_out), (n_in, n_out + 1)):
            with pytest.raises(ValidationError, match=f"expected {n_in}x{n_out}"):
                of_channel(CLUSTER_PROBLEM, ConditionalMatrix(np.full((rows, cols), 1 / cols)))


class TestSolveIB:
    def test_clean_clusters_keep_relevance(self):
        sol = solve_ib(CLUSTER_PROBLEM, seed=0)
        i_y_in = mutual_information(CLUSTER_PROBLEM.px.probs, CLUSTER_PROBLEM.py_given_x.p)
        assert sol.diagnostics.i_y_out == pytest.approx(i_y_in, abs=1e-3)
        # near-deterministic cluster assignment: both symbols of a cluster share a column
        hard = sol.channel.p.argmax(axis=1)
        assert hard[0] == hard[1] and hard[2] == hard[3] and hard[0] != hard[2]
        assert sol.channel.p.max(axis=1).min() > 0.99

    def test_tiny_beta_compresses_away(self):
        prob = IBProblem(px=CLUSTER_PROBLEM.px, py_given_x=CLUSTER_PROBLEM.py_given_x,
                         beta=0.001, n_out=2)
        sol = solve_ib(prob, seed=0)
        assert sol.diagnostics.i_in_out < 0.01

    def test_enough_outputs_capture_all_relevance(self):
        rng = np.random.default_rng(4)
        for _ in range(5):
            n_in, n_class = 8, 2
            # two well-separated posterior rows -> n_out = n_class suffices
            # at large beta (near-identical rows sit below the critical beta
            # and correctly collapse instead)
            a = rng.uniform(0.75, 0.95)
            b = rng.uniform(0.05, 0.25)
            rows = np.array([[a, 1 - a], [b, 1 - b]])
            assign = rng.integers(0, 2, n_in)
            prob = IBProblem(
                px=DiscreteDistribution(rng.dirichlet(np.ones(n_in))),
                py_given_x=ConditionalMatrix(rows[assign]),
                beta=50.0,
                n_out=n_class,
            )
            sol = solve_ib(prob, seed=5)
            target = mutual_information(prob.px.probs, prob.py_given_x.p)
            assert sol.diagnostics.i_y_out == pytest.approx(target, abs=1e-3)

    def test_consistency_of_solution_fields(self):
        rng = np.random.default_rng(5)
        for t in range(10):
            prob = random_problem(rng)
            sol = solve_ib(prob, seed=t)
            p_out, py_out = posteriors(prob, sol.channel)
            assert np.allclose(prob.px.probs @ sol.channel.p, p_out.probs, atol=1e-8)
            # posterior rows consistent with Bayes on the returned channel
            joint = (sol.channel.p * prob.px.probs[:, None]).T @ prob.py_given_x.p
            expect = joint / np.maximum(p_out.probs[:, None], 1e-300)
            seen = p_out.probs > 0
            assert np.abs(py_out.p[seen] - expect[seen]).max() < 1e-8
            assert sol.diagnostics.mi_in_y == mutual_information(prob.px.probs,
                                                                 prob.py_given_x.p)

    def test_deterministic_same_seed(self):
        rng = np.random.default_rng(6)
        prob = random_problem(rng)
        a = solve_ib(prob, seed=9)
        b = solve_ib(prob, seed=9)
        assert np.array_equal(a.channel.p, b.channel.p)
        assert a.diagnostics == b.diagnostics

    def test_zero_mass_rows_pinned_to_marginal(self):
        px, pyx = estimate_empirical([0, 1], [1, 0], 3, 2)
        prob = IBProblem(px=px, py_given_x=pyx, beta=5.0, n_out=2)
        sol = solve_ib(prob, seed=0)
        assert np.allclose(sol.channel.p[2], posteriors(prob, sol.channel)[0].probs, atol=1e-8)

    def test_keep_input_embeds_identity(self):
        rng = np.random.default_rng(11)
        prob = random_problem(rng, n_in=3, n_out=5)
        sol = solve_ib(prob, seed=0, keep_input=True)
        assert np.array_equal(sol.channel.p, np.eye(3, 5))
        assert (sol.diagnostics.iterations, sol.diagnostics.converged) == (0, True)
        p_out, py_out = posteriors(prob, sol.channel)
        assert np.array_equal(p_out.probs[:3], prob.px.probs)
        assert np.array_equal(p_out.probs[3:], np.zeros(2))
        assert np.allclose(py_out.p[:3], prob.py_given_x.p, atol=1e-12)
        assert sol.diagnostics.i_in_out == pytest.approx(entropy(prob.px.probs))
        assert sol.diagnostics.i_y_out == pytest.approx(
            mutual_information(prob.px.probs, prob.py_given_x.p))

    def test_keep_input_without_room_changes_nothing(self):
        rng = np.random.default_rng(12)
        for t in range(10):
            n_in = int(rng.integers(3, 17))
            prob = random_problem(rng, n_in=n_in,
                                  n_out=int(rng.integers(2, min(n_in - 1, 6) + 1)))
            kept = solve_ib(prob, seed=t, keep_input=True)
            plain = solve_ib(prob, seed=t)
            assert np.array_equal(kept.channel.p, plain.channel.p)
            assert kept.diagnostics == plain.diagnostics

    def test_small_alphabet_still_compressed_by_default(self):
        # a feature irrelevant on its own (one half of an xor) collapses
        px, pyx = estimate_empirical([0, 0, 1, 1], [0, 1, 0, 1], 2, 2)
        sol = solve_ib(IBProblem(px=px, py_given_x=pyx, beta=10.0, n_out=2), seed=0)
        assert sol.diagnostics.iterations >= 1
        assert sol.diagnostics.i_in_out < 1e-6
        rng = np.random.default_rng(13)
        for t in range(5):
            prob = random_problem(rng, n_in=4, n_out=4)
            assert solve_ib(prob, seed=t).diagnostics.iterations >= 1

    def test_collapsed_channel_never_reads_below_zero(self):
        """Identical rows under a uniform source carry no information.

        Rounding reads such an information a few ulps off 0, either way; the
        diagnostics keep a positive reading and store any other as +0.0.
        """
        zeroed = 0
        for n_in in range(1, 59):
            for n_out in (1, 2, 3):
                n_class = 2 + n_in % 2
                prob = IBProblem(px=DiscreteDistribution(np.full(n_in, 1 / n_in)),
                                 py_given_x=ConditionalMatrix(np.full((n_in, n_class),
                                                                      1 / n_class)),
                                 beta=5.0, n_out=n_out)
                sol = solve_ib(prob, seed=n_in)
                assert (sol.channel.p == sol.channel.p[0]).all()
                with np.errstate(**_QUIET):  # the reference formula, below
                    raw = _information(_source(prob), sol.channel.p)
                got = (sol.diagnostics.i_in_out, sol.diagnostics.i_y_out)
                assert got == tuple(0.0 if v <= 0 else v for v in raw), (n_in, n_out)
                assert all(math.copysign(1.0, v) == 1.0 for v in got), (n_in, n_out)
                zeroed += sum(v < 0 for v in raw)
        # the unclamped formula reads below 0 on many of these channels
        assert zeroed >= 10

    @pytest.mark.parametrize("knobs, message", [
        (dict(tol=0.0), "tol must be positive, got 0.0"),
        (dict(tol=-1e-8), "tol must be positive, got -1e-08"),
        (dict(max_iter=0), "max_iter must be >= 1, got 0"),
    ])
    def test_stopping_rule_checked(self, knobs, message):
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            solve_ib(CLUSTER_PROBLEM, **knobs)

    def test_nonconvergence_is_reported_not_raised(self):
        rng = np.random.default_rng(7)
        prob = random_problem(rng)
        sol = solve_ib(prob, tol=1e-16, max_iter=3, seed=0)
        assert sol.diagnostics.converged is False
        assert sol.diagnostics.iterations == 3


class TestLagrangian:
    def test_identical_rows_score_zero(self):
        prob = CLUSTER_PROBLEM
        chan = ConditionalMatrix(np.tile([0.4, 0.6], (4, 1)))
        assert lagrangian(prob, chan) == pytest.approx(0.0, abs=1e-12)

    def test_identity_hand_value(self):
        prob = IBProblem(
            px=DiscreteDistribution([0.5, 0.5]),
            py_given_x=ConditionalMatrix(np.eye(2)),
            beta=5.0,
            n_out=2,
        )
        assert lagrangian(prob, ConditionalMatrix(np.eye(2))) == pytest.approx(-4.0)

    def test_matches_the_information_kernels(self):
        # the solver's single-pass objective against the plain definition,
        # on channels with exact zeros and on sources with zero-mass symbols
        rng = np.random.default_rng(15)
        for t in range(20):
            prob = random_problem(rng, beta=float(rng.choice([0.1, 5.0, 20.0])))
            if t % 2:
                px = prob.px.probs.copy()
                px[rng.integers(prob.n_in)] = 0.0
                prob = IBProblem(DiscreteDistribution(px / px.sum()), prob.py_given_x,
                                 prob.beta, prob.n_out)
            chan = rng.dirichlet(np.ones(prob.n_out), size=prob.n_in)
            chan[chan < 0.1] = 0.0
            chan[chan.sum(axis=1) == 0, 0] = 1.0
            chan /= chan.sum(axis=1, keepdims=True)
            px, pyx = prob.px.probs, prob.py_given_x.p
            expect = (mutual_information(px, chan)
                      - prob.beta * joint_mutual_information((chan * px[:, None]).T @ pyx))
            assert lagrangian(prob, ConditionalMatrix(chan)) == pytest.approx(expect, abs=1e-12)

    def test_replayed_ib_step_matches_solve_ib(self):
        # replay plain sweeps with the public ib_step from the solver's seeded
        # start: the objective never rises, and the accelerated solver ends
        # no higher than the plain iteration does
        rng = np.random.default_rng(8)
        for t in range(10):
            prob = random_problem(rng, beta=5.0)
            sol = solve_ib(prob, seed=t)
            trace, _ = plain_sweeps(prob, seed=t)
            assert np.all(np.diff(trace) <= 1e-9)
            assert lagrangian(prob, sol.channel) <= trace[-1] + 1e-9


def plain_sweeps(prob, seed, tol=DEFAULT_TOL, max_iter=DEFAULT_MAX_ITER):
    """The unaccelerated iteration from the solver's seeded start.

    Returns the Lagrangian after each sweep, and whether the last sweep
    moved the channel by less than ``tol``.
    """
    w = np.random.default_rng(seed).random((prob.n_in, prob.n_out)) + 1e-12
    chan = ConditionalMatrix(w / w.sum(axis=1, keepdims=True))
    trace = []
    for _ in range(max_iter):
        new = ib_step(prob, chan)
        trace.append(lagrangian(prob, new))
        delta = np.abs(new.p - chan.p).max()
        chan = new
        if delta < tol:
            return trace, True
    return trace, False


# A layer-0 node of a smoke-config run (9 input symbols, 2 classes, 200 rows):
# (count of class 0, count of class 1) per input symbol, and the node's seed.
# Plain sweeps creep towards its fixed point and stop at 500 unconverged.
SLOW_NODE_COUNTS = [[4, 14], [1, 4], [14, 5], [12, 21], [4, 2],
                    [22, 11], [14, 33], [1, 4], [28, 6]]
SLOW_NODE_SEED = 17378313634350461338


class TestAcceleration:
    def test_slow_node_converges_well_inside_the_cap(self):
        counts = np.array(SLOW_NODE_COUNTS)
        x = np.repeat(np.arange(counts.size) // 2, counts.ravel())
        y = np.repeat(np.arange(counts.size) % 2, counts.ravel())
        px, pyx = estimate_empirical(x, y, n_in=9, n_class=2)
        prob = IBProblem(px=px, py_given_x=pyx, beta=5.0, n_out=3)
        trace, plain_converged = plain_sweeps(prob, SLOW_NODE_SEED)
        assert (len(trace), plain_converged) == (DEFAULT_MAX_ITER, False)
        sol = solve_ib(prob, seed=SLOW_NODE_SEED)
        assert sol.diagnostics.converged
        assert sol.diagnostics.iterations < DEFAULT_MAX_ITER // 2
        assert lagrangian(prob, sol.channel) <= trace[-1] + 1e-12

    def test_one_evaluation_cap(self):
        prob = random_problem(np.random.default_rng(14))
        a = solve_ib(prob, max_iter=1, seed=3)
        b = solve_ib(prob, max_iter=1, seed=3)
        assert (a.diagnostics.iterations, a.diagnostics.converged) == (1, False)
        assert np.array_equal(a.channel.p, b.channel.p)
        assert a.diagnostics == b.diagnostics


class TestSolverInvariants:
    def test_random_problem_battery(self):
        rng = np.random.default_rng(9)
        betas = [0.1, 1.0, 5.0, 20.0]
        problems = [random_problem(rng, beta=betas[t % 4]) for t in range(30)]
        # finebin-shaped layer-0 nodes: a bin per distinct value, n_out=2, and
        # about 200 training rows, so about half of the symbols are unseen
        problems += [empirical_problem(rng, n_in=int(rng.integers(200, 321)), n_rows=200,
                                       n_class=2, beta=betas[t % 4], n_out=2)
                     for t in range(8)]
        assert sum((p.px.probs == 0).mean() > 0.3 for p in problems[30:]) >= 6
        for t, prob in enumerate(problems):
            sol = solve_ib(prob, seed=t)
            chan = sol.channel.p
            assert np.abs(chan.sum(axis=1) - 1).max() < 1e-9
            # relevance cannot exceed what the input carries
            i_y_in = mutual_information(prob.px.probs, prob.py_given_x.p)
            assert sol.diagnostics.i_y_out <= i_y_in + 1e-9
            # compression cannot exceed either alphabet's capacity
            cap = min(entropy(prob.px.probs), np.log2(prob.n_out))
            assert sol.diagnostics.i_in_out <= cap + 1e-9
            if sol.diagnostics.converged:
                resid = np.abs(ib_step(prob, sol.channel).p - chan).max()
                assert resid < 10 * 1e-8


# ---------------------------------------------------------------------------
# The solver's cycle as it was written before its numpy calls were cut down,
# kept verbatim as the reference that ``solve_ib`` must match bit for bit.

class _Source(NamedTuple):
    """The per-problem constants of the update, computed once per solve."""

    px: np.ndarray
    py_x: np.ndarray
    prior: np.ndarray        # class prior P(y)
    plogp: np.ndarray        # column of row sums  sum_y p(y|i) log2 p(y|i)
    zero_mass: np.ndarray    # rows with px == 0
    any_zero_mass: bool
    h_in: float              # H(in)
    h_y: float               # H(y)


def _source(problem: IBProblem) -> _Source:
    px, py_x = problem.px.probs, problem.py_given_x.p
    plogp = np.where(py_x > 0, py_x * np.log2(np.where(py_x > 0, py_x, 1.0)), 0.0)
    zero_mass = px == 0
    prior = px @ py_x
    return _Source(px, py_x, prior, plogp.sum(axis=1)[:, None],
                   zero_mass, bool(zero_mass.any()), entropy(px), entropy(prior))


# Every update runs under this: dead outputs divide 0 by 0, and exp2 underflows.
_QUIET = {"invalid": "ignore", "divide": "ignore", "under": "ignore"}


def _posteriors(src: _Source, channel):
    """Output marginal and class posterior induced by a channel.

    Outputs with zero marginal get the global class prior as posterior;
    the update gives them zero weight anyway.
    """
    p_out = src.px @ channel
    joint_out_in = (src.px[:, None] * channel).T        # p(out, in)
    py_out = (joint_out_in / p_out[:, None]) @ src.py_x
    if not p_out.min() > 0:
        py_out[p_out == 0] = src.prior
    return p_out, py_out


_NEG_HUGE = -1e300  # finite stand-in for log2(0): keeps 0*log terms at 0, not nan


def _step(src: _Source, beta, channel):
    """One self-consistent update; the errors of ``_QUIET`` must be ignored."""
    p_out, py_out = _posteriors(src, channel)
    if py_out.min() > 0:
        log_q = np.log2(py_out)
    else:
        log_q = np.where(py_out > 0, np.log2(np.where(py_out > 0, py_out, 1.0)), _NEG_HUGE)
    # d(i, j) = KL(P(y|in=i) || P(y|out=j)) in bits; support gaps become huge
    d = src.plogp - src.py_x @ log_q.T
    # cap at 0: float error can push d a hair below zero.  No lower cap is
    # needed: exp2 of anything below -1075 is exactly 0.
    new = p_out * np.exp2(np.minimum(-beta * d, 0.0))
    sums = new.sum(axis=1)
    if not sums.min() > 0:
        # whole row underflowed: hard-assign the least-distorted output
        dead = sums <= 0
        new[dead] = 0.0
        new[dead, np.argmin(d[dead], axis=1)] = 1.0
        sums[dead] = 1.0
    new /= sums[:, None]
    if src.any_zero_mass:
        new[src.zero_mass] = p_out
    return new


def _plogp(a) -> float:
    """sum a*log2(a) over the positive entries of ``a``."""
    nz = a[a > 0]
    return float(nz @ np.log2(nz))


def _information(src: _Source, channel):
    """I(in;out) and I(y;out) of a channel, in bits, from one joint P(in, out)."""
    joint = src.px[:, None] * channel
    p_out = joint.sum(axis=0)
    h_out = -_plogp(p_out)
    i_in_out = src.h_in + h_out + _plogp(joint)
    i_y_out = src.h_y + h_out + _plogp(joint.T @ src.py_x)
    return i_in_out, i_y_out


def _lagrangian(src: _Source, beta, channel) -> float:
    i_in_out, i_y_out = _information(src, channel)
    return i_in_out - beta * i_y_out


def _init_channel(n_in, n_out, rng):
    w = rng.random((n_in, n_out)) + 1e-12
    return w / w.sum(axis=1, keepdims=True)


def _project(proposal, fallback, src: _Source):
    """The proposal clipped at 0 with rows renormalised; zero-mass rows from ``fallback``."""
    x = np.maximum(proposal, 0.0)
    x /= x.sum(axis=1, keepdims=True)
    if src.any_zero_mass:
        x[src.zero_mass] = fallback[src.zero_mass]
    return x


def _squarem(src: _Source, beta, channel, tol, max_iter):
    """Accelerated fixed-point iteration: (channel, update evaluations, converged).

    Converged means a plain update moved its argument by less than ``tol``
    (max-abs); the channel returned is that update's result.
    """
    def update(x):
        nonlocal evaluations
        evaluations += 1
        new = _step(src, beta, x)
        return new, bool(np.abs(new - x).max() < tol)

    evaluations = 0
    x0 = channel
    while True:
        x1, done = update(x0)
        if done or evaluations == max_iter:
            return x1, evaluations, done
        x2, done = update(x1)
        if done or evaluations == max_iter:
            return x2, evaluations, done
        r = x1 - x0
        v = x2 - 2 * x1 + x0
        # v == 0 makes alpha -inf and the proposal NaN, refused just below
        alpha = min(-np.sqrt((r * r).sum() / (v * v).sum()), -1.0)
        proposal = _project(x0 - 2 * alpha * r + alpha * alpha * v, x2, src)
        if not np.isfinite(proposal).all():
            x0 = x2
            continue
        x3, done = update(proposal)
        if _lagrangian(src, beta, x3) <= _lagrangian(src, beta, x2):
            if done:
                return x3, evaluations, True
            x0 = x3
        else:
            x0 = x2
        if evaluations == max_iter:
            return x0, evaluations, False


def reference_solve(problem, tol, max_iter, seed):
    """``solve_ib`` (without ``keep_input``) on the reference cycle."""
    src = _source(problem)
    with np.errstate(**_QUIET):
        start = _init_channel(problem.n_in, problem.n_out, np.random.default_rng(seed))
        channel, iterations, converged = _squarem(src, problem.beta, start, tol, max_iter)
        p_out, py_out = _posteriors(src, channel)
        # the clamp solve_ib documents for its diagnostics: never below 0.0
        i_in_out, i_y_out = (0.0 if v <= 0 else v for v in _information(src, channel))
        stepped = _step(src, problem.beta, channel)
        objective = _lagrangian(src, problem.beta, channel)
    mi_in_y = mutual_information(problem.px.probs, problem.py_given_x.p)
    return (channel, p_out, py_out,
            IBDiagnostics(iterations, i_in_out, i_y_out, converged, mi_in_y), stepped, objective)


def reference_cases():
    """Training-like node problems of every shape the two configs give, and then some."""
    rng = np.random.default_rng(21)
    for t in range(64):
        n_in = int(rng.integers(200, 321)) if t % 4 == 3 else int(rng.integers(2, 13))
        n_class = int(rng.integers(2, 4))
        n_rows = int(rng.integers(n_in // 2 + 1, 3 * n_in + 20))
        beta = float(rng.choice([0.1, 0.5, 2.0, 5.0, 20.0, 50.0]))
        # every third node's label is nearly a function of its input, which
        # gives outputs of zero marginal and rows that underflow whole
        concentration = 0.01 if t % 3 == 2 else 0.5
        prob = empirical_problem(rng, n_in, n_rows, n_class, beta, n_out=1 + t % 4,
                                 concentration=concentration)
        max_iter = DEFAULT_MAX_ITER if t % 8 == 7 else 1 + t % 7
        yield prob, max_iter, 1000 + t


class TestReferenceCycle:
    def test_solve_ib_matches_the_reference_bit_for_bit(self):
        seen = {"zero_mass": 0, "certain_posterior": 0, "zero_channel_entry": 0,
                "converged": 0, "capped": 0, "wide": 0}
        caps = set()
        for prob, max_iter, seed in reference_cases():
            sol = solve_ib(prob, max_iter=max_iter, seed=seed)
            channel, p_out, py_out, diagnostics, stepped, objective = reference_solve(
                prob, DEFAULT_TOL, max_iter, seed)
            where = (prob.n_in, prob.n_class, prob.n_out, prob.beta, max_iter, seed)
            assert np.array_equal(sol.channel.p, channel), where
            got_p_out, got_py_out = posteriors(prob, sol.channel)
            assert np.array_equal(got_p_out.probs, p_out), where
            assert np.array_equal(got_py_out.p, py_out), where
            assert sol.diagnostics == diagnostics, where
            assert np.array_equal(ib_step(prob, sol.channel).p, stepped), where
            assert lagrangian(prob, sol.channel) == objective, where
            seen["zero_mass"] += bool((prob.px.probs == 0).any())
            seen["certain_posterior"] += bool(np.isin(prob.py_given_x.p, (0.0, 1.0)).any())
            seen["zero_channel_entry"] += bool((channel == 0).any())
            seen["converged"] += diagnostics.converged
            seen["capped"] += not diagnostics.converged
            seen["wide"] += prob.n_in >= 200
            caps.add(max_iter)
        # the cases reach every path the cycle has
        assert min(seen.values()) >= 3, seen
        assert caps == {*range(1, 8), DEFAULT_MAX_ITER}


class TestNonFiniteProposal:
    def test_a_refused_proposal_goes_on_from_x2_as_the_reference_does(self, monkeypatch):
        """Each solve's first projected proposal is made NaN, as a row of negative
        entries clipped to 0/0 would be; the cycle refuses it and goes on from x2."""
        from dinet import ib

        def nan_first(project, calls):
            def first_is_nan(proposal, fallback, src):
                x = project(proposal, fallback, src)
                if not calls:
                    x[0, 0] = np.nan
                calls.append(None)
                return x
            return first_is_nan

        project, reference_project = ib._project, _project
        refused = changed = 0
        for prob, max_iter, seed in reference_cases():
            plain = solve_ib(prob, max_iter=max_iter, seed=seed)
            calls, reference_calls = [], []
            monkeypatch.setattr(ib, "_project", nan_first(project, calls))
            monkeypatch.setitem(globals(), "_project", nan_first(reference_project,
                                                                 reference_calls))
            sol = solve_ib(prob, max_iter=max_iter, seed=seed)
            channel, _, _, diagnostics, _, _ = reference_solve(prob, DEFAULT_TOL, max_iter, seed)
            monkeypatch.undo()
            where = (prob.n_in, prob.n_class, prob.n_out, prob.beta, max_iter, seed)
            assert len(calls) == len(reference_calls), where
            assert np.array_equal(sol.channel.p, channel), where
            assert sol.diagnostics == diagnostics, where
            refused += bool(calls)
            changed += sol.diagnostics != plain.diagnostics
        # the refusal is reached, and it changes what many solves do
        assert refused >= 20 and changed >= 10, (refused, changed)


class TestLargeBeta:
    def test_overflowing_distortions_solve_without_a_warning(self, monkeypatch):
        """At a large beta the stand-in distortion times -beta overflows to -inf, silently."""
        import dataclasses
        import warnings

        from dinet import cli, ib, network
        from tests.conftest import REPO_ROOT

        recorded = []
        solve, weights = network.solve_ib, ib._weights

        def recording_solve(problem, **kwargs):
            recorded.append((problem, kwargs))
            return solve(problem, **kwargs)

        cfg = cli.apply_overrides(cli.load_config(REPO_ROOT / "configs" / "synthetic_smoke.json"),
                                  ["model.beta=1e9"])
        monkeypatch.setattr(network, "solve_ib", recording_solve)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            cli.run_single(cfg, cli.prepare_dataset(cfg), 0)
        monkeypatch.undo()

        overflowed = []

        def spying_weights(src, beta, p_out, log_q):
            new, sums, d = weights(src, beta, p_out, log_q)
            with np.errstate(over="ignore", invalid="ignore"):
                overflowed[-1] |= bool(np.any(np.isfinite(d) & np.isinf(d * -beta)))
            return new, sums, d

        monkeypatch.setattr(ib, "_weights", spying_weights)
        cases = []
        for problem, kwargs in recorded:
            overflowed.append(False)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                solve_ib(problem, **kwargs)
            if overflowed[-1]:
                cases.append((problem, kwargs))
        monkeypatch.undo()
        # the run reaches the overflow on several nodes
        assert len(cases) >= 3, len(cases)

        for problem, kwargs in cases[:6]:
            for beta in (1e9, 1e300):
                scaled = dataclasses.replace(problem, beta=beta)
                with warnings.catch_warnings():
                    warnings.simplefilter("error", RuntimeWarning)
                    sol = solve_ib(scaled, **kwargs)
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    quiet = solve_ib(scaled, **kwargs)
                assert np.array_equal(sol.channel.p, quiet.channel.p)
                assert sol.diagnostics == quiet.diagnostics
