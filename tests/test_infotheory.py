import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from dinet import ConditionalMatrix, DiscreteDistribution, ValidationError
from dinet.infotheory import (
    VALIDATION_TOL,
    entropies,
    entropy,
    joint_mutual_information,
    mutual_information,
)


def dd(*p):
    return DiscreteDistribution(np.array(p, dtype=float))


class TestContainers:
    def test_distribution_rejects_negative(self):
        with pytest.raises(ValidationError):
            DiscreteDistribution([-0.1, 1.1])

    @pytest.mark.parametrize("probs", [[], [[0.5, 0.5]]], ids=["empty", "2-d"])
    def test_distribution_is_a_non_empty_vector(self, probs):
        with pytest.raises(ValidationError,
                           match="^distribution must be a non-empty 1-d vector$"):
            DiscreteDistribution(probs)

    def test_distribution_rejects_bad_sum(self):
        with pytest.raises(ValidationError):
            DiscreteDistribution([0.5, 0.6])

    def test_no_implicit_renormalization(self):
        with pytest.raises(ValidationError):
            DiscreteDistribution([1.0, 1.0])

    def test_conditional_rows_must_be_stochastic(self):
        with pytest.raises(ValidationError):
            ConditionalMatrix([[0.5, 0.4], [0.5, 0.5]])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_entries_rejected(self, bad):
        with pytest.raises(ValidationError, match="non-finite"):
            ConditionalMatrix([[bad, 1.0], [0.5, 0.5]])
        with pytest.raises(ValidationError, match="non-finite"):
            DiscreteDistribution([bad, 1.0])

    def test_immutability(self):
        d = dd(0.5, 0.5)
        with pytest.raises(ValueError):
            d.probs[0] = 0.9


# The containers' checks as they were written first, one pass per test; the
# containers must accept exactly what these accept and raise the same message.
def _check_entries(a: np.ndarray, what: str) -> None:
    # a NaN slips past both a sign test and a sum tolerance test
    if not np.isfinite(a).all():
        raise ValidationError(f"{what} has a non-finite entry")
    if np.any(a < 0):
        raise ValidationError(f"{what} has a negative entry")


def reference_distribution(p):
    _check_entries(p, "distribution")
    if abs(p.sum() - 1.0) > VALIDATION_TOL:
        raise ValidationError(f"distribution sums to {p.sum()!r}, not 1")


def reference_conditional(m):
    _check_entries(m, "conditional matrix")
    bad = np.abs(m.sum(axis=1) - 1.0) > VALIDATION_TOL
    if np.any(bad):
        raise ValidationError(f"rows {np.flatnonzero(bad).tolist()} do not sum to 1")


def verdict(check, a):
    try:
        check(a)
    except ValidationError as exc:
        return str(exc)
    return None


SPECIAL_ENTRIES = (np.nan, np.inf, -np.inf, -0.0, 0.0, -1e-300, -0.25)
ROW_SHIFTS = (0.0, 0.0, 2e-9, -2e-9, 1e-9, -1e-9, 0.5e-9)


@st.composite
def candidate_arrays(draw):
    """1-D or 2-D arrays of stochastic rows, some shifted by up to 2e-9, some entries special."""
    rows, cols = draw(st.integers(1, 5)), draw(st.integers(1, 6))
    weights = draw(hnp.arrays(np.float64, (rows, cols), elements=st.floats(0.0, 1.0)))
    sums = weights.sum(axis=1, keepdims=True)
    a = np.divide(weights, sums, out=np.full_like(weights, 1.0 / cols), where=sums > 0)
    a[:, 0] += draw(hnp.arrays(np.float64, rows, elements=st.sampled_from(ROW_SHIFTS)))
    special = draw(hnp.arrays(np.float64, a.shape, elements=st.sampled_from(SPECIAL_ENTRIES)))
    # about one entry in four is special
    where = draw(hnp.arrays(np.bool_, a.shape,
                            elements=st.sampled_from([True, False, False, False])))
    a = np.where(where, special, a)
    return a[0] if draw(st.booleans()) else a


class TestContainerChecks:
    @settings(max_examples=400, deadline=None)
    @given(candidate_arrays())
    # a NaN next to a negative entry still reads non-finite
    @example(np.array([-0.5, np.nan, 1.5]))
    @example(np.array([[0.5, 0.5], [-1.0, np.nan]]))
    def test_accept_exactly_what_the_reference_accepts(self, a):
        if a.ndim == 1:
            container, reference = DiscreteDistribution, reference_distribution
        else:
            container, reference = ConditionalMatrix, reference_conditional
        assert verdict(container, a) == verdict(reference, a)
        if np.isnan(a).any():
            assert "non-finite" in verdict(container, a)


class TestEntropy:
    def test_uniform_binary(self):
        assert entropy([0.5, 0.5]) == pytest.approx(1.0)

    def test_deterministic(self):
        assert entropy([1.0, 0.0]) == pytest.approx(0.0)
        assert repr(entropy([1.0, 0.0])) == "0.0"  # not -0.0

    def test_skewed(self):
        # -0.25*log2(0.25) - 0.75*log2(0.75)
        assert entropy([0.25, 0.75]) == pytest.approx(0.811278, abs=1e-6)

    def test_uniform_is_maximal(self):
        rng = np.random.default_rng(0)
        for n in (2, 3, 5, 8):
            h_max = entropy(np.full(n, 1.0 / n))
            assert h_max == pytest.approx(np.log2(n))
            for _ in range(20):
                h = entropy(rng.dirichlet(np.ones(n)))
                assert h <= h_max + 1e-12


@st.composite
def non_negative_vectors(draw):
    """A vector of 1-300 entries: a point mass, a distribution, or one with zeros."""
    n = draw(st.integers(1, 300))
    kind = draw(st.sampled_from(["point mass", "dense", "sparse", "counts"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "point mass":
        v = np.zeros(n)
        v[rng.integers(n)] = 1.0
    elif kind == "counts":  # a plug-in estimate, as mi_flow makes
        v = rng.integers(0, 4, n) / 200
    else:
        v = rng.dirichlet(np.full(n, 0.5))
        if kind == "sparse":
            v[rng.random(n) < 0.5] = 0.0
    return v


class TestEntropies:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(non_negative_vectors(), min_size=1, max_size=12))
    def test_each_segment_is_entropy_bit_for_bit(self, vectors):
        got = entropies(np.concatenate(vectors), [v.size for v in vectors]).tolist()
        want = [entropy(v) for v in vectors]
        assert got == want
        assert list(map(repr, got)) == list(map(repr, want))

    def test_segments_of_equal_length_and_empty_segments(self):
        p = np.array([0.5, 0.5, 1.0, 0.0, 0.25, 0.75, 0.0, 0.5, 0.5])
        got = entropies(p, [2, 0, 2, 2, 0, 3]).tolist()
        want = [entropy(p[:2]), entropy([]), entropy(p[2:4]), entropy(p[4:6]),
                entropy([]), entropy(p[6:])]
        assert list(map(repr, got)) == list(map(repr, want)) == [
            "1.0", "0.0", "0.0", repr(entropy([0.25, 0.75])), "0.0", "1.0"]


class TestMutualInformation:
    def test_independence(self):
        px = np.array([0.3, 0.7])
        cond = np.array([[0.2, 0.8], [0.2, 0.8]])
        assert mutual_information(px, cond) == pytest.approx(0.0, abs=1e-12)

    def test_perfect_copy(self):
        px = np.array([0.5, 0.5])
        assert mutual_information(px, np.eye(2)) == pytest.approx(1.0)

    def test_no_information_never_reads_below_zero(self):
        """Identical rows under a uniform source: +0.0 wherever the sum reads <= 0."""
        zeroed = 0
        for n in range(1, 59):
            for n_class in (2, 3):
                px = np.full(n, 1 / n)
                cond = np.full((n, n_class), 1 / n_class)
                terms = cond * np.log2(cond / (px @ cond)[None, :])
                raw = float(px @ terms.sum(axis=1))
                mi = mutual_information(px, cond)
                assert mi == (0.0 if raw <= 0 else raw), (n, n_class)
                assert np.copysign(1.0, mi) == 1.0, (n, n_class)
                zeroed += raw < 0
        # the unclamped sum reads below 0 on many of these inputs
        assert zeroed >= 10

    def test_binary_symmetric_channel(self):
        px = np.array([0.5, 0.5])
        bsc = np.array([[0.89, 0.11], [0.11, 0.89]])
        assert mutual_information(px, bsc) == pytest.approx(0.500, abs=1e-3)

    def test_matches_joint_formulation(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            n, m = int(rng.integers(2, 6)), int(rng.integers(2, 6))
            px = rng.dirichlet(np.ones(n))
            cond = rng.dirichlet(np.ones(m), size=n)
            via_cond = mutual_information(px, cond)
            via_joint = joint_mutual_information(px[:, None] * cond)
            assert via_cond == pytest.approx(via_joint, abs=1e-9)


class TestJointMI:
    def test_product_of_fair_coins(self):
        assert joint_mutual_information(np.full((2, 2), 0.25)) == pytest.approx(0.0, abs=1e-12)

    def test_diagonal(self):
        assert joint_mutual_information(np.array([[0.5, 0.0], [0.0, 0.5]])) == pytest.approx(1.0)

    def test_from_toy_counts_matches_entropy_identity(self):
        # four samples: (0,0), (0,1), (1,1), (1,1)
        counts = np.array([[1.0, 1.0], [0.0, 2.0]])
        j = counts / counts.sum()
        pa = j.sum(axis=1)
        pb = j.sum(axis=0)
        direct = entropy(pa) + entropy(pb) - entropy(j.ravel())
        assert joint_mutual_information(j) == pytest.approx(direct, abs=1e-12)

    def test_symmetry(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            j = rng.dirichlet(np.ones(12)).reshape(3, 4)
            a = joint_mutual_information(j)
            b = joint_mutual_information(j.T)
            assert a == pytest.approx(b, abs=1e-12)


class TestPermutationInvariance:
    def test_all_quantities(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            n, m = int(rng.integers(2, 6)), int(rng.integers(2, 6))
            px = rng.dirichlet(np.ones(n))
            cond = rng.dirichlet(np.ones(m), size=n)
            perm_n = rng.permutation(n)
            perm_m = rng.permutation(m)
            assert entropy(px) == pytest.approx(entropy(px[perm_n]), abs=1e-12)
            a = mutual_information(px, cond)
            b = mutual_information(px[perm_n], cond[perm_n][:, perm_m])
            assert a == pytest.approx(b, abs=1e-12)
