import numpy as np
import pytest

from dinet import (
    ConditionalMatrix,
    DiscreteDistribution,
    JointDistribution,
    ValidationError,
    entropy,
    joint_mutual_information,
    kl_divergence,
    mutual_information,
)


def dd(*p):
    return DiscreteDistribution(np.array(p, dtype=float))


class TestContainers:
    def test_distribution_rejects_negative(self):
        with pytest.raises(ValidationError):
            DiscreteDistribution([-0.1, 1.1])

    def test_distribution_rejects_bad_sum(self):
        with pytest.raises(ValidationError):
            DiscreteDistribution([0.5, 0.6])

    def test_no_implicit_renormalization(self):
        with pytest.raises(ValidationError):
            DiscreteDistribution([1.0, 1.0])
        d = DiscreteDistribution.normalized([1.0, 1.0])
        assert np.allclose(d.probs, [0.5, 0.5])

    def test_conditional_rows_must_be_stochastic(self):
        with pytest.raises(ValidationError):
            ConditionalMatrix([[0.5, 0.4], [0.5, 0.5]])
        m = ConditionalMatrix.normalized([[2.0, 2.0], [1.0, 3.0]])
        assert np.allclose(m.p.sum(axis=1), 1.0)

    def test_joint_must_sum_to_one(self):
        with pytest.raises(ValidationError):
            JointDistribution([[0.5, 0.5], [0.5, 0.5]])
        j = JointDistribution.from_counts([[1, 1], [1, 1]])
        assert j.p.sum() == pytest.approx(1.0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_entries_rejected(self, bad):
        with pytest.raises(ValidationError, match="non-finite"):
            ConditionalMatrix([[bad, 1.0], [0.5, 0.5]])
        with pytest.raises(ValidationError, match="non-finite"):
            DiscreteDistribution([bad, 1.0])
        with pytest.raises(ValidationError, match="non-finite"):
            JointDistribution([[bad, 0.5], [0.25, 0.25]])

    def test_immutability(self):
        d = dd(0.5, 0.5)
        with pytest.raises(ValueError):
            d.probs[0] = 0.9


class TestEntropy:
    def test_uniform_binary(self):
        assert entropy(dd(0.5, 0.5)) == pytest.approx(1.0)

    def test_deterministic(self):
        assert entropy(dd(1.0, 0.0)) == pytest.approx(0.0)

    def test_skewed(self):
        # -0.25*log2(0.25) - 0.75*log2(0.75)
        assert entropy(dd(0.25, 0.75)) == pytest.approx(0.811278, abs=1e-6)

    def test_uniform_is_maximal(self):
        rng = np.random.default_rng(0)
        for n in (2, 3, 5, 8):
            h_max = entropy(DiscreteDistribution(np.full(n, 1.0 / n)))
            assert h_max == pytest.approx(np.log2(n))
            for _ in range(20):
                h = entropy(DiscreteDistribution(rng.dirichlet(np.ones(n))))
                assert h <= h_max + 1e-12


class TestKL:
    def test_identical_is_zero(self):
        assert kl_divergence(dd(0.3, 0.7), dd(0.3, 0.7)) == 0.0

    def test_point_mass_vs_uniform(self):
        assert kl_divergence(dd(1.0, 0.0), dd(0.5, 0.5)) == pytest.approx(1.0)

    def test_support_violation_is_infinite(self):
        assert kl_divergence(dd(0.5, 0.5), dd(1.0, 0.0)) == float("inf")

    def test_alphabet_mismatch(self):
        with pytest.raises(ValidationError):
            kl_divergence(dd(0.5, 0.5), dd(0.2, 0.3, 0.5))

    def test_gibbs_nonnegative(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            n = int(rng.integers(2, 7))
            p = DiscreteDistribution(rng.dirichlet(np.ones(n)))
            q = DiscreteDistribution(rng.dirichlet(np.ones(n)))
            assert kl_divergence(p, q) >= 0.0
        assert kl_divergence(p, p) <= 1e-12


class TestMutualInformation:
    def test_independence(self):
        px = dd(0.3, 0.7)
        cond = ConditionalMatrix([[0.2, 0.8], [0.2, 0.8]])
        assert mutual_information(px, cond) == pytest.approx(0.0, abs=1e-12)

    def test_perfect_copy(self):
        px = dd(0.5, 0.5)
        assert mutual_information(px, ConditionalMatrix(np.eye(2))) == pytest.approx(1.0)

    def test_binary_symmetric_channel(self):
        px = dd(0.5, 0.5)
        bsc = ConditionalMatrix([[0.89, 0.11], [0.11, 0.89]])
        assert mutual_information(px, bsc) == pytest.approx(0.500, abs=1e-3)

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError):
            mutual_information(dd(0.5, 0.5), ConditionalMatrix(np.eye(3)))

    def test_matches_joint_formulation(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            n, m = int(rng.integers(2, 6)), int(rng.integers(2, 6))
            px = rng.dirichlet(np.ones(n))
            cond = rng.dirichlet(np.ones(m), size=n)
            via_cond = mutual_information(DiscreteDistribution(px), ConditionalMatrix(cond))
            via_joint = joint_mutual_information(JointDistribution(px[:, None] * cond))
            assert via_cond == pytest.approx(via_joint, abs=1e-9)


class TestJointMI:
    def test_product_of_fair_coins(self):
        j = JointDistribution(np.full((2, 2), 0.25))
        assert joint_mutual_information(j) == pytest.approx(0.0, abs=1e-12)

    def test_diagonal(self):
        j = JointDistribution([[0.5, 0.0], [0.0, 0.5]])
        assert joint_mutual_information(j) == pytest.approx(1.0)

    def test_from_toy_counts_matches_entropy_identity(self):
        # four samples: (0,0), (0,1), (1,1), (1,1)
        j = JointDistribution.from_counts([[1, 1], [0, 2]])
        pa = j.p.sum(axis=1)
        pb = j.p.sum(axis=0)
        direct = (entropy(DiscreteDistribution(pa))
                  + entropy(DiscreteDistribution(pb))
                  - entropy(DiscreteDistribution(j.p.ravel())))
        assert joint_mutual_information(j) == pytest.approx(direct, abs=1e-12)

    def test_symmetry(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            j = rng.dirichlet(np.ones(12)).reshape(3, 4)
            a = joint_mutual_information(JointDistribution(j))
            b = joint_mutual_information(JointDistribution(j.T))
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
            assert entropy(DiscreteDistribution(px)) == pytest.approx(
                entropy(DiscreteDistribution(px[perm_n])), abs=1e-12)
            q = rng.dirichlet(np.ones(n))
            assert kl_divergence(DiscreteDistribution(px), DiscreteDistribution(q)) == pytest.approx(
                kl_divergence(DiscreteDistribution(px[perm_n]), DiscreteDistribution(q[perm_n])),
                abs=1e-12)
            a = mutual_information(DiscreteDistribution(px), ConditionalMatrix(cond))
            b = mutual_information(DiscreteDistribution(px[perm_n]),
                                   ConditionalMatrix(cond[perm_n][:, perm_m]))
            assert a == pytest.approx(b, abs=1e-12)
