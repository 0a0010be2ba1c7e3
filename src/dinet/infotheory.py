"""Exact discrete information-theory primitives, everything in bits.

The containers (distribution vector, row-stochastic matrix, joint matrix)
validate on construction (finite, non-negative entries; sums within
tolerance 1e-9) and are immutable afterwards.
Renormalization never happens implicitly: start from raw weights via the
``normalized`` constructors when that is what you mean.

Conventions: 0*log2(0) == 0, and a KL divergence where p puts mass outside
the support of q is +inf rather than an error (iterative solvers can
transiently zero entries).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

VALIDATION_TOL = 1e-9


def _check_entries(a: np.ndarray, what: str) -> None:
    # a NaN slips past both a sign test and a sum tolerance test
    if not np.isfinite(a).all():
        raise ValidationError(f"{what} has a non-finite entry")
    if np.any(a < 0):
        raise ValidationError(f"{what} has a negative entry")


def _freeze(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=np.float64, copy=True)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class DiscreteDistribution:
    """Probability mass function over a finite symbol alphabet."""

    probs: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=np.float64)
        if p.ndim != 1 or p.size == 0:
            raise ValidationError("distribution must be a non-empty 1-d vector")
        _check_entries(p, "distribution")
        if abs(p.sum() - 1.0) > VALIDATION_TOL:
            raise ValidationError(f"distribution sums to {p.sum()!r}, not 1")
        object.__setattr__(self, "probs", _freeze(p))

    @classmethod
    def normalized(cls, weights) -> "DiscreteDistribution":
        """Build from non-negative weights, dividing by their sum."""
        w = np.asarray(weights, dtype=np.float64)
        if np.any(w < 0) or w.sum() <= 0:
            raise ValidationError("weights must be non-negative with positive sum")
        return cls(w / w.sum())

    def __len__(self) -> int:
        return self.probs.size


@dataclass(frozen=True)
class ConditionalMatrix:
    """Row-stochastic matrix: row i holds P(output symbol | input symbol i)."""

    p: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.p, dtype=np.float64)
        if m.ndim != 2 or m.size == 0:
            raise ValidationError("conditional matrix must be a non-empty 2-d array")
        _check_entries(m, "conditional matrix")
        bad = np.abs(m.sum(axis=1) - 1.0) > VALIDATION_TOL
        if np.any(bad):
            raise ValidationError(f"rows {np.flatnonzero(bad).tolist()} do not sum to 1")
        object.__setattr__(self, "p", _freeze(m))

    @classmethod
    def normalized(cls, weights) -> "ConditionalMatrix":
        """Build from non-negative weights, normalizing each row."""
        w = np.asarray(weights, dtype=np.float64)
        if w.ndim != 2 or np.any(w < 0):
            raise ValidationError("weights must be a non-negative 2-d array")
        sums = w.sum(axis=1, keepdims=True)
        if np.any(sums <= 0):
            raise ValidationError("every row needs positive total weight")
        return cls(w / sums)

    @property
    def rows(self) -> int:
        return self.p.shape[0]

    @property
    def cols(self) -> int:
        return self.p.shape[1]


@dataclass(frozen=True)
class JointDistribution:
    """Joint probability matrix over two finite alphabets."""

    p: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.p, dtype=np.float64)
        if m.ndim != 2 or m.size == 0:
            raise ValidationError("joint distribution must be a non-empty 2-d array")
        _check_entries(m, "joint distribution")
        if abs(m.sum() - 1.0) > VALIDATION_TOL:
            raise ValidationError(f"joint distribution sums to {m.sum()!r}, not 1")
        object.__setattr__(self, "p", _freeze(m))

    @classmethod
    def from_counts(cls, counts) -> "JointDistribution":
        c = np.asarray(counts, dtype=np.float64)
        if np.any(c < 0) or c.sum() <= 0:
            raise ValidationError("counts must be non-negative with positive total")
        return cls(c / c.sum())


# ---------------------------------------------------------------------------
# array-level kernels, shared with the solver modules (no validation)

def entropy_raw(p: np.ndarray) -> float:
    p = np.asarray(p, dtype=np.float64)
    nz = p[p > 0]
    return float(-(nz * np.log2(nz)).sum())


def kl_raw(p: np.ndarray, q: np.ndarray) -> float:
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    mask = p > 0
    if np.any(q[mask] == 0):
        return float("inf")
    return float((p[mask] * np.log2(p[mask] / q[mask])).sum())


def mutual_information_raw(px: np.ndarray, cond: np.ndarray) -> float:
    """I(X;T) from P(X) and P(T|X), guarding the 0*log(0/0) corners."""
    px = np.asarray(px, dtype=np.float64)
    cond = np.asarray(cond, dtype=np.float64)
    pt = px @ cond
    mask = (cond > 0) & (px[:, None] > 0)
    # wherever mask holds, pt[j] >= px[i] * cond[i, j] > 0
    ratio = np.ones_like(cond)
    np.divide(cond, pt[None, :], out=ratio, where=mask)
    terms = np.where(mask, cond * np.log2(ratio), 0.0)
    return float(px @ terms.sum(axis=1))


def joint_mi_raw(joint: np.ndarray) -> float:
    joint = np.asarray(joint, dtype=np.float64)
    pa = joint.sum(axis=1)
    pb = joint.sum(axis=0)
    return entropy_raw(pa) + entropy_raw(pb) - entropy_raw(joint.ravel())


# ---------------------------------------------------------------------------
# public operations

def entropy(d: DiscreteDistribution) -> float:
    """Shannon entropy -sum p*log2(p) in bits."""
    return entropy_raw(d.probs)


def kl_divergence(p: DiscreteDistribution, q: DiscreteDistribution) -> float:
    """KL(p||q) in bits; +inf when p has mass where q has none."""
    if len(p) != len(q):
        raise ValidationError(f"alphabet mismatch: {len(p)} vs {len(q)}")
    return kl_raw(p.probs, q.probs)


def mutual_information(px: DiscreteDistribution, cond: ConditionalMatrix) -> float:
    """I(X;T) in bits for source P(X) and channel P(T|X)."""
    if len(px) != cond.rows:
        raise ValidationError(
            f"source has {len(px)} symbols but channel has {cond.rows} rows"
        )
    return mutual_information_raw(px.probs, cond.p)


def joint_mutual_information(j: JointDistribution) -> float:
    """I(A;B) = H(A) + H(B) - H(A,B) in bits."""
    return joint_mi_raw(j.p)
