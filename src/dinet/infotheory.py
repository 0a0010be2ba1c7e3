"""Exact discrete information-theory primitives, everything in bits.

The two containers (distribution vector, row-stochastic matrix) guard what
a model is built from: they validate on construction (finite, non-negative
entries; sums within tolerance 1e-9), never renormalize, and are immutable
afterwards.  The kernels take plain arrays and do not validate; callers
pass probabilities they built themselves.  Convention: 0*log2(0) == 0.

``distributions`` and ``conditionals`` check many containers laid back to
back as one array, by the same rules, and return views of one frozen copy.

The array kernels are ``entropy``, ``entropies`` (the ``entropy`` of each
of many vectors laid back to back, in one pass), ``mutual_information``,
``mutual_informations`` (its laid-back-to-back form) and
``joint_mutual_information``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

VALIDATION_TOL = 1e-9


def _check_entries(a: np.ndarray, what: str) -> None:
    # min and max propagate NaN, so this one test fails for any NaN, +-inf or
    # negative entry (a NaN alone would slip past a sign or sum test); only
    # then is the message picked
    if not (np.minimum.reduce(a, axis=None) >= 0 and np.maximum.reduce(a, axis=None) < np.inf):
        if not np.isfinite(a).all():
            raise ValidationError(f"{what} has a non-finite entry")
        raise ValidationError(f"{what} has a negative entry")


def _check_sums(sums: np.ndarray) -> None:
    """The sum rule of a distribution, for distributions of checked entries summing to ``sums``."""
    deviation = np.abs(sums - 1.0)
    if np.maximum.reduce(deviation) > VALIDATION_TOL:
        raise ValidationError(f"distribution sums to {sums[deviation.argmax()]!r}, not 1")


def _check_conditional(m: np.ndarray) -> None:
    """The rules of a row-stochastic matrix."""
    _check_entries(m, "conditional matrix")
    deviation = np.abs(m.sum(axis=1) - 1.0)
    if np.maximum.reduce(deviation) > VALIDATION_TOL:
        bad = np.flatnonzero(deviation > VALIDATION_TOL)
        raise ValidationError(f"rows {bad.tolist()} do not sum to 1")


def _freeze(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=np.float64, copy=True)
    out.flags.writeable = False
    return out


def _bounds(sizes) -> list:
    """The start and end of each consecutive segment ``sizes[i]`` long."""
    ends = np.cumsum(sizes).tolist()
    return list(zip([0, *ends[:-1]], ends))


def _checked(cls, name: str, value: np.ndarray):
    """A container holding ``value``, whose rules were already checked: no copy, no check."""
    out = object.__new__(cls)
    object.__setattr__(out, name, value)
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
        _check_sums(p.sum(keepdims=True))
        object.__setattr__(self, "probs", _freeze(p))

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
        _check_conditional(m)
        object.__setattr__(self, "p", _freeze(m))

    @property
    def rows(self) -> int:
        return self.p.shape[0]

    @property
    def cols(self) -> int:
        return self.p.shape[1]


def distributions(probs, sizes) -> list:
    """A ``DiscreteDistribution`` of each consecutive segment of ``probs``, ``sizes[i]`` long.

    The vector is checked once, by the constructor's rules applied to each
    segment, and frozen in one copy that every distribution views.  Sizes
    must be positive.
    """
    p = _freeze(probs)
    bounds = _bounds(sizes)
    _check_entries(p, "distribution")
    _check_sums(np.add.reduceat(p, [a for a, _ in bounds]))
    return [_checked(DiscreteDistribution, "probs", p[a:b]) for a, b in bounds]


def conditionals(p, sizes) -> list:
    """A ``ConditionalMatrix`` of each consecutive block of rows of ``p``, ``sizes[i]`` rows.

    The matrix is checked once, by the constructor's rules, and frozen in
    one copy that every block views.  Sizes must be positive.
    """
    m = _freeze(p)
    _check_conditional(m)
    return [_checked(ConditionalMatrix, "p", m[a:b]) for a, b in _bounds(sizes)]


# ---------------------------------------------------------------------------
# array-level kernels (no validation)

def entropy(p: np.ndarray) -> float:
    """Shannon entropy -sum p*log2(p) in bits; 0.0, never -0.0, for a point mass."""
    p = np.asarray(p, dtype=np.float64)
    nz = p[p > 0]
    # 0.0 - s equals -s for every non-zero s, and is 0.0 where -s is -0.0
    return float(0.0 - (nz * np.log2(nz)).sum())


def entropies(p: np.ndarray, sizes) -> np.ndarray:
    """Entropy in bits of each consecutive segment of ``p``, ``sizes[i]`` entries long.

    Entry i equals ``entropy`` of segment i bit for bit.  The positive terms
    p*log2(p) of all segments with the same number of them are stacked as the
    rows of one 2-D array, and numpy sums such a row in the order of a 1-D
    ``.sum()``; ``np.add.reduceat`` sums in another order, which can change
    the last bit.
    """
    p = np.asarray(p, dtype=np.float64)
    positive = p > 0
    nz = p[positive]
    terms = nz * np.log2(nz)
    # positive entries before each segment boundary
    before = np.concatenate(([0], np.cumsum(positive)))[np.concatenate(([0], np.cumsum(sizes)))]
    first, count = before[:-1], np.diff(before)
    sums = np.zeros(count.size)
    for n in np.flatnonzero(np.bincount(count)[1:]) + 1:  # each positive count present
        rows = np.flatnonzero(count == n)
        sums[rows] = terms[first[rows, None] + np.arange(n)].sum(axis=1)
    return 0.0 - sums


def mutual_information(px: np.ndarray, cond: np.ndarray) -> float:
    """I(X;T) from P(X) and P(T|X), guarding the 0*log(0/0) corners.

    0.0 where the sum reads 0 or below, as rounding gives for independent X and T.
    """
    px = np.asarray(px, dtype=np.float64)
    return float(mutual_informations(px, cond, [px.size])[0][0])


def mutual_informations(px: np.ndarray, cond: np.ndarray, sizes):
    """``mutual_information`` of each consecutive segment, and the segments' P(T).

    Segment i is ``sizes[i]`` entries of ``px`` with as many rows of ``cond``.
    Returns the I(X;T) of every segment, each equal to ``mutual_information``
    of the segment bit for bit, and the ``(K, m)`` array whose row i is the
    segment's ``px @ cond``.  Only the two dot products of a segment, whose
    BLAS summation order fixes the last bit, are taken segment by segment;
    every elementwise term and row sum is taken over all rows at once.
    """
    px = np.asarray(px, dtype=np.float64)
    cond = np.asarray(cond, dtype=np.float64)
    bounds = _bounds(sizes)
    pt = np.array([np.dot(px[a:b], cond[a:b]) for a, b in bounds])
    mask = (cond > 0) & (px[:, None] > 0)
    # wherever mask holds, pt[j] >= px[i] * cond[i, j] > 0
    ratio = np.ones_like(cond)
    np.divide(cond, np.repeat(pt, sizes, axis=0), out=ratio, where=mask)
    terms = np.where(mask, cond * np.log2(ratio), 0.0).sum(axis=1)
    mi = np.array([np.dot(px[a:b], terms[a:b]) for a, b in bounds])
    mi[mi <= 0] = 0.0
    return mi, pt


def joint_mutual_information(joint: np.ndarray) -> float:
    """I(A;B) = H(A) + H(B) - H(A,B) in bits, from the joint matrix P(A, B).

    Where the formula reads 0 or below, which rounding gives for independent
    A and B, the result is 0.0 (never -0.0).
    """
    joint = np.asarray(joint, dtype=np.float64)
    pa = joint.sum(axis=1)
    pb = joint.sum(axis=0)
    mi = entropy(pa) + entropy(pb) - entropy(joint.ravel())
    return 0.0 if mi <= 0 else mi

