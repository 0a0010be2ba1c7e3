"""Information-bottleneck training of one compression node.

A node observes discrete input symbols together with target labels and
learns a row-stochastic channel P(out|in) that trades compression against
relevance: it minimizes I(in;out) - beta * I(target;out).  The optimum is
the self-consistent fixed point

    P(out=j | in=i)  proportional to  P(out=j) * 2^(-beta * d(i, j))

where d(i,j) = KL( P(target|in=i) || P(target|out=j) ) and the output
marginal / posterior are recomputed from the channel itself.  The fixed
point is found by iterating that (Blahut-Arimoto style) update, with
SQUAREM extrapolation (Varadhan & Roland 2008): every cycle of two updates
x0 -> x1 -> x2 proposes a longer step along the same path, projected back
onto row-stochastic channels and stabilised by one more update x3.  The
solver continues from x3 only if its Lagrangian is not above x2's, so
the iterates it continues from never raise the objective.  The slow,
linearly converging nodes that plain updates leave at ``max_iter`` reach
their fixed point in a fraction of the updates.

Base convention: divergences are measured in bits and the exponential
update uses base 2 accordingly, so beta is calibrated against base-2
quantities throughout.

Zero-mass inputs (symbols never seen when estimating the source) carry no
weight in any information quantity; their channel rows are pinned to the
output marginal, which keeps the update a no-op on them.

A node asked to keep its input (``solve_ib(..., keep_input=True)``) whose
output alphabet can hold that input (``n_in <= n_out``) has no alphabet to
reduce and is not compressed: its channel is the identity embedding
``np.eye(n_in, n_out)``, passing every symbol (zero-mass ones too) through
losslessly as a multiplexer does, and its diagnostics read zero
iterations, converged.  The network asks this of every node below the
final one.

``solve_ib`` returns the record a trained model keeps per node: an
``IBSolution`` of the channel and its ``IBDiagnostics``, whose fields are
also the node's scalars in a model file.  What a channel induces, the
output marginal and class posterior, comes from ``posteriors(problem,
channel)`` when it is wanted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ValidationError
from .infotheory import ConditionalMatrix, DiscreteDistribution, entropy, mutual_information

DEFAULT_TOL = 1e-8
DEFAULT_MAX_ITER = 500


@dataclass(frozen=True)
class IBProblem:
    """One node's training input: source, per-symbol class posterior, knobs."""

    px: DiscreteDistribution
    py_given_x: ConditionalMatrix
    beta: float
    n_out: int

    def __post_init__(self):
        if not self.beta > 0:
            raise ValidationError(f"beta must be positive, got {self.beta}")
        if not 1 <= self.n_out:
            raise ValidationError(f"n_out must be >= 1, got {self.n_out}")
        if self.py_given_x.rows != len(self.px):
            raise ValidationError(
                f"py_given_x has {self.py_given_x.rows} rows for "
                f"{len(self.px)} input symbols"
            )

    @property
    def n_in(self) -> int:
        return len(self.px)

    @property
    def n_class(self) -> int:
        return self.py_given_x.cols


@dataclass(frozen=True)
class IBDiagnostics:
    """How the solve ended and the node's point in the information plane.

    An information that rounding reads below 0 is stored as 0.0.
    """

    iterations: int          # evaluations of the self-consistent update
    i_in_out: float          # I(in;out)
    i_y_out: float           # I(y;out)
    converged: bool
    mi_in_y: float           # I(in;y), what the input carries about the class


@dataclass(frozen=True)
class IBSolution:
    """A trained node: its channel P(out|in) and how the solve ended."""

    channel: ConditionalMatrix
    diagnostics: IBDiagnostics


def estimate_empirical(x_symbols, y_labels, n_in: int, n_class: int):
    """Frequency estimates of P(X) and P(Y|X) from paired symbol vectors.

    Rows for symbols never observed fall back to the global class prior, so
    the returned conditional is always row-stochastic.
    """
    x = np.asarray(x_symbols, dtype=np.int64)
    y = np.asarray(y_labels, dtype=np.int64)
    if x.size == 0 or y.size == 0:
        raise ValidationError("empty training vectors")
    if x.shape != y.shape or x.ndim != 1:
        raise ValidationError("x_symbols and y_labels must be equal-length vectors")
    # viewed unsigned, a negative entry is >= 2**63: one scan checks both ends
    if x.view(np.uint64).max() >= n_in:
        raise ValidationError(f"input symbols outside [0, {n_in})")
    if y.view(np.uint64).max() >= n_class:
        raise ValidationError(f"labels outside [0, {n_class})")
    counts_xy = np.bincount(x * n_class + y, minlength=n_in * n_class)
    counts_xy = counts_xy.reshape(n_in, n_class).astype(np.float64)
    # integer row and column sums: exact in float64
    counts_x = counts_xy.sum(axis=1)
    prior = counts_xy.sum(axis=0) / y.size
    py_x = np.where(counts_x[:, None] > 0,
                    counts_xy / np.maximum(counts_x[:, None], 1.0),
                    prior[None, :])
    return DiscreteDistribution(counts_x / x.size), ConditionalMatrix(py_x)


class _Source(NamedTuple):
    """The per-problem constants of the update, computed once per solve."""

    px: np.ndarray
    px_col: np.ndarray       # px as a column, px[:, None]
    py_x: np.ndarray
    prior: np.ndarray        # class prior P(y)
    plogp: np.ndarray        # column of row sums  sum_y p(y|i) log2 p(y|i)
    zero_mass: np.ndarray    # column, True on rows with px == 0
    any_zero_mass: bool
    h_in: float              # H(in)
    h_y: float               # H(y)


def _source(problem: IBProblem) -> _Source:
    px, py_x = problem.px.probs, problem.py_given_x.p
    plogp = np.where(py_x > 0, py_x * np.log2(np.where(py_x > 0, py_x, 1.0)), 0.0)
    px_col = px[:, None]
    zero_mass = px_col == 0
    prior = px @ py_x
    return _Source(px, px_col, py_x, prior, plogp.sum(axis=1)[:, None],
                   zero_mass, bool(zero_mass.any()), entropy(px), entropy(prior))


# Every update runs under this: dead outputs divide 0 by 0, and exp2
# underflows.  At a large beta the stand-in distortion (about 1e300 times a
# P(y|in)) times -beta leaves the float range; the -inf it gives has exp2 0,
# the weight the cap gives such an output anyway.
_QUIET = {"invalid": "ignore", "divide": "ignore", "under": "ignore", "over": "ignore"}

# The update, the guard and the extrapolation run on arrays of a few dozen
# entries, where a numpy call costs more than its arithmetic.  So they call
# the ufuncs and their reductions directly (``np.add.reduce`` is what
# ``ndarray.sum`` runs), take products with ``np.dot`` (the BLAS call of
# ``@``, with less dispatch), write into buffers they own and test rarely; every
# value kept is the same floating-point operation, in the same order, as in
# the plain expressions that tests/test_ib.py keeps as the reference.
_sum = np.add.reduce
_min = np.minimum.reduce
_max = np.maximum.reduce


def _bayes(src: _Source, channel):
    """Output marginal and class posterior; a zero-marginal output's row is NaN (0/0)."""
    p_out = np.dot(src.px, channel)
    joint = np.multiply(src.px_col, channel)            # p(in, out)
    np.divide(joint, p_out, out=joint)
    return p_out, np.dot(joint.T, src.py_x)


_NEG_HUGE = -1e300  # finite stand-in for log2(0): keeps 0*log terms at 0, not nan


def _weights(src: _Source, beta, p_out, log_q):
    """The update's unnormalised rows p_out * 2^(-beta d), their sums, and d."""
    # d(i, j) = KL(P(y|in=i) || P(y|out=j)) in bits; a support gap makes it huge or inf
    d = np.dot(src.py_x, log_q.T)
    np.subtract(src.plogp, d, out=d)
    # cap at 0: float error can push d a hair below zero.  No lower cap is
    # needed: exp2 of anything below -1075 is exactly 0.
    new = np.multiply(d, -beta)
    np.minimum(new, 0.0, out=new)
    np.exp2(new, out=new)
    np.multiply(new, p_out, out=new)
    return new, _sum(new, axis=1, keepdims=True), d


def _step(src: _Source, beta, channel):
    """One self-consistent update; the errors of ``_QUIET`` must be ignored."""
    p_out, py_out = _bayes(src, channel)
    # A posterior of 0 has log2 -inf, which zeroes each weight it meets, as
    # the stand-in below does, except that against a P(y|in) of 0 it gives
    # NaN; so does the NaN row of a zero-marginal output.  Any NaN fails the
    # row-sum test, and the update is then taken again with the stand-in.
    new, sums, d = _weights(src, beta, p_out, np.log2(py_out))
    if not _min(sums, axis=None) > 0:
        py_out[p_out == 0] = src.prior
        log_q = np.where(py_out > 0, np.log2(np.where(py_out > 0, py_out, 1.0)), _NEG_HUGE)
        new, sums, d = _weights(src, beta, p_out, log_q)
        if not _min(sums, axis=None) > 0:
            # whole row underflowed: hard-assign the least-distorted output
            dead = sums[:, 0] <= 0
            new[dead] = 0.0
            new[dead, np.argmin(d[dead], axis=1)] = 1.0
            sums[dead] = 1.0
    np.divide(new, sums, out=new)
    if src.any_zero_mass:
        np.copyto(new, p_out, where=src.zero_mass)
    return new


def _check_channel(problem: IBProblem, channel: ConditionalMatrix):
    if channel.rows != problem.n_in or channel.cols != problem.n_out:
        raise ValidationError(
            f"channel is {channel.rows}x{channel.cols}, expected "
            f"{problem.n_in}x{problem.n_out}"
        )


def ib_step(problem: IBProblem, channel: ConditionalMatrix) -> ConditionalMatrix:
    """One full self-consistent update of the channel."""
    _check_channel(problem, channel)
    src = _source(problem)
    with np.errstate(**_QUIET):
        return ConditionalMatrix(_step(src, problem.beta, channel.p))


def posteriors(problem: IBProblem,
               channel: ConditionalMatrix) -> tuple[DiscreteDistribution, ConditionalMatrix]:
    """The output marginal P(out) and class posterior P(y|out) a channel induces.

    An output of zero marginal gets the class prior as its posterior; the
    update gives it zero weight anyway.
    """
    _check_channel(problem, channel)
    src = _source(problem)
    with np.errstate(**_QUIET):
        p_out, py_out = _bayes(src, channel.p)
    py_out[p_out == 0] = src.prior
    return DiscreteDistribution(p_out), ConditionalMatrix(py_out)


def _plogp(a) -> float:
    """sum a*log2(a) over the positive entries of ``a``; needs ``_QUIET``.

    Without a zero entry the whole array is those entries, so one dot over
    it gives the same bits as over the positive entries alone; a zero makes
    the dot NaN (0 * log2 0) and only then are they picked out.
    """
    a = a.ravel()
    s = np.dot(a, np.log2(a))
    if s == s:
        return float(s)
    nz = a[a > 0]
    return float(np.dot(nz, np.log2(nz)))


def _information(src: _Source, channel):
    """I(in;out) and I(y;out) of a channel, in bits, from one joint P(in, out)."""
    joint = np.multiply(src.px_col, channel)
    p_out = _sum(joint, axis=0)
    h_out = -_plogp(p_out)
    i_in_out = src.h_in + h_out + _plogp(joint)
    i_y_out = src.h_y + h_out + _plogp(np.dot(joint.T, src.py_x))
    return i_in_out, i_y_out


def _lagrangian(src: _Source, beta, channel) -> float:
    i_in_out, i_y_out = _information(src, channel)
    return i_in_out - beta * i_y_out


def lagrangian(problem: IBProblem, channel: ConditionalMatrix) -> float:
    """Training objective I(in;out) - beta * I(y;out), in bits."""
    _check_channel(problem, channel)
    with np.errstate(**_QUIET):
        return _lagrangian(_source(problem), problem.beta, channel.p)


def _init_channel(n_in, n_out, rng):
    w = rng.random((n_in, n_out)) + 1e-12
    return w / w.sum(axis=1, keepdims=True)


def _project(proposal, fallback, src: _Source):
    """The proposal clipped at 0 with rows renormalised, in place.

    Zero-mass rows are taken from ``fallback``.
    """
    x = np.maximum(proposal, 0.0, out=proposal)
    np.divide(x, _sum(x, axis=1, keepdims=True), out=x)
    if src.any_zero_mass:
        np.copyto(x, fallback, where=src.zero_mass)
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
        diff = np.subtract(new, x)
        return new, bool(_max(np.absolute(diff, out=diff), axis=None) < tol)

    evaluations = 0
    x0 = channel
    while True:
        x1, done = update(x0)
        if done or evaluations == max_iter:
            return x1, evaluations, done
        x2, done = update(x1)
        if done or evaluations == max_iter:
            return x2, evaluations, done
        r = np.subtract(x1, x0)
        v = np.multiply(x1, 2)
        np.subtract(x2, v, out=v)
        np.add(v, x0, out=v)                          # x2 - 2 x1 + x0
        # v == 0 makes alpha -inf and the proposal NaN, refused just below
        alpha = min(-math.sqrt(_sum(r * r, axis=None) / _sum(v * v, axis=None)), -1.0)
        proposal = np.multiply(r, 2 * alpha, out=r)
        np.subtract(x0, proposal, out=proposal)
        np.multiply(v, alpha * alpha, out=v)
        np.add(proposal, v, out=proposal)             # x0 - 2 alpha r + alpha^2 v
        proposal = _project(proposal, x2, src)
        # projected entries lie in [0, 1] or are NaN, so the sum is finite
        # exactly when every entry is
        if not math.isfinite(_sum(proposal, axis=None)):
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


def solve_ib(problem: IBProblem, tol: float = DEFAULT_TOL,
             max_iter: int = DEFAULT_MAX_ITER, seed: int = 0, *,
             keep_input: bool = False) -> IBSolution:
    """Iterate the accelerated self-consistent update from a seeded random channel.

    Stops once one update changes the channel by less than ``tol`` in
    max-abs, or after ``max_iter`` evaluations of the update, which the
    diagnostics count as iterations; non-convergence is reported there,
    never raised.  Same (problem, tol, max_iter, seed) gives a
    bit-identical solution.

    With ``keep_input`` and ``n_in <= n_out`` nothing is iterated: the
    channel is the identity embedding ``np.eye(n_in, n_out)``, reported as
    0 iterations, converged.  Otherwise ``keep_input`` changes nothing.
    """
    if not tol > 0:
        raise ValidationError(f"tol must be positive, got {tol}")
    if max_iter < 1:
        raise ValidationError(f"max_iter must be >= 1, got {max_iter}")
    src = _source(problem)
    with np.errstate(**_QUIET):
        if keep_input and problem.n_in <= problem.n_out:
            channel, iterations, converged = np.eye(problem.n_in, problem.n_out), 0, True
        else:
            start = _init_channel(problem.n_in, problem.n_out, np.random.default_rng(seed))
            channel, iterations, converged = _squarem(src, problem.beta, start, tol, max_iter)
        i_in_out, i_y_out = (0.0 if v <= 0 else v for v in _information(src, channel))
    mi_in_y = mutual_information(problem.px.probs, problem.py_given_x.p)
    return IBSolution(ConditionalMatrix(channel),
                      IBDiagnostics(iterations, i_in_out, i_y_out, converged, mi_in_y))
