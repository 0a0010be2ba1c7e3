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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ValidationError
from .infotheory import ConditionalMatrix, DiscreteDistribution, entropy

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
    """How the solve ended; the final Lagrangian is i_in_out - beta * i_y_out."""

    iterations: int          # evaluations of the self-consistent update
    i_in_out: float
    i_y_out: float
    converged: bool


@dataclass(frozen=True)
class IBSolution:
    """Learned channel plus the marginal/posterior it induces."""

    channel: ConditionalMatrix
    p_out: DiscreteDistribution
    py_given_out: ConditionalMatrix
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
    if x.min() < 0 or x.max() >= n_in:
        raise ValidationError(f"input symbols outside [0, {n_in})")
    if y.min() < 0 or y.max() >= n_class:
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


def lagrangian(problem: IBProblem, channel: ConditionalMatrix) -> float:
    """Training objective I(in;out) - beta * I(y;out), in bits."""
    _check_channel(problem, channel)
    return _lagrangian(_source(problem), problem.beta, channel.p)


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
        p_out, py_out = _posteriors(src, channel)
        i_in_out, i_y_out = _information(src, channel)

    return IBSolution(
        channel=ConditionalMatrix(channel),
        p_out=DiscreteDistribution(p_out),
        py_given_out=ConditionalMatrix(py_out),
        diagnostics=IBDiagnostics(iterations, i_in_out, i_y_out, converged),
    )
