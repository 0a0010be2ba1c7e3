"""Information-bottleneck training of one compression node.

A node observes discrete input symbols together with target labels and
learns a row-stochastic channel P(out|in) that trades compression against
relevance: it minimizes I(in;out) - beta * I(target;out).  The optimum is
the self-consistent fixed point

    P(out=j | in=i)  proportional to  P(out=j) * 2^(-beta * d(i, j))

where d(i,j) = KL( P(target|in=i) || P(target|out=j) ) and the output
marginal / posterior are recomputed from the channel itself.  The fixed
point is found by alternating (Blahut-Arimoto style) updates.

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
losslessly as a multiplexer does, and its diagnostics read zero sweeps,
converged.  The
network asks this of every node below the final one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ValidationError
from .infotheory import (
    ConditionalMatrix,
    DiscreteDistribution,
    joint_mutual_information,
    mutual_information,
)

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

    iterations: int
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
    counts_x = np.bincount(x, minlength=n_in).astype(np.float64)
    counts_xy = np.bincount(x * n_class + y, minlength=n_in * n_class)
    counts_xy = counts_xy.reshape(n_in, n_class).astype(np.float64)
    prior = np.bincount(y, minlength=n_class).astype(np.float64) / y.size
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


def _source(problem: IBProblem) -> _Source:
    px, py_x = problem.px.probs, problem.py_given_x.p
    plogp = np.where(py_x > 0, py_x * np.log2(np.where(py_x > 0, py_x, 1.0)), 0.0)
    zero_mass = px == 0
    return _Source(px, py_x, px @ py_x, plogp.sum(axis=1)[:, None],
                   zero_mass, bool(zero_mass.any()))


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


def _joint_out_y(px, py_x, channel):
    """Joint P(out, y) induced by source, class posterior and channel."""
    return (channel * px[:, None]).T @ py_x


def lagrangian(problem: IBProblem, channel: ConditionalMatrix) -> float:
    """Training objective I(in;out) - beta * I(y;out), in bits."""
    _check_channel(problem, channel)
    px, py_x = problem.px.probs, problem.py_given_x.p
    i_in_out = mutual_information(px, channel.p)
    i_y_out = joint_mutual_information(_joint_out_y(px, py_x, channel.p))
    return i_in_out - problem.beta * i_y_out


def _init_channel(n_in, n_out, rng):
    w = rng.random((n_in, n_out)) + 1e-12
    return w / w.sum(axis=1, keepdims=True)


def solve_ib(problem: IBProblem, tol: float = DEFAULT_TOL,
             max_iter: int = DEFAULT_MAX_ITER, seed: int = 0, *,
             keep_input: bool = False) -> IBSolution:
    """Iterate the self-consistent update from a seeded random channel.

    Stops when the max-abs channel change drops below ``tol`` or after
    ``max_iter`` sweeps; non-convergence is reported in the diagnostics,
    never raised.  Same (problem, tol, max_iter, seed) gives a bit-identical
    solution.

    With ``keep_input`` and ``n_in <= n_out`` nothing is iterated: the
    channel is the identity embedding ``np.eye(n_in, n_out)``, reported as
    0 iterations, converged.  Otherwise ``keep_input`` changes nothing.
    """
    if not tol > 0:
        raise ValidationError(f"tol must be positive, got {tol}")
    if max_iter < 1:
        raise ValidationError(f"max_iter must be >= 1, got {max_iter}")
    src = _source(problem)
    converged = False
    iterations = 0
    with np.errstate(**_QUIET):
        if keep_input and problem.n_in <= problem.n_out:
            channel = np.eye(problem.n_in, problem.n_out)
            converged = True
        else:
            channel = _init_channel(problem.n_in, problem.n_out,
                                    np.random.default_rng(seed))
            for _ in range(max_iter):
                new = _step(src, problem.beta, channel)
                iterations += 1
                delta = np.abs(new - channel).max()
                channel = new
                if delta < tol:
                    converged = True
                    break
        p_out, py_out = _posteriors(src, channel)

    diagnostics = IBDiagnostics(
        iterations=iterations,
        i_in_out=mutual_information(src.px, channel),
        i_y_out=joint_mutual_information(_joint_out_y(src.px, src.py_x, channel)),
        converged=converged,
    )
    return IBSolution(
        channel=ConditionalMatrix(channel),
        p_out=DiscreteDistribution(p_out),
        py_given_out=ConditionalMatrix(py_out),
        diagnostics=diagnostics,
    )
