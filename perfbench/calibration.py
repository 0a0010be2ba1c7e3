"""Machine-speed calibration for the benchmark's end-to-end times.

The speed of a shared host can change by more than half within seconds
while the program does the same work.  The benchmark runs this fixed loop
between operations and scales each operation's wall time by how long the
loop took around it: ``scaled = wall * NOMINAL_S / loop_time``, where
``loop_time`` is the median of the loops timed within ``WINDOW_S`` of the
operation.  Scaled times read as seconds on a machine where the loop takes
``NOMINAL_S``.  A median over a few seconds of loops, rather than the two
loops next to the operation, follows the host's drift without taking on
the jitter of single loops.

The loop is a few hundred Blahut-Arimoto sweeps over a tiny and a wide
node, the same mix of interpreter and small-array numpy work as the dinet
solver, and it calls nothing in dinet, so a change to the program never
changes it.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

NOMINAL_S = 0.009
WINDOW_S = 3.0


def _problem(rng, n_in, n_class, n_out):
    px = rng.random(n_in)
    py_x = rng.random((n_in, n_class))
    channel = rng.random((n_in, n_out))
    py_x /= py_x.sum(axis=1, keepdims=True)
    return (px / px.sum(), py_x, channel / channel.sum(axis=1, keepdims=True),
            (py_x * np.log2(py_x)).sum(axis=1)[:, None])


_rng = np.random.default_rng(0)
# (problem, sweeps): a tiny node like smoke-train's and a wide one like finebin-train's
_PROBLEMS = ((_problem(_rng, 8, 2, 3), 250), (_problem(_rng, 320, 2, 2), 60))


def loop_seconds() -> float:
    """Wall time of one run of the calibration loop."""
    start = perf_counter()
    for (px, py_x, channel, plogp), sweeps in _PROBLEMS:
        for _ in range(sweeps):
            p_out = px @ channel
            py_out = ((px[:, None] * channel).T / p_out[:, None]) @ py_x
            d = plogp - py_x @ np.log2(py_out).T
            channel = p_out[None, :] * np.exp2(-5.0 * d)
            channel /= channel.sum(axis=1, keepdims=True)
    return perf_counter() - start


class SpeedLog:
    """Loop timings taken between operations, for scaling once a run ends."""

    def __init__(self):
        self.samples = []  # (start time, loop seconds)

    def sample(self):
        self.samples.append((perf_counter(), loop_seconds()))

    def scale(self, wall_s: float, start: float, end: float) -> float:
        """``wall_s``, measured between ``start`` and ``end``, at nominal speed."""
        near = [loop for t, loop in self.samples if start - WINDOW_S <= t <= end + WINDOW_S]
        return wall_s * NOMINAL_S / statistics.median(near)
