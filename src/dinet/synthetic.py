"""Synthetic kidney-disease-like table for offline tests and demos.

Same shape as the real thing: 24 mixed-type features (continuous labs,
small-integer grades, yes/no flags), scattered missing cells, and a binary
target.  The class structure is planted: feature ``lab_0`` separates the
classes deterministically, several others correlate with the target at
varying strength, and a few are pure noise.
"""

from __future__ import annotations

import numpy as np

from .dataio import RawDataset
from .quantizer import RawColumn

N_FEATURES = 24
MISSING_RATE = 0.06          # share of missing cells in every column but lab_0
POSITIVE_FRACTION = 0.625    # the real table's 250 sick of 400 rows


def make_synthetic_ckd(n_rows: int = 400, seed: int = 0) -> RawDataset:
    """Generate a table of ``n_rows`` rows from ``seed``."""
    rng = np.random.default_rng(seed)
    y = (rng.random(n_rows) < POSITIVE_FRACTION).astype(int)

    columns = {}
    # deterministic separator: disjoint class-conditional ranges, no missing
    columns["lab_0"] = np.where(y == 1,
                                rng.uniform(2.0, 3.0, n_rows),
                                rng.uniform(0.0, 1.0, n_rows))
    for k in range(1, 8):
        shift = 1.5 * y * (k % 3 + 1) / 3
        columns[f"lab_{k}"] = rng.normal(5.0 + shift, 1.0, n_rows) * (10 + k)
    for k in range(8, 12):
        lam = np.where(y == 1, 6.0, 3.0) if k % 2 else np.where(y == 1, 2.0, 4.0)
        columns[f"count_{k}"] = rng.poisson(lam).astype(float)
    for k in range(12, 15):
        columns[f"grade_{k}"] = np.minimum(
            rng.poisson(np.where(y == 1, 2.2, 0.4)), 5).astype(float)
    flags = {}
    for k in range(15, 21):
        p_flag = np.where(y == 1, 0.75, 0.2) if k % 2 else np.where(y == 1, 0.3, 0.7)
        flags[f"flag_{k}"] = np.where(rng.random(n_rows) < p_flag, "yes", "no")
    # pure-noise features
    columns["noise_21"] = rng.normal(0.0, 1.0, n_rows) * 100
    columns["noise_22"] = rng.integers(0, 9, n_rows).astype(float)
    flags["noise_23"] = np.where(rng.random(n_rows) < 0.5, "left", "right")

    cols = {}
    for name, values in {**columns, **flags}.items():
        cells = values.astype(object)  # Python floats or texts
        if name != "lab_0":
            cells[rng.random(n_rows) < MISSING_RATE] = None
        cols[name] = RawColumn.from_cells(cells)

    assert len(cols) == N_FEATURES
    return RawDataset(feature_names=tuple(cols), columns=tuple(cols.values()),
                      target_name="status", labels=1 - y,  # sick rows (y = 1) hold class 0
                      classes=("sick", "healthy"),
                      kinds=("numeric",) * len(columns) + ("nominal",) * len(flags))
