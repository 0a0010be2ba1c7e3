import tracemalloc

import numpy as np
import pytest

from dinet import RawColumn, make_synthetic_ckd
from dinet.synthetic import MISSING_RATE, N_FEATURES, POSITIVE_FRACTION


def reference_table(n_rows, seed):
    """The generator as a whole-table build: every column's values, then each
    column's missing mask, in the same draws.  Returns the feature names, their
    kinds, the labels and each column's cells, None where a cell is missing."""
    rng = np.random.default_rng(seed)
    y = (rng.random(n_rows) < POSITIVE_FRACTION).astype(int)
    columns = {}
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
    columns["noise_21"] = rng.normal(0.0, 1.0, n_rows) * 100
    columns["noise_22"] = rng.integers(0, 9, n_rows).astype(float)
    flags["noise_23"] = np.where(rng.random(n_rows) < 0.5, "left", "right")
    cells = {}
    for name, values in {**columns, **flags}.items():
        cells[name] = values.astype(object)
        if name != "lab_0":
            cells[name][rng.random(n_rows) < MISSING_RATE] = None
    kinds = ("numeric",) * len(columns) + ("nominal",) * len(flags)
    return tuple(cells), kinds, 1 - y, [c.tolist() for c in cells.values()]


def row_cells(column):
    """A parsed column's cell of each row as a Python value, None where it is missing."""
    cells = column.cells.tolist() if isinstance(column.cells, np.ndarray) else column.cells
    return [None if k < 0 else cells[k] for k in column.codes.tolist()]


class TestTables:
    @pytest.mark.parametrize("n_rows, seed", [(1, 3), (400, 0), (400, 7), (2_000, 11),
                                              (20_000, 5), (20_000, 1_000_001)])
    def test_equal_the_whole_table_build_cell_for_cell(self, n_rows, seed):
        data = make_synthetic_ckd(n_rows, seed=seed)
        names, kinds, labels, cells = reference_table(n_rows, seed)
        assert (data.feature_names, data.kinds) == (names, kinds)
        assert (data.target_name, data.classes) == ("status", ("sick", "healthy"))
        assert data.labels.tolist() == labels.tolist()
        assert len(data.columns) == N_FEATURES
        for column, want in zip(data.columns, cells):
            # repr tells a float from a text, and -0.0 from 0.0
            assert list(map(repr, row_cells(column))) == list(map(repr, want))
            assert column.codes.tolist() == RawColumn.from_cells(want).codes.tolist()

    def test_labels_are_int64_and_codes_narrow(self):
        data = make_synthetic_ckd(400, seed=0)
        assert data.labels.dtype == np.int64
        kinds = {column.codes.dtype for column in data.columns}
        assert kinds == {np.dtype(np.int8), np.dtype(np.int16)}


def test_a_large_table_is_built_one_column_at_a_time():
    make_synthetic_ckd(10, seed=0)  # anything made once per process is made here
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        data = make_synthetic_ckd(20_000, seed=1_000_001)
        kept, peak = (m - before for m in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    assert data.n_rows == 20_000
    assert kept <= 3.5e6 and peak <= 8.5e6, (kept, peak)
