"""Give raw cells their meaning, and map raw columns onto finite integer alphabets.

A ``RawColumn`` is parsed once: its distinct cells, each read as a number
by the one rule in ``RawColumn.from_cells``, and a code per row.  A column
of floats keeps its distinct cells once, as the read-only float64 array that
is also its numbers; any other column keeps them as a tuple.
Continuous columns get uniform bins between the observed training min and
max; categorical columns get a dictionary in first-appearance order.  A
column containing missing cells reserves one dedicated trailing symbol for
them.  Specs are fitted on training data only and then reused, clamping
out-of-range values to the edge bins, so nothing leaks from the test split.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import SchemaMismatchError, ValidationError

CATEGORICAL_MAX_DISTINCT = 16

CONTINUOUS = "continuous"
CATEGORICAL = "categorical"


@dataclass(frozen=True)
class FeatureSpec:
    kind: str
    has_missing: bool
    name: str = ""
    levels: int | None = None          # continuous only
    vmin: float | None = None
    vmax: float | None = None
    categories: tuple = ()             # categorical only, first-appearance order

    def __post_init__(self):
        if self.kind == CONTINUOUS:
            if self.levels is None or self.levels < 1:
                raise ValidationError("continuous spec needs levels >= 1")
            if (self.vmin is None or self.vmax is None or self.vmin > self.vmax
                    or not math.isfinite(self.vmax - self.vmin)):
                raise ValidationError(
                    f"feature {self.name!r}: continuous spec needs vmin <= vmax "
                    "with a finite range")
        elif self.kind == CATEGORICAL:
            if not self.categories:
                raise ValidationError("categorical spec needs a non-empty dictionary")
        else:
            raise ValidationError(f"unknown feature kind {self.kind!r}")

    @property
    def cardinality(self) -> int:
        base = self.levels if self.kind == CONTINUOUS else len(self.categories)
        return base + (1 if self.has_missing else 0)

    @property
    def missing_symbol(self) -> int:
        # defined as the last symbol whenever has_missing
        return self.levels if self.kind == CONTINUOUS else len(self.categories)


@dataclass(frozen=True)
class RawColumn:
    """One raw table column, parsed once: its distinct present cells and a code per row.

    ``codes[r]`` indexes ``cells`` (-1 where row r is missing); ``cells`` holds
    each distinct present cell once, in order of first appearance, where cells
    differ when their type, value or sign of zero does (NaN cells unless they
    are one object); ``numbers[k]`` is cell k read as a number, NaN where
    ``is_number[k]`` is False.  ``codes`` has the narrowest signed integer
    type that holds -1 and every index into ``cells``: int8 up to 128
    distinct cells, int16 up to 32,768.  A ``RawDataset``'s labels, made from
    its class column's codes, stay int64.  When every present cell is a float
    and none is NaN, ``cells`` is ``numbers`` itself, a read-only float64
    array, so each value is kept once; otherwise it is a tuple.
    ``load_dataset`` builds an ARFF numeric column from its rows' numbers, so
    there the texts ``1``, ``1.0`` and ``01`` are one cell.  The arrays
    ``from_cells`` makes are read-only.  A row subset shares all but
    ``codes``, whose type it keeps.
    """

    cells: tuple | np.ndarray
    numbers: np.ndarray
    is_number: np.ndarray
    codes: np.ndarray

    @classmethod
    def from_cells(cls, cells) -> "RawColumn":
        """The column of a sequence of cells, None where a cell is missing.

        This is the one place that reads a cell as a number: ``float(v)`` for
        an int or float (not a bool), else ``float(str(v).strip())``, and the
        cell is not a number where that raises.  Each distinct cell is read
        once; a column of floats alone, none NaN, is read in one array pass
        and its cells are its numbers.
        """
        cells = np.asarray(cells, dtype=object)
        rows = np.not_equal(cells, None)
        present = cells[rows].tolist()
        x = np.array(present if set(map(type, present)) <= {float} else [math.nan])
        floats = not np.isnan(x).any()
        if floats:  # a float's bits tell it apart, -0.0 from 0.0 too
            keys = x.view(np.int64)
        else:  # a text's value does; any other cell's type, value and repr
            keys = [v if type(v) is str else (type(v), v, repr(v)) for v in present]
            index = {key: i for i, key in enumerate(dict.fromkeys(keys))}
            keys = np.fromiter(map(index.__getitem__, keys), dtype=np.int64, count=len(keys))
        _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
        order = np.argsort(first)  # the distinct cells in order of first appearance
        # the narrowest signed type that holds -1 and every cell index; max(.., 1) because
        # an all-missing column's 0 would give uint8, which cannot hold -1
        codes = np.full(cells.size, -1, dtype=np.min_scalar_type(-max(first.size, 1)))
        codes[rows] = np.argsort(order)[inverse]
        first = first[order]
        is_number = np.ones(first.size, dtype=bool)
        if floats:
            numbers = distinct = x[first]
        else:
            distinct = tuple(present[i] for i in first.tolist())
            numbers = np.full(first.size, math.nan)
            for k, v in enumerate(distinct):
                number = isinstance(v, (int, float)) and not isinstance(v, bool)
                try:
                    numbers[k] = float(v if number else str(v).strip())
                except (TypeError, ValueError, OverflowError):
                    is_number[k] = False
        for a in (numbers, is_number, codes):
            a.setflags(write=False)
        return cls(distinct, numbers, is_number, codes)

    def take(self, rows) -> "RawColumn":
        return RawColumn(self.cells, self.numbers, self.is_number, self.codes[rows])


def _cell(column: RawColumn, k: int):
    """Cell ``k`` of a column as it was read: a Python value, never a numpy scalar."""
    cells = column.cells
    return cells[k].item() if isinstance(cells, np.ndarray) else cells[k]


def _first_seen(codes: np.ndarray) -> np.ndarray:
    """The distinct values of ``codes`` in order of first appearance."""
    distinct, first = np.unique(codes, return_index=True)
    return distinct[np.argsort(first)]


def fit_quantizer(column: RawColumn, requested_levels: int | None = None,
                  kind: str | None = None, name: str = "",
                  categorical_max_distinct: int = CATEGORICAL_MAX_DISTINCT) -> FeatureSpec:
    """Fit a FeatureSpec on the rows of one raw column.

    Kind resolution when not forced: a column with a present cell that is
    not a number is categorical; numeric columns with at most
    ``categorical_max_distinct`` distinct values are treated as categorical
    symbols unless an explicit level count asks for binning; the rest are
    continuous.  ``requested_levels=None`` means one bin per distinct
    training value.  The rules read each distinct cell once, in order of
    first appearance, which gives what they give over the rows in row order.
    """
    if kind not in (None, CATEGORICAL, CONTINUOUS):
        raise ValidationError(f"feature {name!r}: unknown kind {kind!r}")
    present = column.codes[column.codes >= 0]
    if not present.size:
        raise ValidationError(f"feature {name!r}: column is entirely missing")
    has_missing = present.size < column.codes.size
    seen = _first_seen(present)
    x = column.numbers[seen]
    numeric = column.is_number[seen].all()
    if numeric and not np.isfinite(x).all():
        bad = _cell(column, seen[np.isfinite(x).argmin()])
        raise ValidationError(f"feature {name!r}: non-finite value {bad!r}")
    # as len(set(floats)): -0.0 == 0.0; only a numeric column's numbers are all finite
    n_values = 1 + int(np.count_nonzero(np.diff(np.sort(x)))) if numeric else 0
    if kind is None:
        few = requested_levels is None and n_values <= categorical_max_distinct
        kind = CATEGORICAL if not numeric or few else CONTINUOUS

    if kind == CATEGORICAL:
        cats = x.tolist() if numeric else [column.cells[k] for k in seen.tolist()]
        return FeatureSpec(kind=CATEGORICAL, has_missing=has_missing,
                           name=name, categories=tuple(dict.fromkeys(cats)))

    if not numeric:
        raise ValidationError(f"feature {name!r}: non-numeric values in a continuous column")
    # the first of equal extremes, as Python's min and max give it (-0.0 vs 0.0)
    vmin, vmax = float(x[x.argmin()]), float(x[x.argmax()])
    levels = n_values if requested_levels is None else requested_levels
    if vmin == vmax:
        warnings.warn(f"feature {name!r} is constant; using a single degenerate bin")
        levels = 1
    elif levels < 2:
        raise ValidationError(f"feature {name!r}: need at least 2 levels")
    return FeatureSpec(kind=CONTINUOUS, has_missing=has_missing, name=name,
                       levels=levels, vmin=vmin, vmax=vmax)


def _missing_symbol(spec: FeatureSpec) -> int:
    if not spec.has_missing:
        raise SchemaMismatchError(
            f"feature {spec.name!r}: missing value but spec has no missing symbol")
    return spec.missing_symbol


def apply_quantizer(spec: FeatureSpec, column: RawColumn) -> np.ndarray:
    """Map the rows of a raw column to integer symbols under a fitted spec.

    A present continuous cell ``x`` maps to bin
    ``trunc((x - vmin) / (vmax - vmin) * levels)`` clipped to
    ``[0, levels - 1]``, so values outside [vmin, vmax] clamp to the edge
    bins; the float operations run in that order over the whole column.
    A categorical column resolves each distinct cell once, in order of first
    appearance, so the first offending cell in row order is the one that
    raises; unseen categories map to the missing symbol when one exists,
    otherwise raise.  A cell that is not a number, or not a finite one,
    where a number is expected raises ``ValidationError`` (a continuous
    column names its first cell that is not a number, if any).
    """
    codes = column.codes
    if spec.kind == CONTINUOUS:
        missing = codes < 0
        if missing.any():
            _missing_symbol(spec)  # raises when the spec has none
        present = codes[~missing]
        x = column.numbers[present]
        finite = np.isfinite(x)
        if not finite.all():  # a cell that is not a number reads NaN too
            number = column.is_number[present]
            what = "non-finite value" if number.all() else "could not convert string to float:"
            bad = present[finite.argmin() if number.all() else number.argmin()]
            raise ValidationError(f"feature {spec.name!r}: {what} {_cell(column, bad)!r}")
        span = spec.vmax - spec.vmin
        if span == 0:
            bins = np.zeros(x.size, dtype=np.int64)
        else:
            with np.errstate(over="ignore"):  # an overflow to +-inf clamps like any far value
                bins = np.trunc((x - spec.vmin) / span * spec.levels)
            bins = np.clip(bins, 0, spec.levels - 1).astype(np.int64)
        out = np.full(codes.size, spec.missing_symbol, dtype=np.int64)
        out[~missing] = bins
        return out

    index = {c: k for k, c in enumerate(spec.categories)}
    numeric_cats = isinstance(spec.categories[0], float)

    def symbol(k):
        if k < 0:
            return _missing_symbol(spec)
        key = column.cells[k]
        if numeric_cats and column.is_number[k]:
            key = float(column.numbers[k])
            if not math.isfinite(key):
                raise ValidationError(
                    f"feature {spec.name!r}: non-finite value {_cell(column, k)!r}")
        if key in index or spec.has_missing:
            return index.get(key, spec.missing_symbol)
        raise SchemaMismatchError(
            f"feature {spec.name!r}: unseen category {_cell(column, k)!r} and no missing symbol")

    table = np.empty(len(column.cells) + 1, dtype=np.int64)  # the last entry serves code -1
    for k in _first_seen(codes).tolist():
        table[k] = symbol(k)
    return table[codes]


@dataclass(frozen=True)
class QuantizedDataset:
    """Integer symbol columns plus integer class labels."""

    columns: tuple          # one int64 vector per feature, a row of ``symbols``
    cardinalities: tuple
    labels: np.ndarray
    n_class: int
    # the columns as one (n_features, n_rows) array, the tree walk's layer-0
    # input: derived, so not an init argument and not compared
    symbols: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        cols = tuple(np.asarray(c, dtype=np.int64) for c in self.columns)
        labels = np.asarray(self.labels, dtype=np.int64)
        if len(cols) != len(self.cardinalities):
            raise ValidationError("one cardinality per column required")
        n = labels.size
        for c, card in zip(cols, self.cardinalities):
            if c.size != n:
                raise ValidationError("columns and labels must have equal length")
            if c.size and (c.min() < 0 or c.max() >= card):
                raise ValidationError(f"symbols outside [0, {card})")
        if n and (labels.min() < 0 or labels.max() >= self.n_class):
            raise ValidationError(f"labels outside [0, {self.n_class})")
        symbols = np.array(cols, dtype=np.int64).reshape(len(cols), n)
        object.__setattr__(self, "symbols", symbols)
        object.__setattr__(self, "columns", tuple(symbols))
        object.__setattr__(self, "cardinalities", tuple(int(c) for c in self.cardinalities))
        object.__setattr__(self, "labels", labels)

    @property
    def n_rows(self) -> int:
        return self.labels.size

    @property
    def n_features(self) -> int:
        return len(self.columns)


def quantize_with(specs, data) -> QuantizedDataset:
    """Quantize every feature column of a raw table with its fitted spec."""
    return QuantizedDataset(
        columns=tuple(apply_quantizer(s, col) for s, col in zip(specs, data.columns)),
        cardinalities=tuple(s.cardinality for s in specs),
        labels=data.labels,
        n_class=len(data.classes),
    )
