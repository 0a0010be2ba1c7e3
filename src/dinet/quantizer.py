"""Map raw tabular columns onto finite integer alphabets.

Continuous columns get uniform bins between the observed training min and
max; categorical columns get a dictionary in first-appearance order.  A
column containing missing cells reserves one dedicated trailing symbol for
them.  Specs are fitted on training data only and then reused, clamping
out-of-range values to the edge bins, so nothing leaks from the test split.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

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


def _try_floats(values):
    """Parse every non-missing cell as float, or give up on the column."""
    out = []
    for v in values:
        if isinstance(v, (int, float)) and not isinstance(v, bool):
            out.append(float(v))
            continue
        try:
            out.append(float(str(v).strip()))
        except (TypeError, ValueError):
            return None
    return out


def fit_quantizer(raw_column, requested_levels: int | None = None,
                  kind: str | None = None, name: str = "",
                  categorical_max_distinct: int = CATEGORICAL_MAX_DISTINCT) -> FeatureSpec:
    """Fit a FeatureSpec on one raw column (missing cells are None).

    Kind resolution when not forced: non-numeric columns are categorical;
    numeric columns with at most ``categorical_max_distinct`` distinct
    values are treated as categorical symbols unless an explicit level
    count asks for binning; the rest are continuous.
    ``requested_levels=None`` means one bin per distinct training value.
    """
    values = list(raw_column)
    present = [v for v in values if v is not None]
    if not present:
        raise ValidationError(f"feature {name!r}: column is entirely missing")
    has_missing = len(present) < len(values)

    floats = _try_floats(present)
    if floats is not None and not all(map(math.isfinite, floats)):
        bad = next(v for v, f in zip(present, floats) if not math.isfinite(f))
        raise ValidationError(f"feature {name!r}: non-finite value {bad!r}")
    if kind is None:
        if floats is None:
            kind = CATEGORICAL
        elif requested_levels is None and len(set(floats)) <= categorical_max_distinct:
            kind = CATEGORICAL
        else:
            kind = CONTINUOUS

    if kind == CATEGORICAL:
        cats = dict.fromkeys(floats if floats is not None else present)
        return FeatureSpec(kind=CATEGORICAL, has_missing=has_missing,
                           name=name, categories=tuple(cats))

    if floats is None:
        raise ValidationError(f"feature {name!r}: non-numeric values in a continuous column")
    vmin, vmax = min(floats), max(floats)
    if vmin == vmax:
        warnings.warn(f"feature {name!r} is constant; using a single degenerate bin")
        return FeatureSpec(kind=CONTINUOUS, has_missing=has_missing, name=name,
                           levels=1, vmin=vmin, vmax=vmax)
    if requested_levels is None:
        levels = len(set(floats))
    else:
        if requested_levels < 2:
            raise ValidationError(f"feature {name!r}: need at least 2 levels")
        levels = requested_levels
    return FeatureSpec(kind=CONTINUOUS, has_missing=has_missing, name=name,
                       levels=levels, vmin=vmin, vmax=vmax)


def _missing_symbol(spec: FeatureSpec) -> int:
    if not spec.has_missing:
        raise SchemaMismatchError(
            f"feature {spec.name!r}: missing value but spec has no missing symbol")
    return spec.missing_symbol


def apply_quantizer(spec: FeatureSpec, raw_column) -> np.ndarray:
    """Map raw cells to integer symbols under a fitted spec.

    A present continuous cell ``x`` maps to bin
    ``trunc((x - vmin) / (vmax - vmin) * levels)`` clipped to
    ``[0, levels - 1]``, so values outside [vmin, vmax] clamp to the edge
    bins; the float operations run in that order over the whole column.
    A categorical column resolves each distinct cell once, in order of first
    appearance, so the first offending cell in row order is the one that
    raises; unseen categories map to the missing symbol when one exists,
    otherwise raise.  A non-numeric or non-finite cell where a number is
    expected raises ``ValidationError``.
    """
    n = len(raw_column)
    if spec.kind == CONTINUOUS:
        cells = np.fromiter(raw_column, dtype=object, count=n)
        missing = np.equal(cells, None)
        any_missing = missing.any()
        if any_missing:
            fill = _missing_symbol(spec)
            cells = cells[~missing]
        try:
            x = cells.astype(np.float64)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ValidationError(f"feature {spec.name!r}: {exc}") from None
        finite = np.isfinite(x)
        if not finite.all():
            bad = cells[np.argmin(finite)]
            raise ValidationError(f"feature {spec.name!r}: non-finite value {bad!r}")
        span = spec.vmax - spec.vmin
        if span == 0:
            bins = np.zeros(x.size, dtype=np.int64)
        else:
            with np.errstate(over="ignore"):  # an overflow to +-inf clamps like any far value
                bins = np.trunc((x - spec.vmin) / span * spec.levels)
            bins = np.clip(bins, 0, spec.levels - 1).astype(np.int64)
        if not any_missing:
            return bins
        out = np.full(n, fill, dtype=np.int64)
        out[~missing] = bins
        return out

    index = {c: k for k, c in enumerate(spec.categories)}
    numeric_cats = isinstance(spec.categories[0], float)

    def symbol(v):
        if v is None:
            return _missing_symbol(spec)
        key = v
        if numeric_cats and not isinstance(v, float):
            try:
                key = float(str(v).strip())
            except (TypeError, ValueError):
                key = v
        if numeric_cats and isinstance(key, float) and not math.isfinite(key):
            raise ValidationError(f"feature {spec.name!r}: non-finite value {v!r}")
        k = index.get(key)
        if k is not None:
            return k
        if spec.has_missing:
            return spec.missing_symbol
        raise SchemaMismatchError(
            f"feature {spec.name!r}: unseen category {v!r} and no missing symbol")

    lookup = {v: symbol(v) for v in dict.fromkeys(raw_column)}
    return np.fromiter(map(lookup.__getitem__, raw_column), dtype=np.int64, count=n)


@dataclass(frozen=True)
class QuantizedDataset:
    """Integer symbol columns plus integer class labels."""

    columns: tuple          # one int64 vector per feature
    cardinalities: tuple
    labels: np.ndarray
    n_class: int

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
        object.__setattr__(self, "columns", cols)
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
        labels=data.label_indices(),
        n_class=len(data.classes),
    )
