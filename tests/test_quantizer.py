import math
import re
import struct
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dinet import (
    QuantizedDataset,
    RawColumn,
    SchemaMismatchError,
    ValidationError,
    apply_quantizer,
    fit_quantizer,
    load_dataset,
    make_synthetic_ckd,
)
from dinet.quantizer import CATEGORICAL, CATEGORICAL_MAX_DISTINCT, CONTINUOUS, FeatureSpec

raw = RawColumn.from_cells


class TestFit:
    def test_uniform_split_of_range(self):
        spec = fit_quantizer(raw([0.0, 1.0, 2.0, 3.0]), requested_levels=2, name="x")
        assert spec.kind == "continuous"
        assert (spec.vmin, spec.vmax, spec.levels) == (0.0, 3.0, 2)
        assert list(apply_quantizer(spec, raw([0.0, 1.0, 2.0, 3.0]))) == [0, 0, 1, 1]

    def test_categorical_with_missing(self):
        spec = fit_quantizer(raw(["yes", "no", "yes", None]))
        assert spec.kind == "categorical"
        assert spec.categories == ("yes", "no")
        assert spec.has_missing and spec.missing_symbol == 2
        assert spec.cardinality == 3

    def test_few_distinct_numerics_become_categorical(self):
        spec = fit_quantizer(raw([1.005, 1.01, 1.005, 1.02]))
        assert spec.kind == "categorical"
        assert spec.cardinality == 3

    def test_default_levels_follow_distinct_count(self):
        spec = fit_quantizer(raw([float(v) for v in range(50)] * 2))
        assert spec.kind == "continuous"
        assert spec.levels == 50

    def test_all_missing_rejected(self):
        with pytest.raises(ValidationError):
            fit_quantizer(raw([None, None]))

    def test_constant_column_degenerates_with_warning(self):
        with pytest.warns(UserWarning):
            spec = fit_quantizer(raw([2.0, 2.0, None]), requested_levels=4)
        assert spec.levels == 1
        assert spec.has_missing
        assert list(apply_quantizer(spec, raw([2.0, None]))) == [0, 1]

    def test_too_few_levels_rejected(self):
        with pytest.raises(ValidationError):
            fit_quantizer(raw([float(v) for v in range(40)]), requested_levels=1)

    @pytest.mark.parametrize("cells", [[1.0, 2.0, 3.0, None], ["yes", "no", None]],
                             ids=["numeric", "text"])
    def test_an_unknown_kind_is_refused(self, cells):
        with pytest.raises(ValidationError, match="^feature 'x': unknown kind 'foo'$"):
            fit_quantizer(raw(cells), kind="foo", name="x")

    def test_refit_is_deterministic(self):
        col = raw([3.5, None, "7.25", 1.0, 9.0] * 3)
        assert fit_quantizer(col, requested_levels=3) == fit_quantizer(col, requested_levels=3)


class TestApply:
    def test_bin_edge_arithmetic(self):
        spec = fit_quantizer(raw([0.0, 1.0, 2.0, 3.0]), requested_levels=2)
        assert list(apply_quantizer(spec, raw([1.4, 1.6]))) == [0, 1]

    def test_clamp_outside_range(self):
        spec = fit_quantizer(raw([0.0, 3.0]), requested_levels=3, kind="continuous")
        assert list(apply_quantizer(spec, raw([-5.0, 99.0]))) == [0, 2]

    def test_missing_maps_to_missing_symbol(self):
        spec = fit_quantizer(raw([0.0, 3.0, None]), requested_levels=2, kind="continuous")
        assert apply_quantizer(spec, raw([None]))[0] == spec.missing_symbol

    def test_unseen_category_without_missing_symbol(self):
        spec = fit_quantizer(raw(["a", "b"]))
        with pytest.raises(SchemaMismatchError, match="unseen category"):
            apply_quantizer(spec, raw(["c"]))

    def test_unseen_category_falls_back_to_missing_symbol(self):
        spec = fit_quantizer(raw(["a", "b", None]))
        assert apply_quantizer(spec, raw(["c"]))[0] == spec.missing_symbol

    def test_order_preserved_for_continuous(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            col = list(rng.normal(size=60) * 10)
            spec = fit_quantizer(raw(col), requested_levels=int(rng.integers(2, 12)))
            vals = sorted(rng.normal(size=40) * 12)
            syms = apply_quantizer(spec, raw(vals))
            assert np.all(np.diff(syms) >= 0)

    def test_fit_column_round_trip_in_range(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            col = [None if rng.random() < 0.1 else float(v)
                   for v in rng.normal(size=80)]
            if all(v is None for v in col):
                continue
            spec = fit_quantizer(raw(col))
            syms = apply_quantizer(spec, raw(col))
            assert syms.min() >= 0 and syms.max() < spec.cardinality


class TestNonFinite:
    @pytest.mark.parametrize("cell", ["nan", " inf", "-inf ", float("nan"), float("inf")])
    def test_fit_rejects_non_finite_numeric_cells(self, cell):
        for levels in (None, 4):
            with pytest.raises(ValidationError, match="feature 'age': non-finite"):
                fit_quantizer(raw([1.0, 2.5, cell, None]), requested_levels=levels, name="age")

    def test_non_numeric_text_is_not_checked(self):
        spec = fit_quantizer(raw(["nan", "yes", "no"]), name="flag")
        assert spec.categories == ("nan", "yes", "no")
        assert apply_quantizer(spec, raw(["no", "nan"])).tolist() == [2, 0]

    @pytest.mark.parametrize("cell", ["nan", " inf", float("-inf")])
    def test_apply_rejects_non_finite_continuous_cells(self, cell):
        spec = fit_quantizer(raw([0.0, 1.0, 2.0, None]), requested_levels=2, name="age")
        with pytest.raises(ValidationError, match="feature 'age': non-finite"):
            apply_quantizer(spec, raw([1.0, None, cell]))

    @pytest.mark.parametrize("cell", ["nan", "inf", float("nan")])
    def test_apply_rejects_non_finite_numeric_categories(self, cell):
        spec = fit_quantizer(raw(["1", "2", None]), name="grade")
        assert spec.kind == "categorical"
        with pytest.raises(ValidationError, match="feature 'grade': non-finite"):
            apply_quantizer(spec, raw(["2", cell]))

    def test_non_numeric_cell_in_continuous_column_names_the_feature(self):
        spec = fit_quantizer(raw([0.0, 1.0, 2.0]), requested_levels=2, name="age")
        with pytest.raises(ValidationError, match="feature 'age': could not convert"):
            apply_quantizer(spec, raw(["1.0", "old"]))

    def test_spec_needs_a_finite_range(self):
        for vmin, vmax in [(0.0, float("nan")), (float("-inf"), 1.0), (-1e308, 1e308)]:
            with pytest.raises(ValidationError, match="finite range"):
                FeatureSpec(kind=CONTINUOUS, has_missing=False, name="x", levels=2,
                            vmin=vmin, vmax=vmax)

    @pytest.mark.parametrize("fields, message", [
        (dict(kind=CONTINUOUS, levels=0, vmin=0.0, vmax=1.0), "continuous spec needs levels >= 1"),
        (dict(kind=CONTINUOUS, vmin=0.0, vmax=1.0), "continuous spec needs levels >= 1"),
        (dict(kind=CATEGORICAL), "categorical spec needs a non-empty dictionary"),
        (dict(kind="wavelet"), "unknown feature kind 'wavelet'"),
    ], ids=["levels-zero", "levels-none", "no-categories", "unknown-kind"])
    def test_spec_refuses(self, fields, message):
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            FeatureSpec(has_missing=False, name="x", **fields)

    def test_values_far_outside_the_range_clamp(self):
        spec = FeatureSpec(kind=CONTINUOUS, has_missing=False, levels=4,
                           vmin=0.0, vmax=1e-300)
        assert apply_quantizer(spec, raw([-1e300, 1e300, 5e-301])).tolist() == [0, 3, 2]


def apply_quantizer_oracle(spec, raw_column):
    """The per-cell definition of apply_quantizer.

    A continuous column is checked whole first, in this order: a missing cell
    without a missing symbol, a cell that is not a number, a non-finite one.
    """
    n = len(raw_column)
    out = np.zeros(n, dtype=np.int64)
    if spec.kind == CONTINUOUS:
        if None in raw_column and not spec.has_missing:
            raise SchemaMismatchError(
                f"feature {spec.name!r}: missing value but spec has no missing symbol")
        numbers = {}
        for v in raw_column:
            if v is not None:
                try:
                    numbers[id(v)] = float(v) if not isinstance(v, str) else float(v.strip())
                except ValueError:
                    raise ValidationError(f"feature {spec.name!r}: could not convert "
                                          f"string to float: {v!r}") from None
        for v in raw_column:
            if v is not None and not math.isfinite(numbers[id(v)]):
                raise ValidationError(f"feature {spec.name!r}: non-finite value {v!r}")
        span = spec.vmax - spec.vmin
        for i, v in enumerate(raw_column):
            if v is None:
                out[i] = spec.missing_symbol
                continue
            x = numbers[id(v)]
            if span == 0:
                out[i] = 0
            else:
                b = int((x - spec.vmin) / span * spec.levels)
                out[i] = min(max(b, 0), spec.levels - 1)
        return out

    index = {c: k for k, c in enumerate(spec.categories)}
    numeric_cats = spec.categories and isinstance(spec.categories[0], float)
    for i, v in enumerate(raw_column):
        if v is None:
            if not spec.has_missing:
                raise SchemaMismatchError(
                    f"feature {spec.name!r}: missing value but spec has no missing symbol")
            out[i] = spec.missing_symbol
            continue
        key = v
        if numeric_cats and not isinstance(v, float):
            try:
                key = float(str(v).strip())
            except (TypeError, ValueError):
                key = v
        if numeric_cats and isinstance(key, float) and not math.isfinite(key):
            raise ValidationError(f"feature {spec.name!r}: non-finite value {v!r}")
        k = index.get(key)
        if k is None:
            if spec.has_missing:
                out[i] = spec.missing_symbol
            else:
                raise SchemaMismatchError(
                    f"feature {spec.name!r}: unseen category {v!r} and no missing symbol")
        else:
            out[i] = k
    return out


def outcome(fn, *args):
    try:
        return "ok", fn(*args).tolist()
    except Exception as exc:  # the error cases must match in type and message
        return type(exc), str(exc)


SPACE = st.sampled_from(["", " ", "\t", " \n"])
FINITE = st.one_of(st.floats(-1e6, 1e6), st.just(-0.0), st.integers(-10**6, 10**6))


def padded(x):
    """A number as CSV text, with stray whitespace around it."""
    return st.tuples(SPACE, SPACE).map(lambda lr: f"{lr[0]}{x!r}{lr[1]}")


@st.composite
def continuous_cases(draw):
    vmin = draw(st.floats(-1e3, 1e3))
    span = draw(st.one_of(st.just(0.0), st.floats(1e-3, 1e3)))
    levels = draw(st.integers(1, 12))
    spec = FeatureSpec(kind=CONTINUOUS, has_missing=draw(st.booleans()), name="x",
                       levels=levels, vmin=vmin, vmax=vmin + span)
    edges = [spec.vmin + k * (spec.vmax - spec.vmin) / levels for k in range(levels + 1)]
    number = st.one_of(FINITE, st.sampled_from(edges))
    cell = st.one_of(st.none(), number, number.flatmap(padded))
    return spec, draw(st.lists(cell, max_size=30))


@st.composite
def categorical_cases(draw):
    if draw(st.booleans()):
        cats = draw(st.lists(st.one_of(st.floats(-50, 50), st.just(-0.0)),
                             min_size=1, max_size=6, unique=True))
        known = st.sampled_from(cats)
        cell = st.one_of(known, known.flatmap(padded), FINITE, FINITE.flatmap(padded),
                         st.sampled_from(["yes", "1.5.2", ""]))
    else:
        words = st.text(alphabet="abxy ", max_size=3)
        cats = draw(st.lists(words, min_size=1, max_size=6, unique=True))
        cell = st.one_of(st.sampled_from(cats), words, FINITE)
    spec = FeatureSpec(kind=CATEGORICAL, has_missing=draw(st.booleans()), name="c",
                       categories=tuple(cats))
    return spec, draw(st.lists(st.one_of(st.none(), cell), max_size=30))


class TestApplyMatchesPerCellDefinition:
    @settings(max_examples=400, deadline=None)
    @given(continuous_cases())
    def test_continuous(self, case):
        spec, column = case
        assert outcome(apply_quantizer, spec, raw(column)) == outcome(apply_quantizer_oracle,
                                                                      spec, column)

    @settings(max_examples=400, deadline=None)
    @given(categorical_cases())
    def test_categorical(self, case):
        spec, column = case
        assert outcome(apply_quantizer, spec, raw(column)) == outcome(apply_quantizer_oracle,
                                                                      spec, column)

    def test_first_offending_cell_in_row_order_raises(self):
        spec = fit_quantizer(raw(["a", "b"]), name="c")
        column = raw(["a", "zz", None, "q", "zz"])
        with pytest.raises(SchemaMismatchError, match="unseen category 'zz'"):
            apply_quantizer(spec, column)
        with pytest.raises(SchemaMismatchError, match="missing value"):
            apply_quantizer(spec, raw(["b", None, "zz"]))


# The per-cell fit as it was before columns were parsed once, kept verbatim
# as the reference that the fit on a parsed column must match.

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


def fit_quantizer_reference(raw_column, requested_levels: int | None = None,
                            kind: str | None = None, name: str = "",
                            categorical_max_distinct: int = CATEGORICAL_MAX_DISTINCT
                            ) -> FeatureSpec:
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


def fit_then_apply(fit, apply, train, test, options):
    """The spec's repr, the warnings of the fit, and the outcome of applying it to ``test``."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            spec = fit(train, **options)
        except Exception as exc:  # the error cases must match in type and message
            return type(exc), str(exc)
    return repr(spec), [str(w.message) for w in caught], outcome(apply, spec, test)


NAN = float("nan")
NUMBER = st.one_of(st.integers(-12, 12).map(lambda k: k / 4), st.integers(-3, 3),
                   st.sampled_from([0.0, -0.0, 1e300]))
NUMBER_TEXT = st.one_of(NUMBER.flatmap(padded),
                        st.sampled_from(["1_000", " 1_000 ", "-0", " 0.0", "-0.0 ", "1e3"]))
NON_FINITE = st.one_of(st.sampled_from(["nan", " inf", "-inf ", NAN, float("inf")]),
                       st.builds(float, st.just("nan")))  # a new NaN object each time
TEXT = st.sampled_from(["yes", "no", " yes", "1.5.2", "", "nan!"])


@st.composite
def split_columns(draw):
    """A column drawn from a few distinct cells, and the rows of a split of it."""
    numeric = st.one_of(st.none(), NUMBER, NUMBER_TEXT)
    anything = st.one_of(numeric, NON_FINITE, TEXT)
    train_pool = draw(st.lists(draw(st.sampled_from([numeric, anything])), min_size=1,
                               max_size=8))
    test_pool = draw(st.lists(anything, min_size=1, max_size=4)) + train_pool
    train = draw(st.lists(st.sampled_from(train_pool), min_size=1, max_size=25))
    test = draw(st.lists(st.sampled_from(test_pool), max_size=25))
    order = draw(st.permutations(range(len(train) + len(test))))
    cells = [None] * len(order)
    for row, v in zip(order, train + test):
        cells[row] = v
    options = dict(requested_levels=draw(st.sampled_from([None, 2, 5])),
                   kind=draw(st.sampled_from([None, CATEGORICAL, CONTINUOUS])), name="f",
                   categorical_max_distinct=draw(st.sampled_from([16, 3])))
    return cells, order[:len(train)], order[len(train):], options


class TestFitMatchesPerCellReference:
    @settings(max_examples=800, deadline=None)
    @given(split_columns())
    # a text column with two infinite cells: its distinct numbers were counted, inf - inf
    @example(([float("inf"), "yes", " inf"], [0, 1, 2], [],
              dict(requested_levels=None, kind=None, name="f", categorical_max_distinct=16)))
    def test_fit_and_apply_on_a_split(self, case):
        cells, train_rows, test_rows, options = case
        column = raw(cells)
        got = fit_then_apply(fit_quantizer, apply_quantizer, column.take(train_rows),
                             column.take(test_rows), options)
        want = fit_then_apply(fit_quantizer_reference, apply_quantizer_oracle,
                              [cells[r] for r in train_rows], [cells[r] for r in test_rows],
                              options)
        assert got == want

    @pytest.mark.parametrize("cells, vmin, vmax", [
        ([0.0, -0.0, 3.0], "0.0", "3.0"), ([-0.0, 0.0, 3.0], "-0.0", "3.0"),
        ([-3.0, "0", -0.0], "-3.0", "0.0"), ([-3.0, "-0.0", 0.0], "-3.0", "-0.0")])
    def test_first_of_equal_extremes_keeps_its_sign(self, cells, vmin, vmax):
        spec = fit_quantizer(raw(cells), requested_levels=2)
        assert (repr(spec.vmin), repr(spec.vmax)) == (vmin, vmax)
        assert repr(spec) == repr(fit_quantizer_reference(cells, requested_levels=2))

    def test_training_rows_numeric_test_rows_text(self):
        column = raw(["1", "2.5", "yes", " 3 ", "1_000", None])
        spec = fit_quantizer(column.take([0, 1, 3, 4]), requested_levels=2, name="f")
        assert spec.kind == CONTINUOUS and (spec.vmin, spec.vmax) == (1.0, 1000.0)
        with pytest.raises(ValidationError, match="could not convert string to float: 'yes'"):
            apply_quantizer(spec, column.take(range(5)))

    def test_cells_are_parsed_once_per_distinct_cell(self):
        column = raw(["1", None, 1, 1.0, "1", -0.0, 0.0, NAN, NAN, "yes"])
        assert column.cells == ("1", 1, 1.0, -0.0, 0.0, NAN, "yes")
        assert column.codes.tolist() == [0, -1, 1, 2, 0, 3, 4, 5, 5, 6]
        assert column.is_number.tolist() == [True] * 6 + [False]
        assert repr(column.numbers.tolist()[:5]) == "[1.0, 1.0, 1.0, -0.0, 0.0]"


def bits(v):
    return None if v is None else struct.pack("<d", v)


class TestFloatColumn:
    """A column of floats keeps each distinct value once, as a read-only float64 array."""

    def test_keeps_under_24_bytes_per_row(self):
        rng = np.random.default_rng(0)
        cells = rng.normal(size=20_000).tolist()  # distinct floats
        for r in rng.choice(len(cells), 1_200, replace=False).tolist():  # 6% missing
            cells[r] = None
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            column = raw(cells)
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert kept < 24 * len(cells)
        assert column.cells is column.numbers and column.cells.size == 18_800

    def test_the_synthetic_tables_numeric_columns_are_arrays(self):
        data = make_synthetic_ckd(n_rows=50, seed=0)
        for column, kind in zip(data.columns, data.kinds):
            assert (column.cells is column.numbers) == (kind == "numeric")
        assert isinstance(data.classes, tuple)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.one_of(st.none(), st.floats(),
                              st.sampled_from([-0.0, 0.0, math.inf, -math.inf])), max_size=30))
    def test_cells_read_back_bit_for_bit(self, cells):
        column = raw(cells)
        got = [None if k < 0 else float(column.cells[k]) for k in column.codes.tolist()]
        assert list(map(bits, got)) == list(map(bits, cells))
        nan = any(v is not None and math.isnan(v) for v in cells)
        assert (column.cells is column.numbers) == (not nan)
        for a in (column.cells, column.numbers, column.is_number, column.codes):
            assert not isinstance(a, np.ndarray) or not a.flags.writeable

    def pins(self, column, fit_rows, other_rows):
        """The messages of fitting ``column`` whole, of applying its continuous
        fit on ``fit_rows`` to it, and of applying its categorical fit on
        ``fit_rows`` to ``other_rows``."""
        def message(fn, *args):
            with pytest.raises((ValidationError, SchemaMismatchError)) as caught:
                fn(*args)
            return str(caught.value)

        train = column.take(fit_rows)
        continuous = fit_quantizer(train, requested_levels=2, name="age")
        categorical = fit_quantizer(train, name="age")
        assert (continuous.kind, categorical.kind) == (CONTINUOUS, CATEGORICAL)
        return (message(fit_quantizer, column, None, None, "age"),
                message(apply_quantizer, continuous, column),
                message(apply_quantizer, categorical, column.take(other_rows)))

    PINS = ("feature 'age': non-finite value inf",
            "feature 'age': non-finite value inf",
            "feature 'age': unseen category 2.5 and no missing symbol")

    def test_messages_print_python_values(self):
        column = raw([1.0, 2.0, math.inf, 2.5, 1.0])
        assert self.pins(column, [0, 1], [4, 3]) == self.PINS
        assert column.cells is column.numbers
        spec = fit_quantizer(column.take([0, 1]), name="age")
        with pytest.raises(ValidationError) as caught:
            apply_quantizer(spec, raw([2.0, -math.inf]))
        assert str(caught.value) == "feature 'age': non-finite value -inf"

    def test_messages_of_an_arff_numeric_column(self, tmp_path):
        path = tmp_path / "t.arff"
        path.write_text("@relation r\n@attribute age numeric\n@attribute class {p,q}\n@data\n"
                        "1,p\n2,q\n inf ,p\n2.5,q\n1.0,p\n")
        data = load_dataset(path, format="arff")
        column = data.columns[0]
        assert self.pins(column, [0, 1], [4, 3]) == self.PINS
        assert isinstance(data.classes, tuple) and data.classes == ("p", "q")
        assert column.cells is column.numbers and not column.cells.flags.writeable


class TestQuantizedDataset:
    def test_validates_symbol_range(self):
        with pytest.raises(ValidationError):
            QuantizedDataset(columns=(np.array([0, 3]),), cardinalities=(2,),
                             labels=np.array([0, 1]), n_class=2)

    def test_validates_lengths(self):
        with pytest.raises(ValidationError):
            QuantizedDataset(columns=(np.array([0]),), cardinalities=(2,),
                             labels=np.array([0, 1]), n_class=2)

    def test_validates_cardinality_count(self):
        with pytest.raises(ValidationError, match="^one cardinality per column required$"):
            QuantizedDataset(columns=(np.array([0, 1]),), cardinalities=(2, 2),
                             labels=np.array([0, 1]), n_class=2)

    @pytest.mark.parametrize("label", [-1, 2])
    def test_validates_label_range(self, label):
        with pytest.raises(ValidationError, match=r"^labels outside \[0, 2\)$"):
            QuantizedDataset(columns=(np.array([0, 1]),), cardinalities=(2,),
                             labels=np.array([0, label]), n_class=2)

    def test_accepts_consistent_data(self):
        q = QuantizedDataset(columns=(np.array([0, 1]), np.array([2, 0])),
                             cardinalities=(2, 3), labels=np.array([0, 1]), n_class=2)
        assert q.n_rows == 2 and q.n_features == 2

    @pytest.mark.parametrize("n_features, n_rows", [(2, 3), (1, 0), (0, 4), (0, 0)])
    def test_columns_are_the_rows_of_one_symbol_array(self, n_features, n_rows):
        columns = [np.arange(n_rows) % 2 + k for k in range(n_features)]
        q = QuantizedDataset(columns=[c.tolist() for c in columns],
                             cardinalities=(n_features + 1,) * n_features,
                             labels=np.zeros(n_rows, dtype=np.int64), n_class=1)
        assert q.symbols.shape == (n_features, n_rows) and q.symbols.dtype == np.int64
        assert len(q.columns) == n_features
        for column, row, want in zip(q.columns, q.symbols, columns):
            assert column.dtype == np.int64
            assert n_rows == 0 or np.shares_memory(column, q.symbols)
            assert np.array_equal(column, want) and np.array_equal(row, want)
