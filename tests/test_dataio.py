import dataclasses
import hashlib
import json
import re
import tempfile
import warnings
import zipfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from dinet import (
    DatasetFormatError,
    ModelFormatError,
    ModelVersionError,
    RawColumn,
    RawDataset,
    ValidationError,
    load_dataset,
    load_model,
    make_synthetic_ckd,
    save_model,
    split,
)
from dinet.dataio import MODEL_VERSION, check_ckd_shape, fetch_ckd, json_error
from dinet.errors import ConfigError, ResourceError
from tests.test_network import small_trees

CSV_BODY = """age,grade,flag,class
48,2,yes,ckd
?,1,no,ckd
60,0,,notckd
33,?,yes,notckd
"""

# mimics the real kidney file's quirks: tabs in cells, stray spaces,
# quoted attribute names, a trailing comma
ARFF_BODY = """% toy kidney-style file
@relation kidney
@attribute 'age' numeric
@attribute 'grade' {0,1,2}
@attribute flag {yes,no}
@attribute 'class' {ckd,notckd}
@data
48,\t2,yes,ckd
?,1,\tno,ckd
60, 0,?,notckd
33,2, yes ,notckd,
"""


def row_cells(column):
    """A parsed column's cell of each row, None where the row is missing."""
    return [None if k < 0 else column.cells[k] for k in column.codes.tolist()]


@pytest.fixture()
def csv_file(tmp_path):
    p = tmp_path / "toy.csv"
    p.write_text(CSV_BODY)
    return p


@pytest.fixture()
def arff_file(tmp_path):
    p = tmp_path / "toy.arff"
    p.write_text(ARFF_BODY)
    return p


class TestCSV:
    def test_loads_with_missing_tokens(self, csv_file):
        data = load_dataset(csv_file, format="csv", target="class")
        assert data.n_rows == 4 and data.n_features == 3
        assert row_cells(data.columns[0])[1] is None          # "?"
        assert row_cells(data.columns[2])[2] is None          # empty cell
        assert data.classes == ("ckd", "notckd")
        assert data.labels.tolist() == [0, 0, 1, 1]

    def test_features_keep_narrow_codes_and_labels_are_int64(self, csv_file):
        data = load_dataset(csv_file, format="csv", target="class")
        assert [col.codes.dtype for col in data.columns] == [np.int8] * 3
        assert data.labels.dtype == np.int64 and data.labels.tolist() == [0, 0, 1, 1]

    def test_cells_stay_text_and_are_parsed_once(self, csv_file):
        data = load_dataset(csv_file, format="csv", target="class")
        age = data.columns[0]
        assert row_cells(age) == ["48", None, "60", "33"]
        assert age.numbers.tolist() == [48.0, 60.0, 33.0] and age.is_number.all()
        assert row_cells(data.columns[2]) == ["yes", "no", None, "yes"]
        assert data.columns[2].cells == ("yes", "no")

    @pytest.mark.parametrize("header, name", [("x,class,class", "class"),
                                              ("class,x,'class'", "class"), ("x, x,class", "x")])
    def test_a_column_named_twice_is_refused(self, tmp_path, header, name):
        # before, "x,class,class" loaded its second class column as a feature
        p = tmp_path / "twice.csv"
        p.write_text(f"\n{header}\n1,2,3\n")
        with pytest.raises(DatasetFormatError,
                           match=re.escape(f"{p}: line 2: column {name!r} is named twice")):
            load_dataset(p, format="csv", target="class")

    def test_missing_target_column(self, csv_file):
        # the message names the header's line and the columns, as ARFF's does
        with pytest.raises(DatasetFormatError, match=re.escape(
                f"{csv_file}: line 1: target column 'y' is not among the columns "
                "['age', 'grade', 'flag', 'class']")):
            load_dataset(csv_file, format="csv", target="y")

    def test_malformed_row_names_line(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("a,b,class\n1,2,x\n1,2,3,4,x\n")
        with pytest.raises(DatasetFormatError, match="line 3"):
            load_dataset(p, format="csv", target="class")

    def test_missing_file_names_path(self, tmp_path):
        with pytest.raises(DatasetFormatError, match="nowhere.csv"):
            load_dataset(tmp_path / "nowhere.csv", format="csv", target="class")

    def test_unknown_format(self, csv_file):
        with pytest.raises(ConfigError):
            load_dataset(csv_file, format="parquet", target="class")

    def test_unknown_format_is_refused_before_the_path(self):
        with pytest.raises(ConfigError, match="^unknown dataset format 'xml'$"):
            load_dataset("absent.csv", format="xml")


class TestARFF:
    def test_declarations_drive_kinds(self, arff_file):
        data = load_dataset(arff_file, format="arff", target="class")
        assert data.n_rows == 4 and data.n_features == 3
        assert data.kinds == ("numeric", "nominal", "nominal")
        assert row_cells(data.columns[0])[0] == 48.0          # parsed float
        assert isinstance(row_cells(data.columns[0])[0], float)
        assert row_cells(data.columns[1])[0] == "2"           # nominal stays a string
        assert row_cells(data.columns[2])[1] == "no"          # tab stripped

    def test_features_keep_narrow_codes_and_labels_are_int64(self, arff_file):
        # the numeric column is rebuilt from its numbers, and keeps narrow codes too
        data = load_dataset(arff_file, format="arff", target="class")
        assert [col.codes.dtype for col in data.columns] == [np.int8] * 3
        assert data.labels.dtype == np.int64 and data.labels.tolist() == [0, 0, 1, 1]

    def test_missing_target_column(self, arff_file):
        # the message names the @data line and the columns, as CSV's does
        with pytest.raises(DatasetFormatError, match=re.escape(
                f"{arff_file}: line 7: target column 'y' is not among the columns "
                "['age', 'grade', 'flag', 'class']")):
            load_dataset(arff_file, format="arff", target="y")

    def test_a_numeric_column_keeps_each_number_once(self, tmp_path):
        # before, the distinct texts "1", "1.0" and "01" were three cells of 1.0
        p = tmp_path / "numbers.arff"
        p.write_text("@attribute a numeric\n@attribute class {p,q}\n@data\n"
                     "1,p\n1.0,q\n?,p\n01,q\n-0.0,p\n0.0,q\n-0,p\n")
        a = load_dataset(p, format="arff", target="class").columns[0]
        assert np.array_equal(a.cells, [1.0, -0.0, 0.0])
        assert np.signbit(a.cells).tolist() == [False, True, False]
        assert a.cells is a.numbers and a.codes.tolist() == [0, 0, -1, 0, 1, 2, 1]

    def test_missing_cells(self, arff_file):
        data = load_dataset(arff_file, format="arff", target="class")
        assert row_cells(data.columns[0])[1] is None
        assert row_cells(data.columns[2])[2] is None

    def test_a_column_named_twice_is_refused(self, tmp_path):
        p = tmp_path / "twice.arff"
        p.write_text("@relation r\n@attribute x numeric\n@attribute class {p,q}\n"
                     "@attribute 'class' {p,q}\n@data\n1,p,q\n")
        with pytest.raises(DatasetFormatError,
                           match=re.escape(f"{p}: line 4: column 'class' is named twice")):
            load_dataset(p, format="arff", target="class")

    def test_non_numeric_cell_of_a_numeric_attribute_names_its_first_line(self, tmp_path):
        p = tmp_path / "bad.arff"
        p.write_text("@attribute a numeric\n@attribute class {x,y}\n@data\n"
                     "1,x\nabc,y\n2,x\nabc,x\n")
        with pytest.raises(DatasetFormatError, match=re.escape(
                f"{p}: line 5, column 'a': non-numeric value 'abc' in a numeric attribute")):
            load_dataset(p, format="arff", target="class")

    def test_field_count_error_names_line(self, tmp_path):
        p = tmp_path / "bad.arff"
        p.write_text("@relation r\n@attribute a numeric\n@attribute class {x,y}\n"
                     "@data\n1,x\n1,2,3,x\n")
        with pytest.raises(DatasetFormatError, match="line 6"):
            load_dataset(p, format="arff", target="class")

    @pytest.mark.parametrize("quote", ["'", '"'])
    def test_quoted_value_may_hold_a_comma(self, tmp_path, quote):
        p = tmp_path / "quoted.arff"
        p.write_text(f"@attribute a {{{quote}x,y{quote},z}}\n@attribute class {{p,q}}\n@data\n"
                     f"{quote}x,y{quote},p\n z , q\n")
        data = load_dataset(p, format="arff", target="class")
        assert [row_cells(c) for c in data.columns] == [["x,y", "z"]]
        assert data.labels.tolist() == [0, 1] and data.classes == ("p", "q")

    @pytest.mark.parametrize("row", ["'x,y,p", ' "x,y, p', "z,'p"])
    def test_unterminated_quote_names_its_line(self, tmp_path, row):
        p = tmp_path / "open.arff"
        p.write_text(f"@attribute a {{'x,y',z}}\n@attribute class {{p,q}}\n@data\nz,p\n{row}\n")
        with pytest.raises(DatasetFormatError, match=r": line 5: unterminated . quote"):
            load_dataset(p, format="arff", target="class")

    def test_undeclared_nominal_values_warn_and_load(self, tmp_path):
        p = tmp_path / "undeclared.arff"
        p.write_text("@attribute a {x,y}\n@attribute class {p,q}\n@data\nw,p\nx,r\n")
        with pytest.warns(UserWarning) as record:
            data = load_dataset(p, format="arff", target="class")
        assert [str(w.message) for w in record] == [
            f"{p}: line 4: column 'a' holds 'w', which is not in its declared nominal set",
            f"{p}: line 5: column 'class' holds 'r', which is not in its declared nominal set"]
        assert [row_cells(c) for c in data.columns] == [["w", "x"]]
        assert data.labels.tolist() == [0, 1] and data.classes == ("p", "r")

    def test_repeated_undeclared_values_warn_once_at_the_first(self, tmp_path):
        p = tmp_path / "undeclared.arff"
        p.write_text("@attribute a {x,y}\n@attribute class {p,q}\n@data\nw,p\nx,q\nv,p\nw,q\n")
        with pytest.warns(UserWarning) as record:
            load_dataset(p, format="arff", target="class")
        assert [str(w.message) for w in record] == [
            f"{p}: line 4: column 'a' holds 'w', which is not in its declared nominal set"]

    def test_declared_values_do_not_warn(self, arff_file):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            load_dataset(arff_file, format="arff", target="class")

    def test_no_data_section(self, tmp_path):
        p = tmp_path / "empty.arff"
        p.write_text("@relation r\n@attribute a numeric\n")
        with pytest.raises(DatasetFormatError, match="@data"):
            load_dataset(p, format="arff", target="class")

    @pytest.mark.parametrize("rows", ["", "1,2\n"])
    def test_data_before_any_attribute(self, tmp_path, rows):
        p = tmp_path / "early.arff"
        p.write_text(f"@relation r\n@data\n{rows}")
        with pytest.raises(DatasetFormatError, match=re.escape(
                f"{p}: line 2: not a usable ARFF file "
                "(it needs @attribute lines and a @data section)")):
            load_dataset(p, format="arff", target="class")

    def test_shape_check_guards_substitutes(self, arff_file):
        data = load_dataset(arff_file, format="arff", target="class")
        with pytest.raises(DatasetFormatError, match="rows"):
            check_ckd_shape(data)

    def test_shape_check_names_other_classes(self):
        # the kidney table's shape, 400 rows and 24 features, with other class names
        with pytest.raises(DatasetFormatError, match=re.escape(
                "unexpected kidney-disease table: classes ['sick', 'healthy'] "
                "(expected ckd/notckd)")):
            check_ckd_shape(make_synthetic_ckd(n_rows=400, seed=0))


class TestRawDataset:
    @pytest.mark.parametrize("change, message", [
        (dict(feature_names=("f", "g")), "one column per feature name required"),
        (dict(labels=np.array([0, 1])), "column 'f' has 3 rows, target has 2"),
        (dict(labels=np.array([0, 1, 2])), "labels outside [0, 2)"),
        (dict(labels=np.array([0, -1, 1])), "labels outside [0, 2)"),
    ], ids=["names", "rows", "label-above", "label-below"])
    def test_refuses(self, change, message):
        fields = dict(feature_names=("f",), columns=(RawColumn.from_cells(["a", "b", None]),),
                      target_name="class", labels=np.array([0, 1, 0]), classes=("x", "y"))
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            RawDataset(**{**fields, **change})


def write_table(data, path, fmt, classes=None):
    """Write a table as CSV or ARFF text, its target column last, named by ``classes``."""
    classes = classes or data.classes
    if fmt == "csv":
        lines = [",".join(data.feature_names + (data.target_name,))]
    else:
        lines = ["@relation table"]
        for name, kind, col in zip(data.feature_names, data.kinds, data.columns):
            values = "numeric" if kind == "numeric" else "{" + ",".join(sorted(col.cells)) + "}"
            lines.append(f"@attribute '{name}' {values}")
        lines += [f"@attribute '{data.target_name}' {{{','.join(classes)}}}", "@data"]
    for r in range(data.n_rows):
        cells = ["?" if col.codes[r] < 0 else str(col.cells[col.codes[r]]) for col in data.columns]
        lines.append(",".join(cells + [classes[data.labels[r]]]))
    path.write_text("\n".join(lines) + "\n")


def write_ckd_shaped_arff(path):
    """A 400x24 table with ckd/notckd labels, mimicking the published shape."""
    data = dataclasses.replace(make_synthetic_ckd(n_rows=400, seed=1), target_name="class")
    write_table(data, path, "arff", classes=("ckd", "notckd"))


class TestFetch:
    @pytest.fixture()
    def archive(self, tmp_path):
        arff = tmp_path / "chronic_kidney_disease_full.arff"
        write_ckd_shaped_arff(arff)
        zip_path = tmp_path / "ckd.zip"
        with zipfile.ZipFile(zip_path, "w") as zf:
            zf.write(arff, "Chronic_Kidney_Disease/chronic_kidney_disease_full.arff")
        return zip_path

    def test_fetch_extracts_and_validates(self, archive, tmp_path):
        dest = tmp_path / "data"
        digest = hashlib.sha256(archive.read_bytes()).hexdigest()
        out = fetch_ckd(dest, url=archive.as_uri(), sha256=digest)
        assert out.exists() and out.name.endswith("full.arff")
        data = load_dataset(out, format="arff", target="class")
        check_ckd_shape(data)

    def test_fetch_rejects_wrong_checksum(self, archive, tmp_path):
        with pytest.raises(DatasetFormatError, match="checksum"):
            fetch_ckd(tmp_path / "data", url=archive.as_uri(), sha256="0" * 64)

    def test_unreadable_url_names_it(self, tmp_path):
        url = (tmp_path / "missing.zip").as_uri()
        with pytest.raises(ResourceError, match=re.escape(f"cannot download {url}")):
            fetch_ckd(tmp_path / "data", url=url)

    def test_unwritable_destination_names_it(self, archive, tmp_path):
        dest = archive / "data"  # below a file
        with pytest.raises(ResourceError, match=re.escape(f"cannot write {dest}")):
            fetch_ckd(dest, url=archive.as_uri())

    def test_archive_that_is_no_zip(self, tmp_path):
        blob = tmp_path / "ckd.zip"
        blob.write_text("not a zip archive")
        with pytest.raises(DatasetFormatError, match="zip"):
            fetch_ckd(tmp_path / "data", url=blob.as_uri())

    @pytest.mark.parametrize("pinned", [True, False], ids=["sha256", "unverified"])
    def test_fetch_data_prints_the_table_path(self, archive, tmp_path, capsys, pinned):
        from dinet.cli import main

        dest = tmp_path / "data"
        argv = ["fetch-data", "--dest", str(dest), "--url", archive.as_uri()]
        if pinned:
            argv += ["--sha256", hashlib.sha256(archive.read_bytes()).hexdigest()]
        assert main(argv) == 0
        out, err = capsys.readouterr()
        assert json.loads(out) == {"dataset": str(dest / "chronic_kidney_disease_full.arff")}
        assert [json.loads(line) for line in err.splitlines()] == ([] if pinned else [
            {"warning": "archive checksum not verified; pass --sha256 to pin it"}])

    def test_fetch_data_of_an_archive_without_arff_exits_2(self, archive, tmp_path, capsys):
        from dinet.cli import main

        with zipfile.ZipFile(archive, "w") as zf:
            zf.writestr("Chronic_Kidney_Disease/README.txt", "no table here")
        code = main(["fetch-data", "--dest", str(tmp_path / "data"), "--url", archive.as_uri()])
        out, err = capsys.readouterr()
        assert (code, out) == (2, "")
        assert [json.loads(line) for line in err.splitlines()] == [
            {"error": "DatasetFormatError", "message": "archive contained no ARFF files"}]


class TestRealKidneyTable:
    """Sanity checks on the fetched UCI file (skipped until fetched)."""

    def test_published_shape(self, ckd_arff):
        data = load_dataset(ckd_arff, format="arff", target="class")
        check_ckd_shape(data)
        assert int((data.labels == data.classes.index("ckd")).sum()) == 250

    def test_quantized_cardinalities_in_published_range(self, ckd_arff):
        from dinet.cli import QuantizerConfig, fit_quantizers

        data = load_dataset(ckd_arff, format="arff", target="class")
        specs = fit_quantizers(data, QuantizerConfig())
        cards = [s.cardinality for s in specs]
        assert min(cards) >= 2
        assert max(cards) <= 471
        assert max(cards) > 50      # the fine-grained lab features


class TestSplit:
    @pytest.fixture()
    def data(self):
        return make_synthetic_ckd(n_rows=120, seed=0)

    def test_disjoint_and_exhaustive(self, data):
        train, test = split(data, 80, seed=1)
        assert train.n_rows == 80 and test.n_rows == 40
        together = sorted(map(repr, row_cells(train.columns[0]) + row_cells(test.columns[0])))
        assert together == sorted(map(repr, row_cells(data.columns[0])))

    def test_same_seed_same_split(self, data):
        a = split(data, 50, seed=9)
        b = split(data, 50, seed=9)
        assert np.array_equal(a[0].labels, b[0].labels)
        assert np.array_equal(a[1].labels, b[1].labels)

    def test_balanced_counts(self, data):
        train, test = split(data, 40, seed=2, stratify="balanced",
                            positive_fraction=0.5, positive_label="sick")
        n_pos = int((train.labels == train.classes.index("sick")).sum())
        assert n_pos == 20 and train.n_rows == 40
        assert test.n_rows == 80

    def test_infeasible_mix_reports_counts(self, data):
        with pytest.raises(ValidationError, match="positive"):
            split(data, 119, seed=0, stratify="balanced",
                  positive_fraction=0.9, positive_label="sick")

    def test_bad_n_train(self, data):
        with pytest.raises(ValidationError):
            split(data, 120, seed=0)

    def test_n_train_of_zero(self, data):
        with pytest.raises(ValidationError, match=re.escape(
                "split.n_train must be below the table's 120 rows and above 0, got 0")):
            split(data, 0, seed=0)

    @pytest.mark.parametrize("fraction", [1.5, -0.5])
    def test_positive_fraction_outside_unit_interval(self, data, fraction):
        with pytest.raises(ValidationError, match="positive_fraction"):
            split(data, 20, seed=0, stratify="balanced",
                  positive_fraction=fraction, positive_label="sick")

    @pytest.mark.parametrize("label", [None, "ckd"])
    def test_balanced_needs_a_positive_label_of_the_table(self, data, label):
        with pytest.raises(ConfigError, match=re.escape(
                "balanced split needs a positive label among ('sick', 'healthy')")):
            split(data, 20, seed=0, stratify="balanced", positive_label=label)

    def test_unknown_stratify_mode(self, data):
        with pytest.raises(ConfigError, match="^unknown stratify mode 'smart'$"):
            split(data, 20, seed=0, stratify="smart")


def small_model():
    from dinet.cli import DatasetConfig, ExperimentConfig, QuantizerConfig, train_on

    cfg = ExperimentConfig()
    cfg.dataset = DatasetConfig(format="synthetic", positive_class="sick")
    cfg.quantizer = QuantizerConfig(default_levels=6)
    data = make_synthetic_ckd(n_rows=150, seed=2)
    return train_on(data, cfg, seed=4)[0]


class TestModelPersistence:
    def test_round_trip_is_exact(self, tmp_path):
        model = small_model()
        path = tmp_path / "model.json"
        save_model(model, path)
        back = load_model(path)
        assert back.topology == model.topology
        assert back.class_alignment == model.class_alignment
        assert back.quantizers == model.quantizers
        assert back.feature_names == model.feature_names
        assert (back.beta, back.seed) == (model.beta, model.seed)
        for key, node in model.nodes.items():
            assert np.array_equal(back.nodes[key].channel.p, node.channel.p)
            assert back.nodes[key].diagnostics == node.diagnostics

    def test_integer_categories_load_as_the_floats_they_stand_for(self, tmp_path):
        # a JSON number may be written as an integer; "4" must still find category 4.0
        from dinet.cli import DatasetConfig, ExperimentConfig, train_on
        from dinet.network import quantize_features

        cfg = ExperimentConfig(dataset=DatasetConfig(format="synthetic", positive_class="sick"))
        cfg.quantizer.default_levels = None
        cfg.model.max_iter = 20
        table = make_synthetic_ckd(n_rows=120, seed=3)
        model = train_on(table, cfg, seed=5)[0]
        path = tmp_path / "model.json"
        save_model(model, path)
        doc = json.loads(path.read_text())
        numeric = [q for q in doc["payload"]["quantizers"]
                   if q["kind"] == "categorical" and isinstance(q["categories"][0], float)]
        assert numeric
        for q in numeric:
            q["categories"] = [int(c) for c in q["categories"]]
        back = load_model(write_resigned(doc, tmp_path / "int.json"))
        assert back.quantizers == model.quantizers
        write_table(table, tmp_path / "table.csv", "csv")
        text = load_dataset(tmp_path / "table.csv", format="csv", target="status")
        want = quantize_features(model, text)
        got = quantize_features(back, text)
        assert all(np.array_equal(a, b) for a, b in zip(got.columns, want.columns))

    def test_round_trip_keeps_pass_through_nodes(self, tmp_path):
        from dinet import (QuantizedDataset, Topology, check_bounds, mi_flow,
                           train_network)

        rng = np.random.default_rng(3)
        x0, x1 = rng.integers(0, 2, 200), rng.integers(0, 3, 200)
        data = QuantizedDataset(columns=(x0, x1), cardinalities=(2, 3),
                                labels=(x0 + x1) % 2, n_class=2)
        model = train_network(data, Topology(cards=(2, 3), n_out=(4, 2)),
                              beta=10.0, seed=1)
        path = tmp_path / "model.json"
        save_model(model, path)
        back = load_model(path)
        for key, node in model.nodes.items():
            assert np.array_equal(back.nodes[key].channel.p, node.channel.p)
            assert back.nodes[key].diagnostics == node.diagnostics
        for k, n_in in enumerate((2, 3)):
            assert np.array_equal(back.nodes[(0, k)].channel.p, np.eye(n_in, 4))
            assert back.nodes[(0, k)].diagnostics.iterations == 0
        assert check_bounds(mi_flow(back, data), tol=1e-6) == []

    @settings(max_examples=40, deadline=None)
    @given(small_trees())
    def test_round_trip_over_real_trees(self, tree):
        model, _ = tree
        with tempfile.TemporaryDirectory() as tmp:
            first, second = Path(tmp) / "first.json", Path(tmp) / "second.json"
            save_model(model, first)
            back = load_model(first)
            save_model(back, second)
            assert first.read_bytes() == second.read_bytes()
        assert back.topology == model.topology
        for key, node in model.nodes.items():
            assert np.array_equal(back.nodes[key].channel.p, node.channel.p)
            assert back.nodes[key].diagnostics == node.diagnostics

    def test_tampered_payload_fails_checksum(self, tmp_path):
        model = small_model()
        path = tmp_path / "model.json"
        save_model(model, path)
        doc = json.loads(path.read_text())
        doc["payload"]["beta"] = 99.0
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelFormatError, match="checksum"):
            load_model(path)

    def test_truncated_file(self, tmp_path):
        model = small_model()
        path = tmp_path / "model.json"
        save_model(model, path)
        path.write_text(path.read_text()[: path.stat().st_size // 2])
        with pytest.raises(ModelFormatError):
            load_model(path)

    def test_newer_version_rejected(self, tmp_path):
        model = small_model()
        path = tmp_path / "model.json"
        save_model(model, path)
        doc = json.loads(path.read_text())
        assert doc["version"] == MODEL_VERSION == 2
        for version in (1, 999):  # version 1 has no reader left
            doc["version"] = version
            path.write_text(json.dumps(doc))
            with pytest.raises(ModelVersionError,
                               match=f"version {version} is not supported .*reads version 2"):
                load_model(path)

    @pytest.mark.parametrize("name", ["missing.json", "."], ids=["missing", "directory"])
    def test_unreadable_file_names_it(self, tmp_path, name):
        with pytest.raises(ResourceError, match=re.escape(f"cannot read {tmp_path / name}")):
            load_model(tmp_path / name)

    def test_unwritable_path_names_it(self, tmp_path):
        with pytest.raises(ResourceError, match=re.escape(f"cannot write {tmp_path}")):
            save_model(small_model(), tmp_path)

    def test_not_utf8_names_its_line(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_bytes(b'{\n "format": "dinet-model",\n "sha256": "\xff"}\n')
        with pytest.raises(ModelFormatError, match=re.escape(f"{path}: line 3: not UTF-8")):
            load_model(path)

    def test_foreign_json_rejected(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text('{"hello": "world"}')
        with pytest.raises(ModelFormatError):
            load_model(path)


NODE_KEYS = ("layer", "position", "channel", "mi_in_y", "iterations", "converged", "i_in_out",
             "i_y_out")
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.floats(allow_nan=False) | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6)
PAYLOAD_KEYS = ("beta", "seed", "feature_names", "class_names", "class_alignment", "n_out",
                "quantizers", "nodes")


@pytest.fixture(scope="module")
def model_doc(tmp_path_factory):
    path = tmp_path_factory.mktemp("model") / "model.json"
    save_model(small_model(), path)
    return json.loads(path.read_text())


@pytest.mark.parametrize("value, kind, admitted", [
    (True, bool, True), (True, int, False), (False, float, False), (1, bool, False),
    (3, int, True), (3.0, int, False), (3, float, True), (2.5, float, True),
    (float("nan"), float, False), (float("inf"), float, False),
    pytest.param(10 ** 400, float, False, id="10**400-float-False"),
    pytest.param(10 ** 400, int, True, id="10**400-int-True"),
    ("3", int, False), ("a", str, True), (None, None, True), (0, None, False), ({}, dict, True), ([], dict, False), ([1, "a"], list, True),
    ([1, 2], list[int], True), ([1, True], list[int], False), ([1.5], list[int], False),
    ([[[0, 1]], [[2]]], list[list[list[int]]], True), ([[0, [1]]], list[list[int]], False),
    ([[]], list[list[int]], True), ("ab", list[str], False),
    (None, int | None, True), (4, int | None, True), (True, int | None, False),
    (7, int | list[int], True), ([7, 8], int | list[int], True), ([7.0], int | list[int], False),
    (["a", 1.5, 2], list[str | float], True), ([float("nan")], list[str | float], False),
    ([None], list[str | float], False),
])
def test_json_error(value, kind, admitted):
    assert (json_error(value, kind, "model.beta") is None) == admitted


@pytest.mark.parametrize("value, kind, message", [
    (True, int, "must be int, got True"),
    ("a", int | None, "must be int | None, got 'a'"),
    ([1.5], list[int], "must be list[int], got [1.5]"),
    (0, None, "must be None, got 0"),
    ("a" * 60, float, "must be float, got '" + "a" * 39),
])
def test_json_error_names_the_annotation(value, kind, message):
    assert json_error(value, kind, "model.beta") == "model.beta " + message


def write_resigned(doc, path):
    """Write a model document with its checksum recomputed over the payload."""
    canonical = json.dumps(doc["payload"], sort_keys=True, separators=(",", ":"))
    doc["sha256"] = hashlib.sha256(canonical.encode("utf-8")).hexdigest()
    path.write_text(json.dumps(doc))
    return path


class TestMalformedPayload:
    @pytest.mark.parametrize("key", PAYLOAD_KEYS)
    def test_missing_key(self, model_doc, tmp_path, key):
        assert set(model_doc["payload"]) == set(PAYLOAD_KEYS)
        assert all(set(node) == set(NODE_KEYS) for node in model_doc["payload"]["nodes"])
        doc = json.loads(json.dumps(model_doc))
        del doc["payload"][key]
        with pytest.raises(ModelFormatError, match=key):
            load_model(write_resigned(doc, tmp_path / "model.json"))

    @pytest.mark.parametrize("key", NODE_KEYS)
    def test_node_missing_key(self, model_doc, tmp_path, key):
        doc = json.loads(json.dumps(model_doc))
        del doc["payload"]["nodes"][0][key]
        with pytest.raises(ModelFormatError, match=f"node 0 lacks key '{key}'"):
            load_model(write_resigned(doc, tmp_path / "model.json"))

    @pytest.mark.parametrize("edit", [
        lambda p: p.update(beta="five"),
        lambda p: p.update(seed=True),
        lambda p: p.update(layers=3),
        lambda p: p.update(nodes={}),
        lambda p: p["nodes"][0].pop("channel"),
        lambda p: p["nodes"][0].update(channel="not a matrix"),
        lambda p: p["n_out"].__setitem__(0, p["n_out"][0] + 1),
        lambda p: p["quantizers"][0].update(kind="wavelet"),
        lambda p: p["quantizers"][0].update(categories=[[1]]),
        lambda p: p["n_out"].pop(0),
        lambda p: p.update(n_out=[]),
        lambda p: p.update(n_out=[float(v) for v in p["n_out"]]),
        lambda p: p["quantizers"][0].update(bins=3),
        lambda p: p.update(beta=float("nan")),
        lambda p: p.update(beta=float("inf")),
        lambda p: p.update(beta=-3.0),
        lambda p: p.update(seed=-1),
        lambda p: p["nodes"][0].update(mi_in_y=float("-inf")),
        lambda p: p["nodes"][0]["channel"][0].__setitem__(0, 10 ** 400),
        lambda p: p.update(class_alignment=[float(a) for a in p["class_alignment"]]),
        lambda p: p["n_out"].__setitem__(0, 0),
        lambda p: p.update(nodes=[node for node in p["nodes"] if node["layer"] > 0]),
    ], ids=["beta-string", "seed-bool", "layers-int", "nodes-object", "node-no-channel",
            "channel-string", "n_out-off-channels", "quantizer-kind", "category-list",
            "n_out-short", "layers-empty", "n_out-floats", "quantizer-extra-key", "beta-nan",
            "beta-infinite", "beta-negative", "seed-negative", "mi-infinite",
            "channel-entry-beyond-float", "alignment-floats", "n_out-zero", "no-layer-0"])
    def test_wrong_shape_or_type(self, model_doc, tmp_path, edit):
        doc = json.loads(json.dumps(model_doc))
        edit(doc["payload"])
        with pytest.raises(ModelFormatError):
            load_model(write_resigned(doc, tmp_path / "model.json"))

    @pytest.mark.parametrize("key, value", [
        ("iterations", "7"), ("converged", "yes"), ("mi_in_y", "x"), ("i_in_out", None),
        ("iterations", 7.0), ("converged", 1), ("i_y_out", True), ("layer", "0"),
    ])
    def test_node_field_type(self, model_doc, tmp_path, key, value):
        doc = json.loads(json.dumps(model_doc))
        doc["payload"]["nodes"][0][key] = value
        with pytest.raises(ModelFormatError, match=f"node 0 key '{key}'"):
            load_model(write_resigned(doc, tmp_path / "model.json"))

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.sampled_from(NODE_KEYS), JSON_VALUES)
    def test_mutated_node_loads_or_raises_model_format_error(self, model_doc, tmp_path,
                                                            key, value):
        doc = json.loads(json.dumps(model_doc))
        doc["payload"]["nodes"][-1][key] = value
        try:
            load_model(write_resigned(doc, tmp_path / "model.json"))
        except ModelFormatError:
            pass

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.sampled_from(("n_out", "quantizers")), JSON_VALUES, st.data())
    def test_mutated_topology_or_quantizer_loads_or_raises_model_format_error(
            self, model_doc, tmp_path, section, value, data):
        doc = json.loads(json.dumps(model_doc))
        container = doc["payload"][section]
        while True:  # walk down to one entry and replace it
            key = data.draw(st.sampled_from(
                sorted(container) if isinstance(container, dict) else range(len(container))))
            child = container[key]
            if isinstance(child, (dict, list)) and child and data.draw(st.booleans()):
                container = child
                continue
            container[key] = value
            break
        try:
            load_model(write_resigned(doc, tmp_path / "model.json"))
        except ModelFormatError:
            pass

    @pytest.mark.parametrize("edit", [
        lambda specs: next(s for s in specs if s["kind"] == "continuous").update(levels=15),
        lambda specs: specs.pop(),
    ], ids=["levels-raised", "spec-dropped"])
    def test_quantizers_must_fit_layer_0(self, model_doc, tmp_path, edit):
        doc = json.loads(json.dumps(model_doc))
        edit(doc["payload"]["quantizers"])
        with pytest.raises(ModelFormatError, match="quantizer cardinalities"):
            load_model(write_resigned(doc, tmp_path / "model.json"))

    def test_nan_channel_entry(self, model_doc, tmp_path):
        doc = json.loads(json.dumps(model_doc))
        doc["payload"]["nodes"][0]["channel"][0][0] = float("nan")
        with pytest.raises(ModelFormatError, match=r"'channel' must be list\[list\[float\]\]"):
            load_model(write_resigned(doc, tmp_path / "model.json"))

    @pytest.mark.parametrize("edit", [
        lambda nodes: nodes[0]["channel"].pop(),
        lambda nodes: [row.append(0.0) for row in nodes[0]["channel"]],
        lambda nodes: nodes[-1]["channel"].pop(),
        lambda nodes: nodes[0].update(position=99),
        lambda nodes: nodes[-1].update(layer=9),
    ], ids=["channel-row-dropped", "channel-column-added", "n_in-off-topology",
            "position-off-topology", "layer-off-topology"])
    def test_node_must_fit_its_topology_slot(self, model_doc, tmp_path, edit):
        doc = json.loads(json.dumps(model_doc))
        edit(doc["payload"]["nodes"])
        with pytest.raises(ModelFormatError):
            load_model(write_resigned(doc, tmp_path / "model.json"))

    @pytest.mark.parametrize("edit, key", [
        (lambda p: p["nodes"].append(p["nodes"][0]), "nodes"),
        (lambda p: p["nodes"].reverse(), "nodes"),
        (lambda p: p.update(layers=[{"n_in": [3, 3], "n_out": [2, 2]}]), "layers"),
        (lambda p: p.update(comment="x"), "comment"),
        (lambda p: p["nodes"][0].update(comment="x"), "nodes"),
        (lambda p: p["nodes"][0].update(n_in=len(p["nodes"][0]["channel"])), "nodes"),
    ], ids=["node-twice", "nodes-reversed", "old-layers-key", "extra-key",
            "node-extra-key", "old-node-n_in-key"])
    def test_payload_save_model_would_not_write(self, model_doc, tmp_path, edit, key):
        doc = json.loads(json.dumps(model_doc))
        edit(doc["payload"])
        with pytest.raises(ModelFormatError, match=f"payload key '{key}' differs"):
            load_model(write_resigned(doc, tmp_path / "model.json"))

    def test_integer_channel_row_loads(self, tmp_path):
        doc = json.loads((FIXTURES / "model.json").read_text())
        rows = doc["payload"]["nodes"][1]["channel"]
        assert rows[2] == [1.0, 0.0]
        rows[2] = [1, 0]
        back = load_model(write_resigned(doc, tmp_path / "model.json"))
        assert np.array_equal(back.nodes[(0, 1)].channel.p,
                              hand_built_model().nodes[(0, 1)].channel.p)

    @pytest.mark.parametrize("row", [[True, False]], ids=["bool-row"])
    def test_channel_row_of_non_numbers_is_refused(self, tmp_path, row):
        # the row equals [1.0, 0.0] in Python, so only its JSON type tells
        doc = json.loads((FIXTURES / "model.json").read_text())
        doc["payload"]["nodes"][1]["channel"][2] = row
        with pytest.raises(ModelFormatError, match="node 1 key 'channel' must be"):
            load_model(write_resigned(doc, tmp_path / "model.json"))

    def test_payload_not_an_object(self, model_doc, tmp_path):
        doc = dict(model_doc, payload=[1, 2])
        with pytest.raises(ModelFormatError, match="object"):
            load_model(write_resigned(doc, tmp_path / "model.json"))


# fragments that reach every branch of the two parsers, plus free text
CELLS = (st.sampled_from(["", "?", "1", "2.5", "-3", "nan", "x", "y", "yes", "'q'", '"a,b"', '"',
                          " 7 ", "\t", "class"])
         | st.text(alphabet="ab1 ,'\"{}@%?\t\r", max_size=4))
CSV_LINES = st.one_of(
    st.sampled_from(["a,class", "class", "class,b,c", "'class',x", "", " , ", "a,b"]),
    st.lists(CELLS, min_size=1, max_size=4).map(",".join),
    st.text(max_size=8))
ARFF_LINES = st.one_of(
    st.sampled_from(["@relation r", "@attribute", "@attribute a numeric", "@attribute 'b c' {x,y}",
                     "@attribute class {x,y}", "@attribute 'class' {x,y}", "@attribute c string",
                     "@attribute 'q", "@attribute class {x", "@attribute \"n\"", "@data", "@DATA",
                     "% note", "@Attribute d REAL", ""]),
    st.lists(CELLS, min_size=1, max_size=4).map(",".join),
    st.text(max_size=8))


def error_line(path, message):
    """The line number a parse error of ``path`` names after the path, or None."""
    found = re.match(re.escape(f"{path}: line ") + r"(\d+)\b", message)
    return int(found.group(1)) if found else None


@pytest.mark.parametrize("fmt, text, line", [
    ("csv", b"a,class\n\n1,x\n\n1,2,x\n", 5),
    ("csv", b'\n"a\nb",class\n1,x,y\n', 4),
    ("csv", b"a,class\r1,x\r\xff,y\r", 3),
    ("arff", b"@relation r\n@attribute\n", 2),
    ("arff", b"@relation r\n\n@attribute 'q numeric\n", 3),
    ("arff", b"@attribute a numeric\n@attribute class {x}\n@data\n\nabc,x\n", 5),
    ("arff", b"@attribute a numeric\n@data\n1\n", 2),
    ("arff", b"@attribute a {x,y}\n@attribute class {x,y}\n@data\nx,x\n\xffy,y\n", 5),
], ids=["csv-after-blank-lines", "csv-after-a-multiline-header", "csv-not-utf8",
        "arff-attribute-alone", "arff-unterminated-name", "arff-non-numeric", "arff-no-target",
        "arff-not-utf8"])
def test_format_error_names_the_line(tmp_path, fmt, text, line):
    path = tmp_path / f"table.{fmt}"
    path.write_bytes(text)
    with pytest.raises(DatasetFormatError) as info:
        load_dataset(path, format=fmt, target="class")
    assert error_line(path, str(info.value)) == line


class TestRandomText:
    @pytest.mark.parametrize("fmt, lines", [("csv", CSV_LINES), ("arff", ARFF_LINES)],
                             ids=["csv", "arff"])
    def test_parses_or_names_a_line(self, fmt, lines):
        @settings(max_examples=400, deadline=None)
        @given(st.lists(lines, max_size=8), st.sampled_from(["\n", "\r\n"]),
               st.sampled_from([b"", b"\xff", b"\xc3"]), st.floats(0, 1))
        # an ARFF file whose second @DATA line is a class value outside the declared set
        @example(["@attribute class {x,y}", "@data", "x", "@DATA"], "\n", b"", 0.0)
        def check(rows, newline, junk, where):
            text = newline.join(rows)
            raw = text.encode("utf-8")
            cut = int(where * len(raw))  # junk bytes make the file invalid UTF-8
            blob = raw[:cut] + junk + raw[cut:]
            with tempfile.TemporaryDirectory() as tmp, \
                    warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                path = Path(tmp) / f"table.{fmt}"
                path.write_bytes(blob)
                try:
                    data = load_dataset(path, format=fmt, target="class")
                except DatasetFormatError as exc:
                    messages = [str(exc)]
                else:
                    messages = []
                    assert all(col.codes.size == data.n_rows for col in data.columns)
            # errors and warnings alike name a line; both parsers count "\r",
            # "\n" and "\r\n" as line ends
            n_lines = len(re.split("\r\n|\r|\n", blob.decode("utf-8", "replace")))
            for message in messages + [str(w.message) for w in caught]:
                line = error_line(path, message)
                assert line is not None and 1 <= line <= n_lines, message

        check()


FIXTURES = Path(__file__).parent / "fixtures"


def hand_built_model():
    """A two-feature model whose every number is fixed by hand."""
    from dinet import ConditionalMatrix, DINModel, FeatureSpec, IBDiagnostics, IBSolution, Topology

    specs = (FeatureSpec(kind="continuous", has_missing=False, name="age", levels=2,
                         vmin=0.1, vmax=2.5),
             FeatureSpec(kind="categorical", has_missing=True, name="flag",
                         categories=("yes", "nö")))
    channels = {(0, 0): [[0.75, 0.25], [0.1, 0.9]],
                (0, 1): [[1 / 3, 2 / 3], [0.5, 0.5], [1.0, 0.0]],
                (1, 0): [[0.2, 0.8], [0.6, 0.4], [0.3, 0.7], [1.0, 0.0]]}
    nodes = {slot: IBSolution(ConditionalMatrix(np.array(p)),
                              IBDiagnostics(7 * i, 0.1 * i, 1 / 3, i != 1, 1 / 7))
             for i, (slot, p) in enumerate(channels.items())}
    return DINModel(topology=Topology(cards=(2, 3), n_out=(2, 2)), nodes=nodes,
                    quantizers=specs, feature_names=("age", "flag"),
                    class_names=("ckd", "notckd"), class_alignment=(1, 0),
                    beta=5.0, seed=2 ** 63 + 5)


class TestPinnedDraws:
    """Fixed channels, ``cumsum`` and PCG64 doubles make every platform draw alike."""

    def test_predictions(self, monkeypatch):
        from dinet import QuantizedDataset, network, predict_quantized

        model = hand_built_model()
        data = QuantizedDataset(columns=(np.array([0, 1] * 6), np.array([0, 1, 2] * 4)),
                                cardinalities=(2, 3), labels=np.zeros(12, dtype=np.int64),
                                n_class=2)
        got = predict_quantized(model, data, seed=model.seed)
        assert got.tolist() == [1, 1, 0, 0, 0, 0, 1, 1, 0, 1, 1, 0]
        got = predict_quantized(model, data, seed=model.seed, mode="ensemble", repeats=3)
        assert got.tolist() == [0, 1, 1, 0, 1, 0, 0, 0, 0, 1, 0, 0]

        # five passes: passes 4 and 5 draw for the rows still open only
        drawn = []  # the rows each sample call draws for
        sample = network.sample_channel

        def recording_sample(thresholds, rng):
            drawn.append(thresholds.shape[-1])
            return sample(thresholds, rng)

        monkeypatch.setattr(network, "sample_channel", recording_sample)
        got = predict_quantized(model, data, seed=model.seed, mode="ensemble", repeats=5)
        assert got.tolist() == [0, 1, 0, 0, 1, 0, 0, 1, 0, 1, 0, 0]
        assert drawn == [12] * 6 + [9, 9, 1, 1]  # two layers a pass


class TestWrittenBytes:
    """Every writer emits the same bytes on every platform: UTF-8, line ends as given."""

    def test_model_file(self, tmp_path):
        model = hand_built_model()
        save_model(model, tmp_path / "model.json")
        assert (tmp_path / "model.json").read_bytes() == (FIXTURES / "model.json").read_bytes()
        back = load_model(tmp_path / "model.json")
        assert back.quantizers == model.quantizers and back.seed == model.seed

    def test_mi_flow_csv(self, tmp_path):
        from dinet.analysis import MIFlowReport, MuxFlow, NodeFlow

        report = MIFlowReport(
            nodes=(NodeFlow(0, 0, 0.5, 0.25, 1.0), NodeFlow(0, 1, 1 / 3, 0.1, 1e-17),
                   NodeFlow(1, 0, 0.9, 0.8, 1.0)),
            muxes=(MuxFlow(0, 0, 0, 0.25, 0.3, 1.25), MuxFlow(0, 0, 1, 0.3, 2 / 3, 2.0)))
        report.to_csv(tmp_path / "flow.csv")
        written = (tmp_path / "flow.csv").read_bytes()
        assert written == (FIXTURES / "mi_flow.csv").read_bytes()
        assert written.count(b"\r\n") == 6

    def test_report_json_file(self, tmp_path):
        from dinet.cli import _write, aggregate_metrics, compute_metrics, report_json

        report = aggregate_metrics([compute_metrics([0, 1, 1, 0], [0, 1, 0, 0], 1),
                                    compute_metrics([1, 1, 0], [1, 0, 0], 1)])
        _write(tmp_path / "report.json", report_json(report))
        assert ((tmp_path / "report.json").read_bytes()
                == (FIXTURES / "report.json").read_bytes())
