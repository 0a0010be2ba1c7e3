"""Dataset ingestion (CSV / minimal ARFF), splitting, model persistence.

Every file is read by ``read_text`` (strict UTF-8: a bad byte is the
caller's format error, naming its line), a JSON file through ``read_json``
(text that is not JSON, or nests too deeply to parse, is that error too),
and written by ``write_text`` (UTF-8
bytes, line ends as given on every platform, parent directory made on
demand); a path that cannot be read or written raises ``ResourceError``.

The ARFF support covers what the UCI Chronic Kidney Disease file needs:
numeric and nominal attribute declarations, '%' comments, '?' missing
cells, quoted cells that may hold commas, and the stray tabs/spaces that
file is known for (every cell is whitespace-stripped before interpretation).
Each format's tokeniser only splits text.  It returns the columns, each as
``(line, name, kind, declared nominal values)``, the line a missing target
is reported at, and a lazy iterator of ``(line, fields)`` records: a CSV
header is its first non-blank record, and ARFF columns are the
``@attribute`` lines before ``@data``.  ``load_dataset`` makes each check
once, for both formats, and puts each row's cells straight into one list
per column, which ``RawColumn.from_cells`` parses once.

Model files are versioned JSON with a SHA-256 checksum over the canonical
payload; floats survive the round trip bit-exactly because they are
written with shortest-repr encoding.  ``json_error`` is the one rule for
which JSON value a field may hold, read from a type annotation; model
payloads and config files are both checked with it.  A version-2 payload
holds only what fixes the model: one ``n_out`` per layer and, per node, its
channel and its ``IBDiagnostics``, each field under its own name.  The tree
is read from the row count of each layer-0 channel and ``n_out``; the mux
wiring and every other node's shape are derived, so a payload loads only
when the model rebuilt from it writes back the same JSON values.
"""

from __future__ import annotations

import hashlib
import io
import json
import re
import sys
import typing
import warnings
import zipfile
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from .errors import (
    ConfigError,
    DatasetFormatError,
    ModelFormatError,
    ModelVersionError,
    ValidationError,
    naming_os_errors,
)
from .ib import IBDiagnostics, IBSolution
from .infotheory import ConditionalMatrix
from .network import DINModel, Topology
from .quantizer import FeatureSpec, RawColumn

DEFAULT_MISSING_TOKENS = ("?", "")
_LINE_END = re.compile("\r\n|\r|\n")  # the line ends the csv module and text files know
_LINE = re.compile("[^\r\n]*(?:\r\n|\r|\n)|[^\r\n]+")  # a line and its end, if it has one

MODEL_FORMAT = "dinet-model"
MODEL_VERSION = 2

CKD_URL = "https://archive.ics.uci.edu/static/public/336/chronic+kidney+disease.zip"


@dataclass(frozen=True)
class RawDataset:
    """Rectangular raw table: feature columns, class labels, class order.

    Each column is a ``RawColumn``, parsed once when the table is built, so
    a row subset (``take``, ``split``) indexes arrays.  ``labels`` holds each
    row's index into ``classes``, whose order (first appearance in the
    source) splits of one dataset share.
    """

    feature_names: tuple
    columns: tuple           # per feature, a RawColumn
    target_name: str
    labels: np.ndarray       # per row, an int64 index into classes; never missing
    classes: tuple
    kinds: tuple = ()        # per-feature hint: "numeric" | "nominal" | None

    def __post_init__(self):
        if len(self.columns) != len(self.feature_names):
            raise ValidationError("one column per feature name required")
        n = self.labels.size
        for name, col in zip(self.feature_names, self.columns):
            if col.codes.size != n:
                raise ValidationError(f"column {name!r} has {col.codes.size} rows, target has {n}")
        if not self.kinds:
            object.__setattr__(self, "kinds", (None,) * len(self.feature_names))
        if n and not 0 <= self.labels.min() <= self.labels.max() < len(self.classes):
            raise ValidationError(f"labels outside [0, {len(self.classes)})")

    @property
    def n_rows(self) -> int:
        return self.labels.size

    @property
    def n_features(self) -> int:
        return len(self.feature_names)

    def take(self, row_indices) -> "RawDataset":
        """The table of the given rows, in that order (any integer sequence, a range too)."""
        rows = np.asarray(row_indices, dtype=np.int64)
        return replace(self, columns=tuple(col.take(rows) for col in self.columns),
                       labels=self.labels[rows])


def read_text(path, error) -> str:
    """The text of ``path``; a byte that is not UTF-8 raises ``error`` naming its line."""
    path = Path(path)
    with naming_os_errors("read", path):
        raw = path.read_bytes()
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = len(_LINE_END.split(raw[:exc.start].decode("utf-8")))
        raise error(f"{path}: line {line}: not UTF-8 text ({exc.reason})") from None


def read_json(path, error):
    """The JSON value in ``path``; text that is not JSON, or that nests too
    deeply for the parser, raises ``error`` naming the path."""
    text = read_text(path, error)
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise error(f"{path}: not valid JSON ({exc})") from None
    except RecursionError:
        raise error(f"{path}: not valid JSON (nested too deeply to read)") from None


def write_text(path, text: str) -> None:
    """Write ``text`` to ``path`` as UTF-8 bytes, line ends as given, making its directory."""
    path = Path(path)
    with naming_os_errors("write", path):
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(text.encode("utf-8"))


def json_error(value, kind, where: str) -> str | None:
    """Why the JSON ``value`` at ``where`` is not of ``kind``, or None when it is.

    ``kind`` is a type annotation: ``int``, ``float`` (a finite number; ints
    too), ``bool``, ``str``, ``list``, ``dict``, ``None``, ``list[k]`` or a
    union such as ``int | None``.  A bool is only a ``bool``.
    """
    if _admits(kind, value):
        return None
    name = str(kind) if typing.get_args(kind) else getattr(kind, "__name__", str(kind))
    return f"{where} must be {name}, got {value!r:.40}"


def _admits(kind, value) -> bool:
    if kind is None or kind is type(None):
        return value is None
    if isinstance(value, bool):
        return kind is bool
    if kind is float:
        return isinstance(value, (int, float)) and abs(value) <= sys.float_info.max
    args = typing.get_args(kind)
    if typing.get_origin(kind) is list:
        return isinstance(value, list) and all(_admits(args[0], v) for v in value)
    if args:  # a union
        return any(_admits(k, value) for k in args)
    return isinstance(value, kind)


def _table_row(fields, n_fields, line_no, path, missing_tokens) -> list:
    """A data row's cells, whitespace and quotes stripped, missing ones None."""
    if len(fields) == n_fields + 1 and fields[-1].strip() == "":
        fields = fields[:-1]          # tolerate a trailing comma
    if len(fields) != n_fields:
        raise DatasetFormatError(
            f"{path}: line {line_no}: expected {n_fields} fields, got {len(fields)}")
    cells = (f.strip().strip("'\"").strip() for f in fields)
    return [None if c in missing_tokens else c for c in cells]


def _csv_tokens(path, delimiter):
    """The columns, the target's line and the records of a CSV file: its first non-blank
    record, which is the header, that record's line, and each later non-blank record."""
    import csv as _csv

    # the lines are matched one at a time: a StringIO would hold 4 bytes per character
    lines = (m.group() for m in _LINE.finditer(read_text(path, DatasetFormatError)))
    reader = _csv.reader(lines, delimiter=delimiter)

    def records():
        start = 1  # the first line of the record being read
        try:
            for row in reader:
                if any(c.strip() for c in row):
                    yield start, row
                start = reader.line_num + 1
        except _csv.Error as exc:
            raise DatasetFormatError(f"{path}: line {start}: {exc}") from None

    rows = records()
    header_line, header = next(rows, (1, None))
    if header is None:
        raise DatasetFormatError(f"{path}: line 1: no header row")
    return [(header_line, h.strip().strip("'\""), None, None) for h in header], header_line, rows


def _parse_arff_attribute(line, line_no, path):
    """Name, kind and, for a nominal attribute, its declared values stripped as cells are."""
    parts = line.split(None, 1)
    body = parts[1].strip() if len(parts) == 2 else ""
    if body.startswith(("'", '"')):
        end = body.find(body[0], 1)
        if end < 0:
            raise DatasetFormatError(f"{path}: line {line_no}: unterminated attribute name")
        name = body[1:end]
        rest = body[end + 1:].strip()
    else:
        parts = body.split(None, 1)
        if len(parts) != 2:
            raise DatasetFormatError(f"{path}: line {line_no}: malformed @attribute")
        name, rest = parts
    rest = rest.strip()
    if rest.startswith("{"):
        if not rest.endswith("}"):
            raise DatasetFormatError(f"{path}: line {line_no}: unterminated nominal set")
        values = _split_arff_row(rest[1:-1], line_no, path)
        return name, "nominal", {v.strip().strip("'\"").strip() for v in values}
    if rest.lower() in ("numeric", "real", "integer"):
        return name, "numeric", None
    raise DatasetFormatError(
        f"{path}: line {line_no}: unsupported attribute type {rest!r}")


def _split_arff_row(line, line_no, path) -> list:
    """A data row's comma-separated fields; one that opens with ' or " runs to its closing quote."""
    fields, start, quote = [], 0, None
    for i, ch in enumerate(line):
        if quote:
            if ch == quote:
                quote = None
        elif ch == ",":
            fields.append(line[start:i])
            start = i + 1
        elif ch in "'\"" and not line[start:i].strip():
            quote = ch
    if quote:
        raise DatasetFormatError(f"{path}: line {line_no}: unterminated {quote} quote")
    return fields + [line[start:]]


def _arff_tokens(path):
    """The columns, the target's line and the records of an ARFF file: its @attribute lines,
    the @data line after them, and each later line that is not blank or a comment."""
    lines = enumerate(_LINE_END.split(read_text(path, DatasetFormatError)), 1)
    columns, data_line = [], None
    for line_no, raw in lines:
        line = raw.strip()
        low = line.lower()
        if not line or line.startswith("%") or low.startswith("@relation"):
            continue
        if low.startswith("@data"):
            data_line = line_no
            break
        if not low.startswith("@attribute"):
            raise DatasetFormatError(f"{path}: line {line_no}: unexpected {line!r}")
        columns.append((line_no, *_parse_arff_attribute(line, line_no, path)))
    if data_line is None or not columns:
        raise DatasetFormatError(f"{path}: line {line_no}: not a usable ARFF file "
                                 "(it needs @attribute lines and a @data section)")
    rows = ((line_no, raw.strip()) for line_no, raw in lines)
    return columns, data_line, ((line_no, _split_arff_row(line, line_no, path))
                                for line_no, line in rows if line and not line.startswith("%"))


def load_dataset(path, format: str = "csv", target: str = "class",
                 missing_tokens=DEFAULT_MISSING_TOKENS, delimiter=",") -> RawDataset:
    """Load a CSV or ARFF table into a RawDataset.

    In order: a column named twice and a target that names no column are
    refused; cells matching ``missing_tokens`` (after whitespace stripping)
    are missing; a nominal value outside its declared set loads, with one
    warning per column naming the first such value and its line; an ARFF
    numeric column must read as numbers and is built from them, so it keeps
    each distinct value once, in its float64 ``numbers``; a missing target
    value is refused.  A nominal column is categorical for the quantizer.
    A ``format`` other than csv or arff is a ``ConfigError``, checked before the path.
    """
    if format not in ("csv", "arff"):
        raise ConfigError(f"unknown dataset format {format!r}")
    path = Path(path)
    if not path.exists():
        raise DatasetFormatError(f"dataset file not found: {path}")
    columns, target_line, records = (_csv_tokens(path, delimiter) if format == "csv"
                                     else _arff_tokens(path))
    names = [name for _, name, _, _ in columns]
    for i, (line, name, _, _) in enumerate(columns):
        if name in names[:i]:
            raise DatasetFormatError(f"{path}: line {line}: column {name!r} is named twice")
    if target not in names:
        raise DatasetFormatError(f"{path}: line {target_line}: target column {target!r} "
                                 f"is not among the columns {names}")
    tokens, cells, lines = set(missing_tokens), [[] for _ in names], []
    for line, fields in records:
        for column, cell in zip(cells, _table_row(fields, len(names), line, path, tokens)):
            column.append(cell)
        lines.append(line)
    built = [RawColumn.from_cells(cells.pop(0)) for _ in names]  # each list freed once read

    def line_of(col, k):  # the line of the first row holding cell k, or a missing cell at -1
        return lines[np.argmax(col.codes == k)]

    for (_, name, _, declared), col in zip(columns, built):
        bad = [] if declared is None else [k for k, v in enumerate(col.cells) if v not in declared]
        if bad:  # the first undeclared distinct cell is on the column's first undeclared row
            warnings.warn(f"{path}: line {line_of(col, bad[0])}: column {name!r} holds "
                          f"{col.cells[bad[0]]!r}, which is not in its declared nominal set",
                          stacklevel=2)
    t = names.index(target)
    del columns[t]
    target_col = built.pop(t)
    for i, ((_, name, kind, _), col) in enumerate(zip(columns, built)):
        if kind == "numeric":
            if not col.is_number.all():
                k = np.argmin(col.is_number)
                raise DatasetFormatError(
                    f"{path}: line {line_of(col, k)}, column {name!r}: "
                    f"non-numeric value {col.cells[k]!r} in a numeric attribute")
            # built from its rows' numbers (code -1 picks the None), so "1" and "01" are one cell
            built[i] = RawColumn.from_cells(np.append(col.numbers.astype(object), None)[col.codes])
    if (target_col.codes < 0).any():
        raise DatasetFormatError(f"{path}: line {line_of(target_col, -1)}: missing target value")
    return RawDataset(feature_names=tuple(name for _, name, _, _ in columns), columns=tuple(built),
                      target_name=target, labels=target_col.codes, classes=target_col.cells,
                      kinds=tuple(kind for _, _, kind, _ in columns))


def split(data: RawDataset, n_train: int, seed: int, stratify: str = "none",
          positive_fraction: float = 0.5, positive_label=None):
    """Seeded train/test split; partitions are disjoint and exhaustive.

    ``stratify='balanced'`` fills the training set with the requested class
    mix (positive_fraction of ``positive_label``); everything not drawn for
    training becomes the test set.  A refusal names the config's ``split.*``
    keys and depends only on the table's row and class counts, never on ``seed``.
    """
    if not 0 < n_train < data.n_rows:
        raise ValidationError(f"split.n_train must be below the table's {data.n_rows} rows "
                              f"and above 0, got {n_train}")
    if not 0 <= positive_fraction <= 1:
        raise ValidationError(f"split.positive_fraction must be in [0, 1], got {positive_fraction}")
    rng = np.random.default_rng(seed)
    order = rng.permutation(data.n_rows)
    if stratify == "none":
        train_idx = order[:n_train]
        test_idx = order[n_train:]
    elif stratify == "balanced":
        if positive_label is None or positive_label not in data.classes:
            raise ConfigError(f"balanced split needs a positive label among {data.classes}")
        want_pos = int(round(n_train * positive_fraction))
        want_neg = n_train - want_pos
        is_pos = data.labels[order] == data.classes.index(positive_label)
        have_pos = int(is_pos.sum())
        have_neg = data.n_rows - have_pos
        if want_pos > have_pos or want_neg > have_neg:
            raise ValidationError(
                f"split.n_train={n_train} at split.positive_fraction={positive_fraction} "
                f"needs {want_pos} positive and {want_neg} negative rows; the table has "
                f"{have_pos} positive and {have_neg} negative")
        # the first want_pos positive and want_neg negative rows of the order train
        drawn = np.where(is_pos, np.cumsum(is_pos) <= want_pos, np.cumsum(~is_pos) <= want_neg)
        train_idx, test_idx = order[drawn], order[~drawn]
    else:
        raise ConfigError(f"unknown stratify mode {stratify!r}")
    return data.take(train_idx), data.take(test_idx)


# ---------------------------------------------------------------------------
# model persistence

def _model_payload(model: DINModel) -> dict:
    return {
        "beta": model.beta,
        "seed": model.seed,
        "feature_names": list(model.feature_names),
        "class_names": list(model.class_names),
        "class_alignment": list(model.class_alignment),
        "n_out": list(model.topology.n_out),
        "quantizers": [asdict(s) for s in model.quantizers],
        "nodes": [{"layer": layer, "position": pos, "channel": node.channel.p.tolist(),
                   **asdict(node.diagnostics)}
                  for (layer, pos), node in sorted(model.nodes.items())],
    }


def _canonical(payload: dict) -> bytes:
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode("utf-8")


def save_model(model: DINModel, path) -> None:
    """Write the model as versioned JSON with a payload checksum."""
    payload = _model_payload(model)
    doc = {
        "format": MODEL_FORMAT,
        "version": MODEL_VERSION,
        "sha256": hashlib.sha256(_canonical(payload)).hexdigest(),
        "payload": payload,
    }
    write_text(path, json.dumps(doc, sort_keys=True, indent=1) + "\n")


# top-level payload keys and the JSON value each must hold
_PAYLOAD_TYPES = dict(beta=float, seed=int, feature_names=list[str], class_names=list[str],
                      class_alignment=list[int], n_out=list[int], quantizers=list, nodes=list)

# a node's scalars are its diagnostics, each under its field name
_DIAGNOSTIC_TYPES = typing.get_type_hints(IBDiagnostics)

# the keys of each entry of a payload list, and the JSON value each must hold; a
# quantizer's are its FeatureSpec fields, whose categories tuple is a JSON list
_ENTRY_TYPES = {
    "node": ("nodes", dict(layer=int, position=int, channel=list[list[float]],
                           **_DIAGNOSTIC_TYPES)),
    "quantizer": ("quantizers", {**typing.get_type_hints(FeatureSpec),
                                 "categories": list[str | float]}),
}


def _check_keys(obj, types: dict, where: str) -> None:
    """Every key of ``types`` present in the object, with a value of its annotation."""
    if not isinstance(obj, dict):
        raise ModelFormatError(f"{where} is not an object")
    for key, kind in types.items():
        if key not in obj:
            raise ModelFormatError(f"{where} lacks key {key!r}")
        error = json_error(obj[key], kind, f"{where} key {key!r}")
        if error:
            raise ModelFormatError(error)


def load_model(path) -> DINModel:
    """Read a model file back; a bad checksum, version or payload raises.

    A payload is good only when the model rebuilt from it writes back the
    same JSON values, so a file loads exactly when ``save_model`` could
    have written it, except that a float may be written as an integer.
    """
    doc = read_json(path, ModelFormatError)
    if not isinstance(doc, dict) or doc.get("format") != MODEL_FORMAT:
        raise ModelFormatError(f"{path}: not a {MODEL_FORMAT} file")
    if doc.get("version") != MODEL_VERSION:
        raise ModelVersionError(
            f"{path}: format version {doc.get('version')!r} is not supported "
            f"(this build reads version {MODEL_VERSION})")
    payload = doc.get("payload")
    digest = hashlib.sha256(_canonical(payload)).hexdigest()
    if digest != doc.get("sha256"):
        raise ModelFormatError(f"{path}: checksum mismatch, file is corrupt")

    _check_keys(payload, _PAYLOAD_TYPES, f"{path}: payload")
    if payload["beta"] <= 0 or payload["seed"] < 0:
        raise ModelFormatError(f"{path}: payload needs beta > 0 and seed >= 0")
    for label, (section, types) in _ENTRY_TYPES.items():
        for i, entry in enumerate(payload[section]):
            _check_keys(entry, types, f"{path}: payload {label} {i}")
    try:
        model = _model_from_payload(payload)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ModelFormatError(f"{path}: malformed payload ({exc})") from None
    written = json.loads(_canonical(_model_payload(model)))
    if written != payload:
        key = min(k for k in payload if k not in written or written[k] != payload[k])
        raise ModelFormatError(
            f"{path}: payload key {key!r} differs from what this model writes")
    return model


def _model_from_payload(payload: dict) -> DINModel:
    nodes = {(nd["layer"], nd["position"]): IBSolution(
        ConditionalMatrix(np.array(nd["channel"], dtype=np.float64)),
        IBDiagnostics(**{key: nd[key] for key in _DIAGNOSTIC_TYPES}))
        for nd in payload["nodes"]}
    # the tree is fixed by n_out and the layer-0 alphabets, each channel's row count
    cards = [node.channel.rows for (layer, _), node in sorted(nodes.items()) if layer == 0]
    return DINModel(
        topology=Topology(cards, payload["n_out"]),
        nodes=nodes,
        # a JSON number among the categories is a float, as save_model writes it
        quantizers=tuple(FeatureSpec(**{**d, "categories": tuple(
            c if isinstance(c, str) else float(c) for c in d["categories"])})
                         for d in payload["quantizers"]),
        feature_names=tuple(payload["feature_names"]),
        class_names=tuple(payload["class_names"]),
        class_alignment=tuple(payload["class_alignment"]),
        beta=payload["beta"],
        seed=payload["seed"],
    )


# ---------------------------------------------------------------------------
# dataset fetching

def fetch_ckd(dest_dir, url: str = CKD_URL, sha256: str | None = None) -> Path:
    """Download the UCI kidney-disease archive and extract its ARFF files.

    Verifies the archive checksum when one is supplied, then sanity-checks
    the extracted table (400 rows, 24 features, two classes).  Returns the
    path of the preferred ('full') ARFF file.
    """
    import urllib.request  # imported here: every command would pay for it at import

    dest = Path(dest_dir)
    with naming_os_errors("write", dest):
        dest.mkdir(parents=True, exist_ok=True)
    with naming_os_errors("download", url), urllib.request.urlopen(url, timeout=60) as resp:
        blob = resp.read()
    if sha256 is not None:
        digest = hashlib.sha256(blob).hexdigest()
        if digest != sha256.lower():
            raise DatasetFormatError(
                f"downloaded archive checksum {digest} does not match expected {sha256}")
    extracted = []
    try:
        with zipfile.ZipFile(io.BytesIO(blob)) as zf, naming_os_errors("write", dest):
            for info in zf.infolist():
                if info.filename.lower().endswith(".arff"):
                    name = Path(info.filename).name
                    (dest / name).write_bytes(zf.read(info))
                    extracted.append(dest / name)
    except zipfile.BadZipFile as exc:
        raise DatasetFormatError(f"{url}: not a readable zip archive ({exc})") from None
    if not extracted:
        raise DatasetFormatError("archive contained no ARFF files")
    preferred = [p for p in extracted if "full" in p.name.lower()] or extracted
    target = preferred[0]
    check_ckd_shape(load_dataset(target, format="arff", target="class"))
    return target


def check_ckd_shape(data: RawDataset) -> None:
    """Assert the loaded table matches the published kidney-disease shape."""
    problems = []
    if data.n_rows != 400:
        problems.append(f"{data.n_rows} rows (expected 400)")
    if data.n_features != 24:
        problems.append(f"{data.n_features} features (expected 24)")
    if sorted(map(str, data.classes)) != ["ckd", "notckd"]:
        problems.append(f"classes {list(data.classes)} (expected ckd/notckd)")
    if problems:
        raise DatasetFormatError("unexpected kidney-disease table: " + "; ".join(problems))
