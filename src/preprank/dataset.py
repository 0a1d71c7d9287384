"""Typed in-memory tabular datasets: ARFF/CSV parsing, serialization, stratified folds.

All cells live in one float matrix: continuous cells hold their value,
categorical cells hold the index into the attribute's category list, and
missing cells hold NaN.
"""

from __future__ import annotations

import csv as _csvmod
import math
from dataclasses import dataclass
from io import StringIO
from pathlib import Path

import numpy as np

CONTINUOUS = "continuous"
CATEGORICAL = "categorical"


class DatasetError(Exception):
    """Invalid dataset content or structure."""


class ArffError(DatasetError):
    """ARFF input rejected at a specific 1-based source line."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class MalformedHeaderError(ArffError):
    pass


class UnknownAttributeTypeError(ArffError):
    pass


class RowArityError(ArffError):
    pass


class UndeclaredNominalValueError(ArffError):
    pass


class SparseArffError(ArffError):
    pass


class CsvFormatError(DatasetError):
    pass


@dataclass(frozen=True)
class Attribute:
    """One column: continuous, or categorical with an ordered label list."""

    name: str
    kind: str
    categories: tuple[str, ...] = ()

    def __post_init__(self):
        if self.kind not in (CONTINUOUS, CATEGORICAL):
            raise ValueError(f"unknown attribute kind {self.kind!r}")
        object.__setattr__(self, "categories", tuple(self.categories))
        if self.kind == CATEGORICAL and not self.categories:
            raise ValueError(f"categorical attribute {self.name!r} needs at least one category")
        if self.kind == CONTINUOUS and self.categories:
            raise ValueError(f"continuous attribute {self.name!r} cannot declare categories")
        if len(set(self.categories)) != len(self.categories):
            raise ValueError(f"duplicate category in attribute {self.name!r}")

    @property
    def is_continuous(self) -> bool:
        return self.kind == CONTINUOUS

    @property
    def is_categorical(self) -> bool:
        return self.kind == CATEGORICAL


@dataclass(frozen=True, eq=False)
class Dataset:
    """Immutable typed table whose class column is always categorical."""

    name: str
    attributes: tuple[Attribute, ...]
    class_index: int
    rows: np.ndarray

    def __post_init__(self):
        attrs = tuple(self.attributes)
        object.__setattr__(self, "attributes", attrs)
        rows = np.array(self.rows, dtype=float)
        if rows.ndim != 2:
            raise ValueError("rows must be a 2-d cell grid")
        n, m = rows.shape
        if n < 1:
            raise ValueError("dataset needs at least one row")
        if m != len(attrs):
            raise ValueError(f"{m} columns for {len(attrs)} attributes")
        if m < 2:
            raise ValueError("dataset needs a class and at least one predictor")
        names = [a.name for a in attrs]
        if len(set(names)) != len(names):
            raise ValueError("attribute names must be unique")
        if not 0 <= self.class_index < m:
            raise ValueError("class_index out of range")
        cls = attrs[self.class_index]
        if not cls.is_categorical or len(cls.categories) < 2:
            raise ValueError("class attribute must be categorical with >=2 categories")
        for j, attr in enumerate(attrs):
            col = rows[:, j]
            present = ~np.isnan(col)
            if j == self.class_index and not present.all():
                raise ValueError("class column cannot contain missing cells")
            vals = col[present]
            if attr.is_continuous:
                if not np.isfinite(vals).all():
                    raise ValueError(f"non-finite value in continuous attribute {attr.name!r}")
            elif vals.size:
                if (np.floor(vals) != vals).any():
                    raise ValueError(f"non-integer category index in {attr.name!r}")
                if ((vals < 0) | (vals >= len(attr.categories))).any():
                    raise ValueError(f"category index out of range in {attr.name!r}")
        rows.flags.writeable = False
        object.__setattr__(self, "rows", rows)

    def __eq__(self, other):
        if not isinstance(other, Dataset):
            return NotImplemented
        return (
            self.name == other.name
            and self.attributes == other.attributes
            and self.class_index == other.class_index
            and np.array_equal(self.rows, other.rows, equal_nan=True)
        )

    __hash__ = None

    @property
    def n_rows(self) -> int:
        return self.rows.shape[0]

    @property
    def n_attributes(self) -> int:
        return self.rows.shape[1]

    @property
    def class_attribute(self) -> Attribute:
        return self.attributes[self.class_index]

    @property
    def class_labels(self) -> np.ndarray:
        return self.rows[:, self.class_index].astype(int)

    @property
    def predictor_indices(self) -> tuple[int, ...]:
        return tuple(j for j in range(self.n_attributes) if j != self.class_index)

    @property
    def continuous_predictors(self) -> tuple[int, ...]:
        return tuple(j for j in self.predictor_indices if self.attributes[j].is_continuous)

    @property
    def categorical_predictors(self) -> tuple[int, ...]:
        return tuple(j for j in self.predictor_indices if self.attributes[j].is_categorical)

    def column(self, j: int) -> np.ndarray:
        return self.rows[:, j]


def column_key(ds: Dataset, j: int) -> tuple:
    """Attribute ``j``'s kind, category count and cell bytes: equal keys, equal columns."""
    return ds.attributes[j].kind, len(ds.attributes[j].categories), ds.column(j).tobytes()


def stratified_folds(ds: Dataset, k: int, seed: int) -> np.ndarray:
    """Read-only fold index of every row, spreading every class over ``k`` folds.

    The assignment depends only on the class labels, ``k`` and ``seed``, so a
    transformed dataset keeps the folds of its source (predictor edits never
    reshuffle folds).  Per class, fold counts differ by at most one.
    """
    n = ds.n_rows
    if k < 2:
        raise ValueError("fold count must be >= 2")
    if k > n:
        raise ValueError(f"cannot split {n} rows into {k} folds")
    rng = np.random.default_rng(seed)
    labels = ds.class_labels
    fold_of_row = np.empty(n, dtype=int)
    cursor = 0
    for c in range(len(ds.class_attribute.categories)):
        members = np.flatnonzero(labels == c)
        if members.size == 0:
            continue
        members = rng.permutation(members)
        for i, row in enumerate(members):
            fold_of_row[row] = (cursor + i) % k
        cursor += members.size
    fold_of_row.flags.writeable = False
    return fold_of_row


# --- ARFF ---------------------------------------------------------------

_NUMERIC_TYPES = {"numeric", "real", "integer"}


class _Quoted(str):
    """A cell that held a quote: ``'?'`` is the category ``?``, not a missing cell."""


def _split_quoted(text: str, lineno: int) -> list[str]:
    """Split on commas honoring quotes and backslash escapes; quoted cells are _Quoted."""
    if "'" not in text and '"' not in text:  # backslashes escape only inside quotes
        return [v.strip() for v in text.split(",")]
    out = []
    buf = []
    quote = None
    escaped = quoted = False
    for ch in text:
        if escaped:
            buf.append(ch)
            escaped = False
        elif quote:
            if ch == "\\":
                escaped = True
            elif ch == quote:
                quote = None
            else:
                buf.append(ch)
        elif ch in "'\"":
            quote = ch
            quoted = True
        elif ch == ",":
            out.append((_Quoted if quoted else str)("".join(buf).strip()))
            buf = []
            quoted = False
        else:
            buf.append(ch)
    if quote:
        raise ArffError("unterminated quote", lineno)
    out.append((_Quoted if quoted else str)("".join(buf).strip()))
    return out


def _take_token(text: str, lineno: int) -> tuple[str, str]:
    """Read one (possibly quoted) token, return (token, rest)."""
    text = text.strip()
    if not text:
        raise MalformedHeaderError("missing token", lineno)
    if text[0] in "'\"":
        quote = text[0]
        buf = []
        i = 1
        while i < len(text):
            ch = text[i]
            if ch == "\\" and i + 1 < len(text):
                buf.append(text[i + 1])
                i += 2
                continue
            if ch == quote:
                return "".join(buf), text[i + 1 :]
            buf.append(ch)
            i += 1
        raise MalformedHeaderError("unterminated quoted name", lineno)
    parts = text.split(None, 1)
    return parts[0], parts[1] if len(parts) > 1 else ""


def parse_arff(text: str) -> Dataset:
    """Parse dense ARFF (numeric/real/integer and nominal attributes only).

    The class column is the attribute literally named ``class``
    (case-insensitive) if present, otherwise the last nominal attribute.
    An unquoted ``?`` marks a missing cell; ``'?'`` is the category ``?``.
    Sparse ``{...}`` data rows are rejected.
    """
    relation = None
    attrs: list[Attribute] = []
    in_data = False
    class_index = -1
    cat_lookup: list[dict[str, int] | None] = []
    data: list[list[float]] = []
    lineno = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("%"):
            continue
        if not in_data:
            lowered = line.lower()
            if lowered.startswith("@relation"):
                rest = line[len("@relation") :]
                relation, _ = _take_token(rest, lineno)
            elif lowered.startswith("@attribute"):
                rest = line[len("@attribute") :]
                name, type_part = _take_token(rest, lineno)
                type_part = type_part.strip()
                if not type_part:
                    raise MalformedHeaderError(f"attribute {name!r} has no type", lineno)
                if type_part.startswith("{"):
                    if not type_part.endswith("}"):
                        raise MalformedHeaderError("unterminated nominal list", lineno)
                    cats = _split_quoted(type_part[1:-1], lineno)
                    cats = [str(c) for c in cats if c != ""]
                    if not cats:
                        raise MalformedHeaderError("empty nominal list", lineno)
                    try:
                        attrs.append(Attribute(name, CATEGORICAL, tuple(cats)))
                    except ValueError as exc:
                        raise MalformedHeaderError(str(exc), lineno) from exc
                elif type_part.lower() in _NUMERIC_TYPES:
                    attrs.append(Attribute(name, CONTINUOUS))
                else:
                    raise UnknownAttributeTypeError(
                        f"unsupported attribute type {type_part!r}", lineno
                    )
            elif lowered.startswith("@data"):
                if relation is None:
                    raise MalformedHeaderError("@data before @relation", lineno)
                if not attrs:
                    raise MalformedHeaderError("@data with no attributes", lineno)
                class_index = _detect_class_index(attrs, lineno)
                cat_lookup = [
                    {c: i for i, c in enumerate(a.categories)} if a.is_categorical else None
                    for a in attrs
                ]
                in_data = True
            else:
                raise MalformedHeaderError(f"unexpected line {line!r}", lineno)
            continue
        if line.startswith("{"):
            raise SparseArffError("sparse ARFF rows are not supported", lineno)
        values = _split_quoted(line, lineno)
        if len(values) != len(attrs):
            raise RowArityError(
                f"row has {len(values)} values, expected {len(attrs)}", lineno
            )
        row = []
        for j, value in enumerate(values):
            if value == "?" and not isinstance(value, _Quoted):
                if j == class_index:
                    raise ArffError("missing value in class column", lineno)
                row.append(float("nan"))
            elif attrs[j].is_continuous:
                try:
                    num = float(value)
                except ValueError as exc:
                    raise ArffError(f"cannot parse {value!r} as a number", lineno) from exc
                if not math.isfinite(num):
                    raise ArffError(f"non-finite value {value!r}", lineno)
                row.append(num)
            else:
                idx = cat_lookup[j].get(value)
                if idx is None:
                    raise UndeclaredNominalValueError(
                        f"undeclared nominal value {value!r} for attribute "
                        f"{attrs[j].name!r}",
                        lineno,
                    )
                row.append(float(idx))
        data.append(row)
    if not in_data:
        raise MalformedHeaderError("missing @data section", lineno or 1)
    if not data:
        raise ArffError("no data rows", lineno)
    try:
        return Dataset(relation, tuple(attrs), class_index, np.array(data))
    except ValueError as exc:
        raise DatasetError(str(exc)) from exc


def _detect_class_index(attrs: list[Attribute], lineno: int) -> int:
    for i, a in enumerate(attrs):
        if a.name.lower() == "class":
            if not a.is_categorical:
                raise ArffError("'class' attribute must be nominal", lineno)
            return i
    for i in range(len(attrs) - 1, -1, -1):
        if attrs[i].is_categorical:
            return i
    raise ArffError("no nominal attribute available as class", lineno)


_QUOTE_TRIGGERS = set(" ,{}%'\"\t?")


def _quote(token: str) -> str:
    if token == "" or any(ch in _QUOTE_TRIGGERS for ch in token):
        escaped = token.replace("\\", "\\\\").replace("'", "\\'")
        return f"'{escaped}'"
    return token


def serialize_arff(ds: Dataset) -> str:
    """Render a dataset as dense ARFF; missing cells become ``?``.

    Round-trips through :func:`parse_arff` only when the class position is
    recoverable by the parser's detection rule (attribute named ``class``, or
    class is the last nominal attribute); otherwise raises.
    """
    if _detect_class_index(list(ds.attributes), 0) != ds.class_index:
        raise DatasetError(
            "class position is not representable in ARFF: name it 'class' or move it last"
        )
    lines = [f"@relation {_quote(ds.name)}"]
    for a in ds.attributes:
        if a.is_continuous:
            lines.append(f"@attribute {_quote(a.name)} numeric")
        else:
            cats = ",".join(_quote(c) for c in a.categories)
            lines.append(f"@attribute {_quote(a.name)} {{{cats}}}")
    lines.append("@data")
    for row in ds.rows:
        cells = []
        for j, v in enumerate(row):
            if math.isnan(v):
                cells.append("?")
            elif ds.attributes[j].is_continuous:
                cells.append(repr(float(v)))
            else:
                cells.append(_quote(ds.attributes[j].categories[int(v)]))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


# --- CSV ----------------------------------------------------------------

_CSV_MISSING = {"", "NA", "?"}


def parse_csv(text: str, class_column: str | None = None, name: str = "dataset") -> Dataset:
    """Parse header-ful CSV; empty cells, ``NA`` and ``?`` are missing.

    ``class_column`` is a header name; by default the header named ``class``
    (case-insensitive), else the last header.  Predictor types are inferred:
    continuous only when every non-missing cell parses as a finite number,
    else categorical.  Categorical columns, the class among them, list their
    categories in first-appearance order.
    """
    table = [row for row in _csvmod.reader(StringIO(text)) if row]
    if not table:
        raise CsvFormatError("empty file")
    header = [h.strip() for h in table[0]]
    records = table[1:]
    if not records:
        raise CsvFormatError("no data rows")
    if class_column is None:
        class_column = next((h for h in header if h.lower() == "class"), header[-1])
    if class_column not in header:
        raise CsvFormatError(f"missing class column {class_column!r}")
    class_idx = header.index(class_column)
    for i, rec in enumerate(records, start=2):
        if len(rec) != len(header):
            raise CsvFormatError(f"row {i} has {len(rec)} cells, expected {len(header)}")
    attrs = []
    columns = []
    for j, col_name in enumerate(header):
        raw = [rec[j].strip() for rec in records]
        missing = [v in _CSV_MISSING for v in raw]
        if j == class_idx and any(missing):
            raise CsvFormatError("class column contains missing cells")
        if j != class_idx and _all_numeric(raw, missing):
            attrs.append(Attribute(col_name, CONTINUOUS))
            columns.append([math.nan if miss else float(v) for v, miss in zip(raw, missing)])
            continue
        codes: dict[str, int] = {}  # category -> index, in first-appearance order
        columns.append(
            [
                math.nan if miss else float(codes.setdefault(v, len(codes)))
                for v, miss in zip(raw, missing)
            ]
        )
        if j == class_idx and len(codes) < 2:
            raise CsvFormatError("class column needs at least two distinct values")
        attrs.append(Attribute(col_name, CATEGORICAL, tuple(codes) or ("_empty",)))
    rows = np.array(columns, dtype=float).T
    try:
        return Dataset(name, tuple(attrs), class_idx, rows)
    except ValueError as exc:
        raise CsvFormatError(str(exc)) from exc


def _all_numeric(raw, missing) -> bool:
    seen = False
    for v, miss in zip(raw, missing):
        if miss:
            continue
        seen = True
        try:
            if not math.isfinite(float(v)):
                return False
        except ValueError:
            return False
    return seen


def load_dataset_file(path, class_column=None) -> Dataset:
    """Load ``.arff`` or ``.csv`` by extension.

    ``class_column`` goes to :func:`parse_csv`.  ARFF files find their own
    class column, so naming one for them is an error.
    """
    p = Path(path)
    is_csv = p.suffix.lower() == ".csv"
    if class_column is not None and not is_csv:
        raise DatasetError("--class-column applies to .csv files only")
    text = p.read_text(encoding="utf-8-sig")
    if is_csv:
        return parse_csv(text, class_column, name=p.stem)
    return parse_arff(text)
