"""Build and persist the per-algorithm meta-database.

One row per (dataset, transformation): the dataset's modifiable
characteristics, their deltas under the transformation, the base
cross-validated performance, and the labeled relative impact.
"""

from __future__ import annotations

import logging
import math
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .classifiers import MEASURES, ClassifierKind, cross_validate, parse_classifier
from .dataset import write_file
from .metafeatures import MODIFIABLE_IDS, compute_meta_features, delta
from .transforms import apply, enumerate_applicable

log = logging.getLogger("preprank.metadb")

SCHEMA_VERSION = 1

POSITIVE = "positive"
NEGATIVE = "negative"
ZERO = "zero"
RESPONSE_CLASSES = (POSITIVE, NEGATIVE, ZERO)

DEFAULT_EPSILON = 1e-9

#: training columns, in file order: base features, deltas, base performance
FEATURE_COLUMNS: tuple[str, ...] = (
    tuple(f"mf_{fid}" for fid in MODIFIABLE_IDS)
    + tuple(f"dmf_{fid}" for fid in MODIFIABLE_IDS)
    + ("base_perf",)
)


class MetaDbError(Exception):
    """Meta-database construction or serialization failure."""


def label_response(base: float, after: float):
    """Signed relative performance change and its three-way class.

    The change is relative to ``base`` when positive, absolute otherwise.
    ``zero`` means the magnitude is within ``DEFAULT_EPSILON``: exact CV ties.
    """
    value = (after - base) / base if base > 0 else after - base
    if abs(value) <= DEFAULT_EPSILON:
        return value, ZERO
    return value, POSITIVE if value > 0 else NEGATIVE


@dataclass(frozen=True, eq=False)
class MetaInstance:
    """One observed (dataset, transformation) outcome.

    ``features`` is its row in FEATURE_COLUMNS order, NaN where a feature
    is NOT_APPLICABLE.  Two instances are equal when every field is, NaN
    features equal to NaN.
    """

    dataset_name: str
    transformation: str
    features: np.ndarray
    meta_response_value: float
    meta_response_class: str

    def __eq__(self, other):
        if not isinstance(other, MetaInstance):
            return NotImplemented
        return (
            self.dataset_name == other.dataset_name
            and self.transformation == other.transformation
            and self.meta_response_value == other.meta_response_value
            and self.meta_response_class == other.meta_response_class
            and np.array_equal(self.features, other.features, equal_nan=True)
        )

    __hash__ = None


@dataclass(frozen=True)
class MetaDatabase:
    algorithm: ClassifierKind
    measure: str
    rows: tuple[MetaInstance, ...]
    #: (dataset name, "Type: message [file.py:line]") per dataset that failed
    #: during measurement; saved as comment lines, which load reads back
    skipped: tuple[tuple[str, str], ...] = field(default=(), compare=False)

    def dataset_names(self) -> tuple[str, ...]:
        seen: dict[str, None] = {}
        for row in self.rows:
            seen.setdefault(row.dataset_name, None)
        return tuple(seen)

    def weights(self) -> np.ndarray:
        """Per-row weight 1/|T_d|; each source dataset sums to exactly 1."""
        counts: dict[str, int] = {}
        for row in self.rows:
            counts[row.dataset_name] = counts.get(row.dataset_name, 0) + 1
        return np.array([1.0 / counts[r.dataset_name] for r in self.rows])

    def positive_rate(self) -> float:
        """Fraction of rows whose real impact class is positive."""
        if not self.rows:
            return 0.0
        return sum(r.meta_response_class == POSITIVE for r in self.rows) / len(self.rows)


def feature_vector(base: np.ndarray, change: np.ndarray, base_performance: float) -> np.ndarray:
    """Read-only numeric row in FEATURE_COLUMNS order; NOT_APPLICABLE is NaN."""
    n = len(MODIFIABLE_IDS)
    row = np.concatenate([base[:n], change[:n], [base_performance]])
    row.flags.writeable = False
    return row


def feature_matrix(db: MetaDatabase):
    """(X, y, w) for meta-learning: features, class index, dataset weights."""
    x = np.vstack([r.features for r in db.rows])
    y = np.array([RESPONSE_CLASSES.index(r.meta_response_class) for r in db.rows])
    return x, y, db.weights()


def _dataset_rows(args):
    """Worker: all meta-instances of one dataset, or a failure reason."""
    ds, algorithm, measure, seed = args
    try:
        specs, versions, shared = enumerate_applicable(ds), [], {}

        def catalog():  # makes each version once the one before has its meta-features
            yield ds
            for spec in specs:
                versions.append(apply(spec, ds, shared))
                yield versions[-1]

        mfs = compute_meta_features(catalog())
        base_mf, changes = mfs[0], delta(mfs[0], mfs[1:])
        measured = cross_validate(algorithm, [ds, *versions], seed=seed)
        base_pm, *trans_pms = [pm.get(measure) for pm in measured]
        rows = []
        for spec, change, trans_pm in zip(specs, changes, trans_pms):
            value, cls = label_response(base_pm, trans_pm)
            features = feature_vector(base_mf, change, base_pm)
            rows.append(MetaInstance(ds.name, spec.text, features, value, cls))
        return ds.name, rows, None
    except Exception as exc:  # noqa: BLE001 - per-dataset failures are reported, not fatal
        frames = traceback.extract_tb(exc.__traceback__)
        *_, at = (f for f in frames if Path(f.filename).parent == Path(__file__).parent)
        where = f"{Path(at.filename).name}:{at.lineno}"  # the innermost frame in this package
        return ds.name, None, f"{type(exc).__name__}: {exc} [{where}]"


def build_metadb(
    datasets,
    algorithm: ClassifierKind,
    measure: str,
    seed: int,
    *,
    jobs: int = 1,
) -> MetaDatabase:
    """Measure every applicable transformation on every dataset.

    Datasets where any step fails are skipped with a logged reason, which
    the result also keeps in ``skipped``; its rows cover the survivors in
    corpus order.
    """
    datasets = list(datasets)
    if measure not in MEASURES:
        raise ValueError(f"unknown measure {measure!r}")
    if not datasets:
        raise ValueError("empty corpus")
    tasks = [(ds, algorithm, measure, seed) for ds in datasets]
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor  # not at start-up: one job needs none
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_dataset_rows, tasks))
    else:
        results = [_dataset_rows(t) for t in tasks]
    rows: list[MetaInstance] = []
    skipped: list[tuple[str, str]] = []
    for name, ds_rows, reason in results:
        if ds_rows is None:
            log.warning("skipping dataset %s: %s", name, reason)
            skipped.append((name, reason))
            continue
        rows.extend(ds_rows)
    if len(skipped) == len(results):
        raise MetaDbError("all datasets failed")
    return MetaDatabase(algorithm, measure, tuple(rows), skipped=tuple(skipped))


# --- persistence ----------------------------------------------------------

_HEADER = ("dataset", "transformation") + FEATURE_COLUMNS + ("response_value", "response_class")
_SKIPPED = "# skipped "  # a skipped dataset's line: name, tab, reason
_BLANKS = str.maketrans("\t\r\n", "   ")  # a skip reason's tabs, CRs and LFs


def _name_cell(name: str) -> str:
    if {"\t", "\r", "\n"} & set(name):
        raise MetaDbError(f"dataset name {name!r} holds a tab, CR or LF")
    return name


def save(db: MetaDatabase, path, header_comment: str | None = None) -> None:
    """Write tab-delimited text: a schema comment, a header, one line per row.

    Each skipped dataset is a ``# skipped <dataset>\\t<reason>`` line before
    the header, its reason's tabs, CRs and LFs spaces.  A NOT_APPLICABLE
    feature is an empty cell.  A dataset name holding a tab, CR or LF is a
    MetaDbError, and nothing is written.
    """
    lines = [
        f"# preprank-metadb schema_version={SCHEMA_VERSION} "
        f"algorithm={db.algorithm.name} measure={db.measure}"
    ]
    if header_comment:
        lines.append(f"# {header_comment.lstrip('# ')}")
    lines += [f"{_SKIPPED}{_name_cell(n)}\t{reason.translate(_BLANKS)}" for n, reason in db.skipped]
    lines.append("\t".join(_HEADER))
    for row in db.rows:
        cells = [_name_cell(row.dataset_name), row.transformation]
        cells += ["" if math.isnan(v) else repr(v) for v in row.features.tolist()]
        cells += [repr(float(row.meta_response_value)), row.meta_response_class]
        lines.append("\t".join(cells))
    write_file(path, "\n".join(lines) + "\n")


def _number(cell: str, lineno: int) -> float:
    """A finite float cell; anything else is a MetaDbError naming the line."""
    try:
        value = float(cell)
    except ValueError:
        raise MetaDbError(f"line {lineno}: cell {cell!r} is not a number") from None
    if not math.isfinite(value):
        raise MetaDbError(f"line {lineno}: cell {cell!r} is not finite")
    return value


def load(path) -> MetaDatabase:
    """Inverse of :func:`save`; rejects unknown schema versions and bad cells."""
    text = Path(path).read_text(encoding="utf-8-sig")
    meta: dict[str, str] = {}
    header = None
    rows: list[MetaInstance] = []
    skipped: list[tuple[str, str]] = []
    n_blankable = 2 * len(MODIFIABLE_IDS)
    for lineno, line in enumerate(text.split("\n"), start=1):  # LF only, as save writes
        if not line.strip():
            continue
        if line.startswith("#") and header is None:  # a row's name may start with "#"
            if line.startswith(_SKIPPED) and "\t" in line:
                name, _, reason = line[len(_SKIPPED) :].partition("\t")
                skipped.append((name, reason))
            elif "preprank-metadb" in line:
                for token in line.lstrip("# ").split():
                    if "=" in token:
                        key, value = token.split("=", 1)
                        meta[key] = value
            continue
        if header is None:
            header = line.split("\t")
            if tuple(header) != _HEADER:
                raise MetaDbError("unexpected column header")
            continue
        cells = line.split("\t")
        if len(cells) != len(header):
            raise MetaDbError(f"line {lineno}: row with {len(cells)} cells, expected {len(header)}")
        cls = cells[-1]
        if cls not in RESPONSE_CLASSES:
            raise MetaDbError(f"unknown response class {cls!r}")
        *features, value = [
            math.nan if i < n_blankable and cell == "" else _number(cell, lineno)
            for i, cell in enumerate(cells[2:-1])
        ]
        features = np.array(features)
        features.flags.writeable = False
        rows.append(MetaInstance(cells[0], cells[1], features, value, cls))
    if "schema_version" not in meta or "algorithm" not in meta or "measure" not in meta:
        raise MetaDbError("missing metadata comment line")
    try:
        version = int(meta["schema_version"])
    except ValueError:
        raise MetaDbError(f"schema_version {meta['schema_version']!r} is not an integer") from None
    if version != SCHEMA_VERSION:
        raise MetaDbError(
            f"schema_version {version} not supported (expected {SCHEMA_VERSION})"
        )
    if meta["measure"] not in MEASURES:
        raise MetaDbError(f"unknown measure {meta['measure']!r}")
    if header is None or not rows:
        raise MetaDbError("file holds no meta-instances")
    return MetaDatabase(
        parse_classifier(meta["algorithm"]), meta["measure"], tuple(rows), skipped=tuple(skipped)
    )

