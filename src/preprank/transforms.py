"""Pre-processing operator catalog: enumeration over a dataset and application.

Nine operator kinds are supported.  Local kinds target one compatible
predictor (or all of them at once); global kinds always act on every
compatible predictor.  Application never touches the class column and never
changes the row count.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .dataset import CATEGORICAL, CONTINUOUS, Attribute, Dataset
from .tree import mdl_cuts

DISCRETIZE_SUPERVISED = "discretize_sup"
DISCRETIZE_UNSUPERVISED = "discretize_unsup"
NOMINAL_TO_BINARY_SUPERVISED = "nom2bin_sup"
NOMINAL_TO_BINARY_UNSUPERVISED = "nom2bin_unsup"
NORMALIZE = "normalize"
STANDARDIZE = "standardize"
IMPUTE_CONTINUOUS = "impute_cont"
IMPUTE_CATEGORICAL = "impute_cat"
PRINCIPAL_COMPONENTS = "pca"

#: equal-width discretization's bin count
_BINS = 10
#: share of the total variance that PCA's components cover
_PCA_VARIANCE = 0.95

SCOPE_GLOBAL = "global"
SCOPE_LOCAL = "local"
SCOPE_ALL = "all"


class TransformError(Exception):
    """Illegal spec/dataset pairing."""


@dataclass(frozen=True)
class TransformationSpec:
    """One concrete pre-processing action: kind + scope (+ target attribute)."""

    kind: str
    scope: str
    attribute: int | None = None

    def __post_init__(self):
        if self.kind not in KIND_ORDER:
            raise ValueError(f"unknown transformation kind {self.kind!r}")
        if self.scope not in (SCOPE_GLOBAL, SCOPE_LOCAL, SCOPE_ALL):
            raise ValueError(f"unknown scope {self.scope!r}")
        if self.kind in LOCAL_KINDS:
            if self.scope == SCOPE_GLOBAL:
                raise ValueError(f"{self.kind} is a local kind")
        elif self.scope != SCOPE_GLOBAL:
            raise ValueError(f"{self.kind} is a global kind")
        if self.scope == SCOPE_LOCAL:
            if self.attribute is None or self.attribute < 0:
                raise ValueError("local scope needs a target attribute index")
        elif self.attribute is not None:
            raise ValueError(f"scope {self.scope!r} does not take an attribute")

    @property
    def text(self) -> str:
        """Canonical text form, e.g. ``discretize_unsup(attr=3,bins=10)``."""
        scope = {SCOPE_LOCAL: f"attr={self.attribute}", SCOPE_ALL: "all"}.get(self.scope, "")
        parts = [part for part in (scope, _OPERATORS[self.kind].params) if part]
        return f"{self.kind}({','.join(parts) or SCOPE_GLOBAL})"

    def __str__(self) -> str:
        return self.text


def spec_kind(text: str) -> str:
    """Extract the kind out of a canonical spec text."""
    return text.split("(", 1)[0]


def _compatible(ds: Dataset, kind: str) -> tuple[int, ...]:
    continuous = _OPERATORS[kind].reads == CONTINUOUS
    return ds.continuous_predictors if continuous else ds.categorical_predictors


def _has_missing(ds: Dataset, indices) -> bool:
    return any(np.isnan(ds.column(j)).any() for j in indices)


def enumerate_applicable(ds: Dataset) -> list[TransformationSpec]:
    """All concrete transformations applicable to a dataset, in canonical order.

    Global kinds yield one spec when a compatible predictor exists (imputation
    kinds also need a missing cell of the matching type).  Local kinds yield
    one spec per compatible predictor plus an all-attributes spec when at
    least two are compatible.
    """
    specs: list[TransformationSpec] = []
    for kind in KIND_ORDER:
        compatible = _compatible(ds, kind)
        if not compatible:
            continue
        if kind in LOCAL_KINDS:
            specs += [TransformationSpec(kind, SCOPE_LOCAL, j) for j in compatible]
            if len(compatible) >= 2:
                specs.append(TransformationSpec(kind, SCOPE_ALL))
        elif kind not in (IMPUTE_CONTINUOUS, IMPUTE_CATEGORICAL) or _has_missing(ds, compatible):
            specs.append(TransformationSpec(kind, SCOPE_GLOBAL))
    return specs


#: replacement (attribute, column) pairs for one source attribute
_Columns = list[tuple[Attribute, np.ndarray]]


def apply(spec: TransformationSpec, ds: Dataset) -> Dataset:
    """Apply one transformation, returning a fresh dataset.

    Each target is replaced by the columns that its kind's rewrite in
    ``_OPERATORS`` returns for it.  PCA replaces its targets together:
    the components take the place of the first target.
    """
    compatible = _compatible(ds, spec.kind)
    if spec.scope == SCOPE_LOCAL:
        if spec.attribute not in compatible:
            raise TransformError(
                f"attribute {spec.attribute} is not a {_OPERATORS[spec.kind].reads} "
                f"predictor of {ds.name!r}"
            )
        targets = (spec.attribute,)
    else:
        if not compatible:
            raise TransformError(f"{spec.kind} has no compatible predictor in {ds.name!r}")
        targets = compatible

    columns = [[(attr, ds.column(j))] for j, attr in enumerate(ds.attributes)]
    if spec.kind == PRINCIPAL_COMPONENTS:
        for j in targets:
            columns[j] = []
        columns[targets[0]] = _principal_components(ds, targets)
    else:
        rewrite = _OPERATORS[spec.kind].rewrite
        for j in targets:
            columns[j] = rewrite(ds, j)
    return _rebuild(ds, columns)


def _rebuild(ds: Dataset, per_attr: list[_Columns]) -> Dataset:
    """Assemble a dataset from per-source-attribute replacement column lists."""
    attrs: list[Attribute] = []
    cols: list[np.ndarray] = []
    taken = set()
    class_index = None
    for j, replacements in enumerate(per_attr):
        for attr, col in replacements:
            name = attr.name
            while name in taken:
                name += "_"
            taken.add(name)
            if j == ds.class_index:
                class_index = len(attrs)
            attrs.append(
                attr if name == attr.name else Attribute(name, attr.kind, attr.categories)
            )
            cols.append(col)
    return Dataset(ds.name, tuple(attrs), class_index, np.column_stack(cols))


def _normalize(ds: Dataset, j: int) -> _Columns:
    """Min-max scaling of the present cells to [0, 1]; a constant column becomes 0."""
    out = np.array(ds.column(j))
    present = ~np.isnan(out)
    vals = out[present]
    if vals.size:
        lo, hi = vals.min(), vals.max()
        out[present] = 0.0 if hi == lo else (vals - lo) / (hi - lo)
    return [(ds.attributes[j], out)]


def _standardize(ds: Dataset, j: int) -> _Columns:
    """Z-scores over the sample standard deviation; a constant column becomes 0."""
    out = np.array(ds.column(j))
    present = ~np.isnan(out)
    vals = out[present]
    if vals.size:
        std = float(np.std(vals, ddof=1)) if vals.size > 1 else 0.0
        out[present] = 0.0 if std == 0.0 else (vals - vals.mean()) / std
    return [(ds.attributes[j], out)]


def _discretize_equal_width(ds: Dataset, j: int) -> _Columns:
    col = ds.column(j)
    vals = col[~np.isnan(col)]
    idx = np.zeros(vals.size)
    if vals.size:
        lo, hi = vals.min(), vals.max()
        width = (hi - lo) / _BINS
        if width != 0.0:
            idx = np.clip(np.floor((vals - lo) / width), 0, _BINS - 1)
    return _binned(ds, j, idx, _BINS)


def _discretize_mdl(ds: Dataset, j: int) -> _Columns:
    """Attribute ``j`` binned at its :func:`mdl_cuts`; a value at a cut goes above it."""
    col = ds.column(j)
    present = ~np.isnan(col)
    cuts = mdl_cuts(col[present], ds.class_labels[present])
    return _binned(ds, j, np.searchsorted(cuts, col[present], side="right"), cuts.size + 1)


def _binned(ds: Dataset, j: int, bin_of_present: np.ndarray, n_bins: int) -> _Columns:
    """Attribute ``j`` as categories ``bin0..`` holding each present cell's bin index."""
    out = np.array(ds.column(j))
    out[~np.isnan(out)] = bin_of_present
    attr = Attribute(ds.attributes[j].name, CATEGORICAL, tuple(f"bin{i}" for i in range(n_bins)))
    return [(attr, out)]


def _nominal_to_binary_plain(ds: Dataset, j: int) -> _Columns:
    """One 0/1 indicator per category; two-category attributes get a single one."""
    col = ds.column(j)
    cats = ds.attributes[j].categories
    name = ds.attributes[j].name
    if len(cats) == 2:
        wanted = [(1, cats[1])]
    else:
        wanted = list(enumerate(cats))
    replacements = []
    for idx, cat in wanted:
        out = np.where(np.isnan(col), np.nan, (col == idx).astype(float))
        replacements.append((Attribute(f"{name}={cat}", CONTINUOUS), out))
    return replacements


def _nominal_to_binary_ordered(ds: Dataset, j: int) -> _Columns:
    """Cumulative indicator coding with categories ordered by mean class rank.

    Classes are ranked by their category index; each category gets the mean
    rank of its rows, categories are sorted by it, and k-1 indicators encode
    "comes after position j" in that order.  Single-category attributes
    collapse to one all-zero indicator.
    """
    col = ds.column(j)
    cats = ds.attributes[j].categories
    name = ds.attributes[j].name
    present = ~np.isnan(col)
    if len(cats) == 1:
        return [(Attribute(f"{name}>none", CONTINUOUS), np.where(present, 0.0, np.nan))]
    codes = col[present].astype(int)
    counts = np.bincount(codes, minlength=len(cats))
    # label sums are integers, so they are exact in any order of addition
    sums = np.bincount(codes, weights=ds.class_labels[present], minlength=len(cats))
    mean_rank = np.where(counts > 0, sums / np.maximum(counts, 1), math.inf)
    order = np.argsort(mean_rank, kind="stable")  # equal ranks keep category order
    position = np.empty(len(cats))
    position[order] = np.arange(len(cats))
    pos_col = position[np.nan_to_num(col).astype(int)]  # missing cells are masked below
    return [
        (
            Attribute(f"{name}>{cats[order[p]]}", CONTINUOUS),
            np.where(present, (pos_col > p).astype(float), np.nan),
        )
        for p in range(len(cats) - 1)
    ]


def _impute_mean(ds: Dataset, j: int) -> _Columns:
    col = np.array(ds.column(j))
    missing = np.isnan(col)
    if missing.any():
        vals = col[~missing]
        col[missing] = float(vals.mean()) if vals.size else 0.0
    return [(ds.attributes[j], col)]


def _impute_mode(ds: Dataset, j: int) -> _Columns:
    col = np.array(ds.column(j))
    missing = np.isnan(col)
    if missing.any():
        vals = col[~missing].astype(int)
        if vals.size:
            counts = np.bincount(vals, minlength=len(ds.attributes[j].categories))
            mode = int(np.argmax(counts))  # argmax takes the lowest index on ties
        else:
            mode = 0
        col[missing] = float(mode)
    return [(ds.attributes[j], col)]


def _principal_components(ds: Dataset, targets) -> _Columns:
    """Scores ``PC1..PCk`` of the continuous predictors ``targets``.

    Columns are mean-imputed, centered and scaled to unit sample variance
    (constant columns stay zero), then projected onto the smallest set of
    covariance eigenvectors covering ``_PCA_VARIANCE`` of the total variance.
    Eigenvector signs are fixed so the largest-magnitude loading is positive.
    """
    n = ds.n_rows
    # (rows x targets) in Fortran order: the per-column sums of mean, std and
    # cov below add in that layout's order, so the layout is part of the output
    x = np.array([_impute_mean(ds, j)[0][1] for j in targets]).T
    means = x.mean(axis=0)
    stds = x.std(axis=0, ddof=1) if n > 1 else np.zeros(x.shape[1])
    x = x - means
    nonzero = stds > 0
    x[:, nonzero] /= stds[nonzero]
    x[:, ~nonzero] = 0.0

    scores = np.zeros((n, 1))
    if n > 1:
        cov = np.cov(x, rowvar=False, ddof=1).reshape(len(targets), len(targets))
        evals, evecs = np.linalg.eigh(cov)
        evals = np.clip(evals[::-1], 0.0, None)
        evecs = evecs[:, ::-1]
        total = evals.sum()
        if total != 0.0:
            ratios = np.cumsum(evals) / total
            n_comp = int(np.searchsorted(ratios, _PCA_VARIANCE - 1e-12) + 1)
            n_comp = min(n_comp, len(targets))
            basis = evecs[:, :n_comp].copy()
            for c in range(n_comp):
                lead = np.argmax(np.abs(basis[:, c]))
                if basis[lead, c] < 0:
                    basis[:, c] = -basis[:, c]
            scores = x @ basis
    return [
        (Attribute(f"PC{i + 1}", CONTINUOUS), scores[:, i]) for i in range(scores.shape[1])
    ]


class _Operator(NamedTuple):
    reads: str  # the predictor kind it takes: CONTINUOUS or CATEGORICAL
    local: bool  # a spec targets one compatible predictor, or all of them
    params: str  # its parameter text in a spec's text form
    #: ``(ds, j) -> [(Attribute, column), ...]`` replacing target ``j`` in place; None for
    #: PCA, whose components replace its targets together in :func:`apply`
    rewrite: Callable[[Dataset, int], _Columns] | None


#: every operator kind, in catalog order
_OPERATORS = {
    DISCRETIZE_SUPERVISED: _Operator(CONTINUOUS, True, "", _discretize_mdl),
    DISCRETIZE_UNSUPERVISED: _Operator(CONTINUOUS, True, f"bins={_BINS}", _discretize_equal_width),
    NOMINAL_TO_BINARY_SUPERVISED: _Operator(CATEGORICAL, False, "", _nominal_to_binary_ordered),
    NOMINAL_TO_BINARY_UNSUPERVISED: _Operator(CATEGORICAL, True, "", _nominal_to_binary_plain),
    NORMALIZE: _Operator(CONTINUOUS, False, "", _normalize),
    STANDARDIZE: _Operator(CONTINUOUS, False, "", _standardize),
    IMPUTE_CONTINUOUS: _Operator(CONTINUOUS, False, "", _impute_mean),
    IMPUTE_CATEGORICAL: _Operator(CATEGORICAL, False, "", _impute_mode),
    PRINCIPAL_COMPONENTS: _Operator(CONTINUOUS, False, f"var={_PCA_VARIANCE!r}", None),
}

#: catalog order; enumeration and reports follow it
KIND_ORDER = tuple(_OPERATORS)
LOCAL_KINDS = frozenset(kind for kind, op in _OPERATORS.items() if op.local)
