"""Pre-processing operator catalog: enumeration over a dataset and application.

Nine operator kinds are supported.  Local kinds target one compatible
predictor (or all of them at once); global kinds always act on every
compatible predictor.  Application never touches the class column and never
changes the row count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dataset import CATEGORICAL, CONTINUOUS, Attribute, Dataset
from .tree import entropies, entropy, select

DISCRETIZE_SUPERVISED = "discretize_sup"
DISCRETIZE_UNSUPERVISED = "discretize_unsup"
NOMINAL_TO_BINARY_SUPERVISED = "nom2bin_sup"
NOMINAL_TO_BINARY_UNSUPERVISED = "nom2bin_unsup"
NORMALIZE = "normalize"
STANDARDIZE = "standardize"
IMPUTE_CONTINUOUS = "impute_cont"
IMPUTE_CATEGORICAL = "impute_cat"
PRINCIPAL_COMPONENTS = "pca"

#: catalog order; enumeration and reports follow it
KIND_ORDER = (
    DISCRETIZE_SUPERVISED,
    DISCRETIZE_UNSUPERVISED,
    NOMINAL_TO_BINARY_SUPERVISED,
    NOMINAL_TO_BINARY_UNSUPERVISED,
    NORMALIZE,
    STANDARDIZE,
    IMPUTE_CONTINUOUS,
    IMPUTE_CATEGORICAL,
    PRINCIPAL_COMPONENTS,
)

LOCAL_KINDS = frozenset(
    {DISCRETIZE_SUPERVISED, DISCRETIZE_UNSUPERVISED, NOMINAL_TO_BINARY_UNSUPERVISED}
)

_INPUT_KIND = {
    DISCRETIZE_SUPERVISED: CONTINUOUS,
    DISCRETIZE_UNSUPERVISED: CONTINUOUS,
    NOMINAL_TO_BINARY_SUPERVISED: CATEGORICAL,
    NOMINAL_TO_BINARY_UNSUPERVISED: CATEGORICAL,
    NORMALIZE: CONTINUOUS,
    STANDARDIZE: CONTINUOUS,
    IMPUTE_CONTINUOUS: CONTINUOUS,
    IMPUTE_CATEGORICAL: CATEGORICAL,
    PRINCIPAL_COMPONENTS: CONTINUOUS,
}

_DEFAULT_PARAMS = {
    DISCRETIZE_UNSUPERVISED: (("bins", 10.0),),
    PRINCIPAL_COMPONENTS: (("var", 0.95),),
}

_INT_PARAMS = {"bins"}

SCOPE_GLOBAL = "global"
SCOPE_LOCAL = "local"
SCOPE_ALL = "all"


class TransformError(Exception):
    """Illegal spec/dataset pairing or unparsable spec text."""


@dataclass(frozen=True)
class TransformationSpec:
    """One concrete pre-processing action: kind + scope + parameters."""

    kind: str
    scope: str
    attribute: int | None = None
    params: tuple[tuple[str, float], ...] = ()

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
        merged = dict(_DEFAULT_PARAMS.get(self.kind, ()))
        for key, value in self.params:
            if key not in merged:
                raise ValueError(f"{self.kind} does not take parameter {key!r}")
            merged[key] = float(value)
        object.__setattr__(self, "params", tuple(sorted(merged.items())))

    def param(self, key: str) -> float:
        for k, v in self.params:
            if k == key:
                return v
        raise KeyError(key)

    @property
    def text(self) -> str:
        """Canonical text form, e.g. ``discretize_unsup(attr=3,bins=10)``."""
        parts = []
        if self.scope == SCOPE_LOCAL:
            parts.append(f"attr={self.attribute}")
        elif self.scope == SCOPE_ALL:
            parts.append("all")
        elif not self.params:
            parts.append("global")
        for k, v in self.params:
            parts.append(f"{k}={int(v) if k in _INT_PARAMS else repr(v)}")
        return f"{self.kind}({','.join(parts)})"

    def __str__(self) -> str:
        return self.text


def parse_spec_text(text: str) -> TransformationSpec:
    """Inverse of :attr:`TransformationSpec.text`."""
    text = text.strip()
    if not text.endswith(")") or "(" not in text:
        raise TransformError(f"malformed transformation text {text!r}")
    kind, arg_text = text[:-1].split("(", 1)
    if kind not in KIND_ORDER:
        raise TransformError(f"unknown transformation kind {kind!r}")
    scope = SCOPE_GLOBAL
    attribute = None
    params = []
    for part in filter(None, (p.strip() for p in arg_text.split(","))):
        if part == "global":
            scope = SCOPE_GLOBAL
        elif part == "all":
            scope = SCOPE_ALL
        elif "=" in part:
            key, value = part.split("=", 1)
            if key == "attr":
                scope = SCOPE_LOCAL
                attribute = int(value)
            else:
                params.append((key, float(value)))
        else:
            raise TransformError(f"malformed argument {part!r} in {text!r}")
    try:
        return TransformationSpec(kind, scope, attribute, tuple(params))
    except ValueError as exc:
        raise TransformError(str(exc)) from exc


def spec_kind(text: str) -> str:
    """Extract the kind out of a canonical spec text."""
    return text.split("(", 1)[0]


def _compatible(ds: Dataset, kind: str) -> tuple[int, ...]:
    wanted = _INPUT_KIND[kind]
    if wanted == CONTINUOUS:
        return ds.continuous_predictors
    return ds.categorical_predictors


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
            for j in compatible:
                specs.append(TransformationSpec(kind, SCOPE_LOCAL, j))
            if len(compatible) >= 2:
                specs.append(TransformationSpec(kind, SCOPE_ALL))
        else:
            if kind in (IMPUTE_CONTINUOUS, IMPUTE_CATEGORICAL) and not _has_missing(
                ds, compatible
            ):
                continue
            specs.append(TransformationSpec(kind, SCOPE_GLOBAL))
    return specs


#: replacement (attribute, column) pairs for one source attribute
_Columns = list[tuple[Attribute, np.ndarray]]


def apply(spec: TransformationSpec, ds: Dataset) -> Dataset:
    """Apply one transformation, returning a fresh dataset.

    Each target is replaced by the columns that its kind's entry in
    ``_COLUMN_REWRITES`` returns for it.  PCA replaces its targets together:
    the components take the place of the first target.
    """
    compatible = _compatible(ds, spec.kind)
    if spec.scope == SCOPE_LOCAL:
        if spec.attribute not in compatible:
            raise TransformError(
                f"attribute {spec.attribute} is not a {_INPUT_KIND[spec.kind]} "
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
        columns[targets[0]] = _principal_components(ds, targets, spec)
    else:
        rewrite = _COLUMN_REWRITES[spec.kind]
        for j in targets:
            columns[j] = rewrite(ds, j, spec)
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


def _normalize(ds: Dataset, j: int, spec: TransformationSpec) -> _Columns:
    """Min-max scaling of the present cells to [0, 1]; a constant column becomes 0."""
    out = np.array(ds.column(j))
    present = ~np.isnan(out)
    vals = out[present]
    if vals.size:
        lo, hi = vals.min(), vals.max()
        out[present] = 0.0 if hi == lo else (vals - lo) / (hi - lo)
    return [(ds.attributes[j], out)]


def _standardize(ds: Dataset, j: int, spec: TransformationSpec) -> _Columns:
    """Z-scores over the sample standard deviation; a constant column becomes 0."""
    out = np.array(ds.column(j))
    present = ~np.isnan(out)
    vals = out[present]
    if vals.size:
        std = float(np.std(vals, ddof=1)) if vals.size > 1 else 0.0
        out[present] = 0.0 if std == 0.0 else (vals - vals.mean()) / std
    return [(ds.attributes[j], out)]


def _discretize_equal_width(ds: Dataset, j: int, spec: TransformationSpec) -> _Columns:
    bins = int(spec.param("bins"))
    col = ds.column(j)
    vals = col[~np.isnan(col)]
    idx = np.zeros(vals.size)
    if vals.size:
        lo, hi = vals.min(), vals.max()
        width = (hi - lo) / bins
        if width != 0.0:
            idx = np.clip(np.floor((vals - lo) / width), 0, bins - 1)
    return _binned(ds, j, idx, bins)


def _discretize_mdl(ds: Dataset, j: int, spec: TransformationSpec) -> _Columns:
    col = ds.column(j)
    present = ~np.isnan(col)
    cuts = np.asarray(_mdl_cuts(col[present], ds.class_labels[present]))
    return _binned(ds, j, np.searchsorted(cuts, col[present], side="left"), cuts.size + 1)


def _binned(ds: Dataset, j: int, bin_of_present: np.ndarray, n_bins: int) -> _Columns:
    """Attribute ``j`` as categories ``bin0..`` holding each present cell's bin index."""
    out = np.array(ds.column(j))
    out[~np.isnan(out)] = bin_of_present
    attr = Attribute(ds.attributes[j].name, CATEGORICAL, tuple(f"bin{i}" for i in range(n_bins)))
    return [(attr, out)]


def _mdl_cuts(values: np.ndarray, labels: np.ndarray) -> list[float]:
    """Recursive entropy-minimizing cut points accepted by the MDL criterion.

    Candidates are the boundaries between runs of equal sorted values whose
    two runs hold different sets of classes.  Scanning them in ascending
    value order with a running best gain that starts at 0, a candidate
    becomes the best when its information gain exceeds the running best by
    more than 1e-12; the segment's cut is the last one to do so.  Exact gain
    ties, and gains within 1e-12 of the best so far, thus go to the lower
    cut.  Each cut sits at the midpoint of the two values it separates.
    """
    if values.size == 0:
        return []
    order = np.argsort(values, kind="stable")
    v = values[order]
    y = labels[order]
    n_classes = int(labels.max()) + 1 if labels.size else 1
    onehot = np.zeros((v.size, n_classes))
    onehot[np.arange(v.size), y] = 1.0
    prefix = np.vstack([np.zeros(n_classes), np.cumsum(onehot, axis=0)])

    cuts: list[float] = []
    stack = [(0, v.size)]
    while stack:
        lo, hi = stack.pop()
        best = _best_cut(v, prefix, lo, hi)
        if best is None:
            continue
        pos, gain = best
        if not _mdl_accepts(prefix, lo, pos, hi, gain):
            continue
        cuts.append(float((v[pos - 1] + v[pos]) / 2.0))
        stack.append((pos, hi))
        stack.append((lo, pos))
    return sorted(cuts)


def _best_cut(v, prefix, lo, hi):
    """(position, gain) of the segment's cut, or None; see :func:`_mdl_cuts`."""
    n = hi - lo
    if n < 2:
        return None
    total = prefix[hi] - prefix[lo]
    h_all = entropy(total)
    if h_all == 0.0:
        return None
    bounds = lo + 1 + np.flatnonzero(v[lo + 1 : hi] != v[lo : hi - 1])
    edges = np.concatenate(([lo], bounds, [hi]))
    in_run = (prefix[edges[1:]] - prefix[edges[:-1]]) > 0  # classes of each run
    pos = bounds[(in_run[:-1] != in_run[1:]).any(axis=1)]
    if pos.size == 0:
        return None
    left = prefix[pos] - prefix[lo]
    right = prefix[hi] - prefix[pos]
    gains = (
        h_all
        - (left.sum(axis=1) / n) * entropies(left)
        - (right.sum(axis=1) / n) * entropies(right)
    )
    best = select(gains)
    if best is None:
        return None
    return int(pos[best]), gains[best]


def _mdl_accepts(prefix, lo, pos, hi, gain) -> bool:
    n = hi - lo
    total = prefix[hi] - prefix[lo]
    left = prefix[pos] - prefix[lo]
    right = prefix[hi] - prefix[pos]
    k = int((total > 0).sum())
    k1 = int((left > 0).sum())
    k2 = int((right > 0).sum())
    ent = entropy(total)
    ent1 = entropy(left)
    ent2 = entropy(right)
    delta = math.log2(3**k - 2) - (k * ent - k1 * ent1 - k2 * ent2)
    threshold = (math.log2(n - 1) + delta) / n
    return gain > threshold


def _nominal_to_binary_plain(ds: Dataset, j: int, spec: TransformationSpec) -> _Columns:
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


def _nominal_to_binary_ordered(ds: Dataset, j: int, spec: TransformationSpec) -> _Columns:
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


def _impute_mean(ds: Dataset, j: int, spec: TransformationSpec) -> _Columns:
    col = np.array(ds.column(j))
    missing = np.isnan(col)
    if missing.any():
        vals = col[~missing]
        col[missing] = float(vals.mean()) if vals.size else 0.0
    return [(ds.attributes[j], col)]


def _impute_mode(ds: Dataset, j: int, spec: TransformationSpec) -> _Columns:
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


def _principal_components(ds: Dataset, targets, spec: TransformationSpec) -> _Columns:
    """Scores ``PC1..PCk`` of the continuous predictors ``targets``.

    Columns are mean-imputed, centered and scaled to unit sample variance
    (constant columns stay zero), then projected onto the smallest set of
    covariance eigenvectors covering the ``var`` share of the total variance.
    Eigenvector signs are fixed so the largest-magnitude loading is positive.
    """
    n = ds.n_rows
    # (rows x targets) in Fortran order: the per-column sums of mean, std and
    # cov below add in that layout's order, so the layout is part of the output
    x = np.array([_impute_mean(ds, j, spec)[0][1] for j in targets]).T
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
            n_comp = int(np.searchsorted(ratios, spec.param("var") - 1e-12) + 1)
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


#: how each kind but PCA rewrites one target attribute ``j``:
#: ``(ds, j, spec) -> [(Attribute, column), ...]`` replacing it in place
_COLUMN_REWRITES = {
    DISCRETIZE_SUPERVISED: _discretize_mdl,
    DISCRETIZE_UNSUPERVISED: _discretize_equal_width,
    NOMINAL_TO_BINARY_SUPERVISED: _nominal_to_binary_ordered,
    NOMINAL_TO_BINARY_UNSUPERVISED: _nominal_to_binary_plain,
    NORMALIZE: _normalize,
    STANDARDIZE: _standardize,
    IMPUTE_CONTINUOUS: _impute_mean,
    IMPUTE_CATEGORICAL: _impute_mode,
}
