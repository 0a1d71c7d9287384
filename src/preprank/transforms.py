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


def apply(spec: TransformationSpec, ds: Dataset) -> Dataset:
    """Apply one transformation, returning a fresh dataset."""
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

    if spec.kind == NORMALIZE:
        out = _scale(ds, targets, _minmax_column)
    elif spec.kind == STANDARDIZE:
        out = _scale(ds, targets, _zscore_column)
    elif spec.kind == DISCRETIZE_UNSUPERVISED:
        out = _discretize_equal_width(ds, targets, int(spec.param("bins")))
    elif spec.kind == DISCRETIZE_SUPERVISED:
        out = _discretize_mdl(ds, targets)
    elif spec.kind == NOMINAL_TO_BINARY_UNSUPERVISED:
        out = _nominal_to_binary_plain(ds, targets)
    elif spec.kind == NOMINAL_TO_BINARY_SUPERVISED:
        out = _nominal_to_binary_ordered(ds, targets)
    elif spec.kind == IMPUTE_CONTINUOUS:
        out = _impute_mean(ds, targets)
    elif spec.kind == IMPUTE_CATEGORICAL:
        out = _impute_mode(ds, targets)
    elif spec.kind == PRINCIPAL_COMPONENTS:
        out = _principal_components(ds, targets, spec.param("var"))
    else:  # pragma: no cover - kinds above are exhaustive
        raise TransformError(f"unhandled kind {spec.kind!r}")
    return out


def _rebuild(ds: Dataset, per_attr: list[list[tuple[Attribute, np.ndarray]]]) -> Dataset:
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


def _identity_plan(ds: Dataset) -> list[list[tuple[Attribute, np.ndarray]]]:
    return [[(a, np.array(ds.column(j)))] for j, a in enumerate(ds.attributes)]


def _minmax_column(col: np.ndarray) -> np.ndarray:
    out = np.array(col)
    present = ~np.isnan(out)
    vals = out[present]
    if vals.size == 0:
        return out
    lo, hi = vals.min(), vals.max()
    out[present] = 0.0 if hi == lo else (vals - lo) / (hi - lo)
    return out


def _zscore_column(col: np.ndarray) -> np.ndarray:
    out = np.array(col)
    present = ~np.isnan(out)
    vals = out[present]
    if vals.size == 0:
        return out
    std = float(np.std(vals, ddof=1)) if vals.size > 1 else 0.0
    out[present] = 0.0 if std == 0.0 else (vals - vals.mean()) / std
    return out


def _scale(ds: Dataset, targets, fn) -> Dataset:
    plan = _identity_plan(ds)
    for j in targets:
        plan[j] = [(ds.attributes[j], fn(ds.column(j)))]
    return _rebuild(ds, plan)


def _discretize_equal_width(ds: Dataset, targets, bins: int) -> Dataset:
    plan = _identity_plan(ds)
    for j in targets:
        col = ds.column(j)
        out = np.array(col)
        present = ~np.isnan(col)
        vals = col[present]
        if vals.size:
            lo, hi = vals.min(), vals.max()
            width = (hi - lo) / bins
            if width == 0.0:
                idx = np.zeros(vals.size)
            else:
                idx = np.clip(np.floor((vals - lo) / width), 0, bins - 1)
            out[present] = idx
        attr = Attribute(
            ds.attributes[j].name, CATEGORICAL, tuple(f"bin{i}" for i in range(bins))
        )
        plan[j] = [(attr, out)]
    return _rebuild(ds, plan)


def _discretize_mdl(ds: Dataset, targets) -> Dataset:
    plan = _identity_plan(ds)
    labels = ds.class_labels
    for j in targets:
        col = ds.column(j)
        present = ~np.isnan(col)
        cuts = _mdl_cuts(col[present], labels[present])
        out = np.array(col)
        if cuts:
            out[present] = np.searchsorted(np.asarray(cuts), col[present], side="left")
        else:
            out[present] = 0.0
        attr = Attribute(
            ds.attributes[j].name,
            CATEGORICAL,
            tuple(f"bin{i}" for i in range(len(cuts) + 1)),
        )
        plan[j] = [(attr, out)]
    return _rebuild(ds, plan)


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


def _nominal_to_binary_plain(ds: Dataset, targets) -> Dataset:
    """One 0/1 indicator per category; two-category attributes get a single one."""
    plan = _identity_plan(ds)
    for j in targets:
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
        plan[j] = replacements
    return _rebuild(ds, plan)


def _nominal_to_binary_ordered(ds: Dataset, targets) -> Dataset:
    """Cumulative indicator coding with categories ordered by mean class rank.

    Classes are ranked by their category index; each category gets the mean
    rank of its rows, categories are sorted by it, and k-1 indicators encode
    "comes after position j" in that order.  Single-category attributes
    collapse to one all-zero indicator.
    """
    plan = _identity_plan(ds)
    labels = ds.class_labels
    for j in targets:
        col = ds.column(j)
        cats = ds.attributes[j].categories
        name = ds.attributes[j].name
        present = ~np.isnan(col)
        scores = []
        for idx in range(len(cats)):
            mask = present & (col == idx)
            mean_rank = float(labels[mask].mean()) if mask.any() else math.inf
            scores.append((mean_rank, idx))
        order = [idx for _, idx in sorted(scores)]
        position = {idx: p for p, idx in enumerate(order)}
        pos_col = np.where(np.isnan(col), np.nan, col)
        for idx, p in position.items():
            pos_col = np.where(col == idx, float(p), pos_col)
        replacements = []
        if len(cats) == 1:
            out = np.where(np.isnan(col), np.nan, 0.0)
            replacements.append((Attribute(f"{name}>none", CONTINUOUS), out))
        else:
            for p in range(len(cats) - 1):
                out = np.where(np.isnan(pos_col), np.nan, (pos_col > p).astype(float))
                replacements.append(
                    (Attribute(f"{name}>{cats[order[p]]}", CONTINUOUS), out)
                )
        plan[j] = replacements
    return _rebuild(ds, plan)


def _impute_mean(ds: Dataset, targets) -> Dataset:
    plan = _identity_plan(ds)
    for j in targets:
        col = np.array(ds.column(j))
        missing = np.isnan(col)
        if missing.any():
            vals = col[~missing]
            col[missing] = float(vals.mean()) if vals.size else 0.0
        plan[j] = [(ds.attributes[j], col)]
    return _rebuild(ds, plan)


def _impute_mode(ds: Dataset, targets) -> Dataset:
    plan = _identity_plan(ds)
    for j in targets:
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
        plan[j] = [(ds.attributes[j], col)]
    return _rebuild(ds, plan)


def _principal_components(ds: Dataset, targets, coverage: float) -> Dataset:
    """Replace continuous predictors with scores on the leading components.

    Columns are mean-imputed, centered and scaled to unit sample variance
    (constant columns stay zero), then projected onto the smallest set of
    covariance eigenvectors covering ``coverage`` of the total variance.
    Eigenvector signs are fixed so the largest-magnitude loading is positive.
    """
    n = ds.n_rows
    x = np.array(ds.rows[:, list(targets)])
    for c in range(x.shape[1]):
        col = x[:, c]
        miss = np.isnan(col)
        if miss.any():
            vals = col[~miss]
            col[miss] = float(vals.mean()) if vals.size else 0.0
    means = x.mean(axis=0)
    stds = x.std(axis=0, ddof=1) if n > 1 else np.zeros(x.shape[1])
    x = x - means
    nonzero = stds > 0
    x[:, nonzero] /= stds[nonzero]
    x[:, ~nonzero] = 0.0

    if n < 2:
        scores = np.zeros((n, 1))
        n_comp = 1
    else:
        cov = np.cov(x, rowvar=False, ddof=1).reshape(len(targets), len(targets))
        evals, evecs = np.linalg.eigh(cov)
        evals = np.clip(evals[::-1], 0.0, None)
        evecs = evecs[:, ::-1]
        total = evals.sum()
        if total == 0.0:
            scores = np.zeros((n, 1))
            n_comp = 1
        else:
            ratios = np.cumsum(evals) / total
            n_comp = int(np.searchsorted(ratios, coverage - 1e-12) + 1)
            n_comp = min(n_comp, len(targets))
            basis = evecs[:, :n_comp].copy()
            for c in range(n_comp):
                lead = np.argmax(np.abs(basis[:, c]))
                if basis[lead, c] < 0:
                    basis[:, c] = -basis[:, c]
            scores = x @ basis

    plan = _identity_plan(ds)
    first = targets[0]
    for j in targets:
        plan[j] = []
    plan[first] = [
        (Attribute(f"PC{i + 1}", CONTINUOUS), scores[:, i]) for i in range(scores.shape[1])
    ]
    return _rebuild(ds, plan)
