"""Dataset characteristics and the deltas a transformation induces on them.

The vector has 61 entries: a continuous-statistics group, a categorical
information-theoretic group, generic size/missingness counts and a class
group.  Group entries are NOT_APPLICABLE (``None``) when the dataset has no
attribute of the group's type; counts and percentages are plain zeros
instead.  All statistics are computed over predictors only, while percentage
denominators count every attribute including the class.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dataset import Dataset
from .tree import entropy

NOT_APPLICABLE = None

_CONT_STATS = ("Means", "Std", "Kurtosis", "Skewness")


def _build_feature_ids() -> tuple[str, ...]:
    ids = [
        "NumberOfContinuousAttributes",
        "PercentageOfContinuousAttributes",
    ]
    for agg in ("Min", "Mean", "Max"):
        for stat in _CONT_STATS:
            ids.append(f"{agg}{stat}OfContinuousAttributes")
    for stat in _CONT_STATS:
        for q in (1, 2, 3):
            ids.append(f"Quartile{q}{stat}OfContinuousAttributes")
    ids += [
        "NumberOfCategoricalAttributes",
        "NumberOfBinaryAttributes",
        "PercentageOfCategoricalAttributes",
        "PercentageOfBinaryAttributes",
    ]
    for agg in ("Min", "Mean", "Max"):
        ids.append(f"{agg}AttributeEntropy")
    for q in (1, 2, 3):
        ids.append(f"Quartile{q}AttributeEntropy")
    for agg in ("Min", "Mean", "Max"):
        ids.append(f"{agg}MutualInformation")
    for q in (1, 2, 3):
        ids.append(f"Quartile{q}MutualInformation")
    ids += [
        "EquivalentNumberOfAttributes",
        "NoiseToSignalRatio",
    ]
    for agg in ("Min", "Mean", "Max", "Std"):
        ids.append(f"{agg}AttributeDistinctValues")
    ids += [
        "NumberOfInstances",
        "NumberOfAttributes",
        "Dimensionality",
        "NumberOfMissingValues",
        "PercentageOfMissingValues",
        "NumberOfInstancesWithMissingValues",
        "PercentageOfInstancesWithMissingValues",
        "NumberOfClasses",
        "ClassEntropy",
        "MinorityClassSize",
        "MajorityClassSize",
        "MinorityClassPercentage",
        "MajorityClassPercentage",
    ]
    return tuple(ids)


FEATURE_IDS: tuple[str, ...] = _build_feature_ids()
assert len(FEATURE_IDS) == 61

#: features a transformation can change; the class group stays constant
MODIFIABLE_IDS: tuple[str, ...] = FEATURE_IDS[:55]

_CONTINUOUS_GROUP = frozenset(FEATURE_IDS[2:26])
_CATEGORICAL_GROUP = frozenset(FEATURE_IDS[30:48])


@dataclass(frozen=True)
class MetaFeatureVector:
    """All 61 characteristics of one dataset; ``None`` marks NOT_APPLICABLE."""

    values: dict[str, float | None]

    def __post_init__(self):
        if tuple(self.values) != FEATURE_IDS:
            raise ValueError("meta-feature vector must hold exactly the 61 known ids in order")

    def __getitem__(self, feature_id: str) -> float | None:
        return self.values[feature_id]

    def modifiable(self) -> dict[str, float | None]:
        """The 55 transformation-sensitive entries, in table order."""
        return {fid: self.values[fid] for fid in MODIFIABLE_IDS}


@dataclass(frozen=True)
class DeltaVector:
    """Per-feature change (after minus before); ``None`` where either side is."""

    deltas: dict[str, float | None]

    def __post_init__(self):
        if tuple(self.deltas) != FEATURE_IDS:
            raise ValueError("delta vector must hold exactly the 61 known ids in order")

    def __getitem__(self, feature_id: str) -> float | None:
        return self.deltas[feature_id]

    def modifiable(self) -> dict[str, float | None]:
        return {fid: self.deltas[fid] for fid in MODIFIABLE_IDS}


def attribute_entropy(ds: Dataset, attr: int) -> float:
    """Shannon entropy (bits) of a categorical attribute over non-missing cells."""
    a = ds.attributes[attr]
    if not a.is_categorical:
        raise ValueError(f"attribute {a.name!r} is continuous")
    col = ds.column(attr)
    present = col[~np.isnan(col)].astype(int)
    if present.size == 0:
        return 0.0
    return entropy(np.bincount(present, minlength=len(a.categories)))


def mutual_information(ds: Dataset, attr: int) -> float:
    """I(attribute; class) in bits, rows with a missing attribute cell excluded."""
    a = ds.attributes[attr]
    if not a.is_categorical:
        raise ValueError(f"attribute {a.name!r} is continuous")
    col = ds.column(attr)
    mask = ~np.isnan(col)
    if not mask.any():
        return 0.0
    x = col[mask].astype(int)
    y = ds.class_labels[mask]
    n_x = len(a.categories)
    n_y = len(ds.class_attribute.categories)
    joint = np.zeros((n_x, n_y))
    np.add.at(joint, (x, y), 1.0)
    joint /= joint.sum()
    px = joint.sum(axis=1)
    py = joint.sum(axis=0)
    info = 0.0
    for i in range(n_x):
        for j in range(n_y):
            if joint[i, j] > 0:
                info += joint[i, j] * math.log2(joint[i, j] / (px[i] * py[j]))
    return max(0.0, info)


def derived_information_features(ds: Dataset):
    """Equivalent number of attributes and noise-to-signal ratio.

    Both are NOT_APPLICABLE when the mean mutual information is zero.
    """
    cat = ds.categorical_predictors
    if not cat:
        raise ValueError("dataset has no categorical predictors")
    mean_mi = float(np.mean([mutual_information(ds, j) for j in cat]))
    if mean_mi == 0.0:
        return NOT_APPLICABLE, NOT_APPLICABLE
    mean_entropy = float(np.mean([attribute_entropy(ds, j) for j in cat]))
    class_entropy = entropy(np.bincount(ds.class_labels))
    ena = class_entropy / mean_mi
    nsr = (mean_entropy - mean_mi) / mean_mi
    return ena, nsr


def _sample_std(values: np.ndarray) -> float:
    if values.size < 2:
        return 0.0
    return float(np.std(values, ddof=1))


def _skewness(values: np.ndarray) -> float:
    # adjusted Fisher-Pearson; 0 whenever the estimator's denominator vanishes
    n = values.size
    if n < 3:
        return 0.0
    m = values.mean()
    m2 = float(((values - m) ** 2).mean())
    if m2 == 0.0:
        return 0.0
    m3 = float(((values - m) ** 3).mean())
    g1 = m3 / m2**1.5
    return float(g1 * math.sqrt(n * (n - 1)) / (n - 2))


def _excess_kurtosis(values: np.ndarray) -> float:
    n = values.size
    if n < 2:
        return 0.0
    m = values.mean()
    m2 = float(((values - m) ** 2).mean())
    if m2 == 0.0:
        return 0.0
    m4 = float(((values - m) ** 4).mean())
    return float(m4 / m2**2 - 3.0)


def _present(col: np.ndarray) -> np.ndarray:
    return col[~np.isnan(col)]


def _spread(values: list[float], prefix: str, suffix: str, out: dict) -> None:
    arr = np.asarray(values, dtype=float)
    out[f"Min{prefix}{suffix}"] = float(arr.min())
    out[f"Mean{prefix}{suffix}"] = float(arr.mean())
    out[f"Max{prefix}{suffix}"] = float(arr.max())


def _quartiles(values: list[float], prefix: str, suffix: str, out: dict) -> None:
    q1, q2, q3 = np.percentile(np.asarray(values, dtype=float), [25, 50, 75])
    out[f"Quartile1{prefix}{suffix}"] = float(q1)
    out[f"Quartile2{prefix}{suffix}"] = float(q2)
    out[f"Quartile3{prefix}{suffix}"] = float(q3)


def compute_meta_features(ds: Dataset) -> MetaFeatureVector:
    """Compute all 61 characteristics of a dataset.

    Degenerate inputs stay defined: constant or near-empty continuous
    attributes get std/skewness/kurtosis 0, an attribute with no observed
    cells contributes zeros, quartiles use linear interpolation between
    order statistics.
    """
    n, m = ds.rows.shape
    cont = ds.continuous_predictors
    cat = ds.categorical_predictors
    values: dict[str, float | None] = {}

    values["NumberOfContinuousAttributes"] = float(len(cont))
    values["PercentageOfContinuousAttributes"] = 100.0 * len(cont) / m
    if cont:
        stats = {"Means": [], "Std": [], "Kurtosis": [], "Skewness": []}
        for j in cont:
            vals = _present(ds.column(j))
            stats["Means"].append(float(vals.mean()) if vals.size else 0.0)
            stats["Std"].append(_sample_std(vals))
            stats["Kurtosis"].append(_excess_kurtosis(vals))
            stats["Skewness"].append(_skewness(vals))
        for stat in _CONT_STATS:
            _spread(stats[stat], stat, "OfContinuousAttributes", values)
        for stat in _CONT_STATS:
            _quartiles(stats[stat], stat, "OfContinuousAttributes", values)
    else:
        for fid in FEATURE_IDS[2:26]:
            values[fid] = NOT_APPLICABLE

    binary = [j for j in cat if len(ds.attributes[j].categories) == 2]
    values["NumberOfCategoricalAttributes"] = float(len(cat))
    values["NumberOfBinaryAttributes"] = float(len(binary))
    values["PercentageOfCategoricalAttributes"] = 100.0 * len(cat) / m
    values["PercentageOfBinaryAttributes"] = 100.0 * len(binary) / m
    if cat:
        entropies = [attribute_entropy(ds, j) for j in cat]
        infos = [mutual_information(ds, j) for j in cat]
        distinct = [
            float(np.unique(_present(ds.column(j))).size) for j in cat
        ]
        _spread(entropies, "", "AttributeEntropy", values)
        _quartiles(entropies, "", "AttributeEntropy", values)
        _spread(infos, "", "MutualInformation", values)
        _quartiles(infos, "", "MutualInformation", values)
        ena, nsr = derived_information_features(ds)
        values["EquivalentNumberOfAttributes"] = ena
        values["NoiseToSignalRatio"] = nsr
        _spread(distinct, "", "AttributeDistinctValues", values)
        values["StdAttributeDistinctValues"] = _sample_std(np.asarray(distinct))
    else:
        for fid in FEATURE_IDS[30:48]:
            values[fid] = NOT_APPLICABLE

    values["NumberOfInstances"] = float(n)
    values["NumberOfAttributes"] = float(m)
    values["Dimensionality"] = m / n
    missing_mask = np.isnan(ds.rows)
    values["NumberOfMissingValues"] = float(missing_mask.sum())
    values["PercentageOfMissingValues"] = 100.0 * missing_mask.sum() / (n * m)
    rows_with_missing = int(missing_mask.any(axis=1).sum())
    values["NumberOfInstancesWithMissingValues"] = float(rows_with_missing)
    values["PercentageOfInstancesWithMissingValues"] = 100.0 * rows_with_missing / n

    class_counts = np.bincount(ds.class_labels)
    class_counts = class_counts[class_counts > 0]
    values["NumberOfClasses"] = float(class_counts.size)
    values["ClassEntropy"] = entropy(class_counts)
    values["MinorityClassSize"] = float(class_counts.min())
    values["MajorityClassSize"] = float(class_counts.max())
    values["MinorityClassPercentage"] = 100.0 * class_counts.min() / n
    values["MajorityClassPercentage"] = 100.0 * class_counts.max() / n

    ordered = {fid: values[fid] for fid in FEATURE_IDS}
    return MetaFeatureVector(ordered)


def delta(before: MetaFeatureVector, after: MetaFeatureVector) -> DeltaVector:
    """Per-feature ``after - before``; NOT_APPLICABLE wherever either side is."""
    if tuple(before.values) != tuple(after.values):
        raise ValueError("meta-feature vectors have different key sets")
    out: dict[str, float | None] = {}
    for fid in FEATURE_IDS:
        b, a = before.values[fid], after.values[fid]
        out[fid] = a - b if (a is not None and b is not None) else NOT_APPLICABLE
    return DeltaVector(out)
