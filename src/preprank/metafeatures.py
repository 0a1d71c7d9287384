"""Dataset characteristics and the deltas a transformation induces on them.

The vector has 61 entries: a continuous-statistics group, a categorical
information-theoretic group, generic size/missingness counts and a class
group.  It is one read-only float64 array in FEATURE_IDS order.  Group
entries are NOT_APPLICABLE (NaN) when the dataset has no attribute of the
group's type; counts and percentages are plain zeros instead.  All
statistics are computed over predictors only, while percentage denominators
count every attribute including the class.
"""

from __future__ import annotations

import math

import numpy as np

from .classifiers import CallCounter
from .dataset import Dataset, column_key
from .tree import entropy

NOT_APPLICABLE = math.nan

_CONT_STATS = ("Means", "Std", "Kurtosis", "Skewness")

#: incremented once per predictor column whose statistics are computed, not reused
COLUMN_STATS = CallCounter()


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


def _sample_std(values: np.ndarray) -> float:
    if values.size < 2:
        return 0.0
    return float(np.std(values, ddof=1))


def _shape(values: np.ndarray) -> tuple[float, float]:
    """Excess kurtosis and adjusted Fisher-Pearson skewness.

    Each is 0 whenever its estimator's denominator vanishes.
    """
    n = values.size
    if n < 2:
        return 0.0, 0.0
    dev = values - values.mean()
    m2 = float((dev**2).mean())
    if m2 == 0.0:
        return 0.0, 0.0
    kurtosis = float((dev**4).mean()) / m2**2 - 3.0
    if n < 3:
        return kurtosis, 0.0
    return kurtosis, float((dev**3).mean()) / m2**1.5 * math.sqrt(n * (n - 1)) / (n - 2)


def _present(col: np.ndarray) -> np.ndarray:
    return col[~np.isnan(col)]


def _continuous_stats(ds: Dataset, attr: int) -> tuple[float, ...]:
    """Mean, sample std, excess kurtosis and skewness of one continuous attribute.

    Raises ValueError naming the attribute when a moment leaves the float
    range, so that NaN in the vector only ever means NOT_APPLICABLE.
    """
    vals = _present(ds.column(attr))
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            stats = (float(vals.mean()) if vals.size else 0.0, _sample_std(vals), *_shape(vals))
    except (OverflowError, ZeroDivisionError):  # a power of m2 overflowed or underflowed to 0
        stats = (math.inf,)
    if not all(map(math.isfinite, stats)):
        raise ValueError(
            f"attribute {ds.attributes[attr].name!r}: its statistics leave the float range"
        )
    return stats


def _column_stats(ds: Dataset, attr: int, columns: dict) -> tuple:
    """A predictor's (mean, std, kurtosis, skewness) or (entropy, information, distinct count).

    ``columns`` keys them by :func:`column_key`, so reuse is exact among
    datasets sharing the class column; out-of-range ones never enter.
    """
    key = column_key(ds, attr)
    if key not in columns:
        if ds.attributes[attr].is_continuous:
            columns[key] = _continuous_stats(ds, attr)
        else:
            distinct = np.unique(_present(ds.column(attr))).size
            columns[key] = (attribute_entropy(ds, attr), mutual_information(ds, attr), distinct)
        COLUMN_STATS.increment()
    return columns[key]


def _summary(block: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Min, mean and max, and quartiles 1-3, of each row of a (stats x columns) block.

    Both results are (3, stats).  The block is made C-ordered so that each
    row's mean sums pairwise exactly as the mean of that row alone would.
    """
    block = np.ascontiguousarray(block)
    spread = np.stack([block.min(axis=1), block.mean(axis=1), block.max(axis=1)])
    return spread, np.percentile(block, [25, 50, 75], axis=1)


def compute_meta_features(ds: Dataset, columns: dict | None = None) -> np.ndarray:
    """All 61 characteristics of a dataset, a read-only array in FEATURE_IDS order.

    ``columns`` caches per-column statistics (:func:`_column_stats`) over
    the calls of one catalog: a dataset and its operator versions.

    Degenerate inputs stay defined: constant or near-empty continuous
    attributes get std/skewness/kurtosis 0, an attribute with no observed
    cells contributes zeros, quartiles use linear interpolation between
    order statistics.  Equivalent number of attributes and noise-to-signal
    ratio are NOT_APPLICABLE when the mean mutual information is zero.
    """
    n, m = ds.rows.shape
    cont = ds.continuous_predictors
    cat = ds.categorical_predictors
    values = np.full(len(FEATURE_IDS), NOT_APPLICABLE)
    columns = {} if columns is None else columns

    values[0:2] = len(cont), 100.0 * len(cont) / m
    if cont:
        spread, quartiles = _summary(np.array([_column_stats(ds, j, columns) for j in cont]).T)
        values[2:14] = spread.ravel()
        values[14:26] = quartiles.T.ravel()

    class_counts = np.bincount(ds.class_labels)
    class_counts = class_counts[class_counts > 0]
    class_entropy = entropy(class_counts)

    binary = sum(len(ds.attributes[j].categories) == 2 for j in cat)
    values[26:30] = len(cat), binary, 100.0 * len(cat) / m, 100.0 * binary / m
    if cat:
        block = np.array([_column_stats(ds, j, columns) for j in cat], dtype=float).T.copy()
        spread, quartiles = _summary(block)
        values[30:42] = np.vstack([spread[:, :2], quartiles[:, :2]]).T.ravel()
        mean_entropy, mean_info = spread[1, :2]
        if mean_info != 0.0:
            values[42] = class_entropy / mean_info  # equivalent number of attributes
            values[43] = (mean_entropy - mean_info) / mean_info  # noise-to-signal ratio
        values[44:47] = spread[:, 2]
        values[47] = _sample_std(block[2])

    missing = np.isnan(ds.rows)
    n_missing = missing.sum()
    rows_with_missing = int(missing.any(axis=1).sum())
    values[48:55] = (
        n,
        m,
        m / n,
        n_missing,
        100.0 * n_missing / (n * m),
        rows_with_missing,
        100.0 * rows_with_missing / n,
    )
    values[55:61] = (
        class_counts.size,
        class_entropy,
        class_counts.min(),
        class_counts.max(),
        100.0 * class_counts.min() / n,
        100.0 * class_counts.max() / n,
    )
    values.flags.writeable = False
    return values


def delta(before: np.ndarray, after: np.ndarray) -> np.ndarray:
    """Per-feature ``after - before``, read-only; NOT_APPLICABLE wherever either side is."""
    change = after - before
    change.flags.writeable = False
    return change
