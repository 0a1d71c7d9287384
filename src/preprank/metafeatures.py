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


def _continuous_stats(ds: Dataset, attr: int) -> tuple[float, ...]:
    """Mean, sample std, excess kurtosis and skewness of one continuous attribute.

    Raises ValueError naming the attribute when a moment leaves the float
    range, so that NaN in the vector only ever means NOT_APPLICABLE.
    """
    vals = ds.column(attr)
    vals = vals[~np.isnan(vals)]
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            stats = (
                float(vals.mean()) if vals.size else 0.0,
                float(np.std(vals, ddof=1)) if vals.size > 1 else 0.0,  # the sample std
                *_shape(vals),
            )
    except (OverflowError, ZeroDivisionError):  # a power of m2 overflowed or underflowed to 0
        stats = (math.inf,)
    if not all(map(math.isfinite, stats)):
        raise ValueError(
            f"attribute {ds.attributes[attr].name!r}: its statistics leave the float range"
        )
    return stats


def _categorical_stats(ds: Dataset, attr: int) -> tuple[float, float, int]:
    """Entropy and mutual information with the class (bits), and distinct values, of a column.

    All three come from one (category, class) count table of the present
    cells; a column with none gives zeros.  The information sums its terms
    in row-major order with libm's ``log2``.
    """
    col, n_classes = ds.column(attr), len(ds.class_attribute.categories)
    present = ~np.isnan(col)
    cells = col[present].astype(int) * n_classes + ds.class_labels[present]
    size = len(ds.attributes[attr].categories) * n_classes
    counts = np.bincount(cells, minlength=size).reshape(-1, n_classes)
    per_category = counts.sum(axis=1)
    if not per_category.any():
        return 0.0, 0.0, 0
    joint = counts / counts.sum()
    px, py = joint.sum(axis=1), joint.sum(axis=0)
    x, y = np.nonzero(counts)
    info = 0.0
    for p, p_x, p_y in zip(joint[x, y].tolist(), px[x].tolist(), py[y].tolist()):
        info += p * math.log2(p / (p_x * p_y))
    return entropy(per_category), max(0.0, info), int(np.count_nonzero(per_category))


def _column_stats(ds: Dataset, attr: int, columns: dict) -> tuple:
    """A predictor's :func:`_continuous_stats` or :func:`_categorical_stats`, each once.

    ``columns`` keys them by :func:`column_key`, so reuse is exact among
    datasets sharing the class column; out-of-range ones never enter.
    """
    key = column_key(ds, attr)
    if key not in columns:
        stats = _continuous_stats if ds.attributes[attr].is_continuous else _categorical_stats
        columns[key] = stats(ds, attr)
        COLUMN_STATS.increment()
    return columns[key]


def _summary(block: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Min, mean and max, and quartiles 1-3, of each row of a (rows x columns) block.

    Both results are (3, rows).  The block is made C-ordered so that each row's
    mean and quartiles come out exactly as those of that row alone would.
    """
    block = np.ascontiguousarray(block)
    spread = np.stack([block.min(axis=1), block.mean(axis=1), block.max(axis=1)])
    return spread, np.percentile(block, [25, 50, 75], axis=1)


def compute_meta_features(catalog) -> np.ndarray:
    """All 61 characteristics of each dataset of a catalog, a read-only (datasets x 61) array.

    A catalog is a dataset, then its operator versions (datasets sharing its
    class column), read once in order.  Each row, in FEATURE_IDS order, equals
    a one-dataset catalog's byte for byte: each distinct column's statistics
    (:func:`_column_stats`) are computed once, and each summary once per group
    of datasets with the same continuous or categorical column count.

    Degenerate inputs stay defined: constant or near-empty continuous
    attributes get std/skewness/kurtosis 0, an attribute with no observed
    cells contributes zeros, quartiles use linear interpolation between
    order statistics.  Equivalent number of attributes and noise-to-signal
    ratio are NOT_APPLICABLE when the mean mutual information is zero.
    """
    columns = {}  # per-column statistics, shared by the catalog's datasets
    groups = {}  # (kind, column count) -> (row numbers, per-column statistics)
    rows = []
    for ds in catalog:
        n, m = ds.rows.shape
        cont, cat = ds.continuous_predictors, ds.categorical_predictors
        for kind, attrs in (("continuous", cont), ("categorical", cat)):
            if attrs:
                numbers, stats = groups.setdefault((kind, len(attrs)), ([], []))
                numbers.append(len(rows))
                stats.append([_column_stats(ds, j, columns) for j in attrs])
        class_counts = np.bincount(ds.class_labels)
        class_counts = class_counts[class_counts > 0]
        binary = sum(len(ds.attributes[j].categories) == 2 for j in cat)
        missing = np.isnan(ds.rows)
        n_missing = missing.sum()
        rows_with_missing = int(missing.any(axis=1).sum())
        rows.append([
            len(cont), 100.0 * len(cont) / m, *[NOT_APPLICABLE] * 24,
            len(cat), binary, 100.0 * len(cat) / m, 100.0 * binary / m, *[NOT_APPLICABLE] * 18,
            n, m, m / n, n_missing, 100.0 * n_missing / (n * m), rows_with_missing,
            100.0 * rows_with_missing / n,
            class_counts.size, entropy(class_counts), class_counts.min(), class_counts.max(),
            100.0 * class_counts.min() / n, 100.0 * class_counts.max() / n,
        ])
    values = np.array(rows, dtype=float).reshape(-1, len(FEATURE_IDS))
    for (kind, count), (numbers, stats) in groups.items():
        stats = np.array(stats, dtype=float)  # (datasets, columns, statistics)
        block = stats.transpose(0, 2, 1).reshape(-1, count)  # a row per (dataset, statistic)
        # each (datasets, aggregate, statistic)
        spread, quartiles = (a.reshape(3, len(numbers), -1).swapaxes(0, 1) for a in _summary(block))
        if kind == "continuous":
            values[numbers, 2:14] = spread.reshape(-1, 12)
            values[numbers, 14:26] = quartiles.transpose(0, 2, 1).reshape(-1, 12)
            continue
        information = np.concatenate([spread, quartiles], axis=1)[:, :, :2]  # entropy, information
        values[numbers, 30:42] = information.transpose(0, 2, 1).reshape(-1, 12)
        known = spread[:, 1, 1] != 0.0  # the mean mutual information
        mean_entropy, mean_info = spread[known, 1, :2].T
        at = np.array(numbers)[known]
        values[at, 42] = values[at, 56] / mean_info  # equivalent number of attributes
        values[at, 43] = (mean_entropy - mean_info) / mean_info  # noise-to-signal ratio
        values[numbers, 44:47] = spread[:, :, 2]
        values[numbers, 47] = np.std(block[2::3], axis=1, ddof=1) if count > 1 else 0.0
    values.flags.writeable = False
    return values


def delta(before: np.ndarray, after: np.ndarray) -> np.ndarray:
    """Per-feature ``after - before``, read-only; NOT_APPLICABLE wherever either side is."""
    change = after - before
    change.flags.writeable = False
    return change
