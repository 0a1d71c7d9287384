import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from conftest import categorical_columns, distinct_columns, feature
from hypothesis import given, settings, strategies as st

from preprank.classifiers import TREE
from preprank.cli import main
from preprank.dataset import Attribute, Dataset, serialize_arff
from preprank.metadb import build_metadb
from preprank.metafeatures import (
    COLUMN_STATS,
    FEATURE_IDS,
    MODIFIABLE_IDS,
    _categorical_stats,
    compute_meta_features,
    delta,
)
from preprank.synthetic import mini_corpus, random_dataset
from preprank.transforms import TransformationSpec, apply, enumerate_applicable
from preprank.tree import entropy


def cat(name, n, values):
    return Attribute(name, "categorical", tuple(f"{name}{i}" for i in range(n))), values


def build(columns, class_values, n_classes=2):
    attrs = []
    cols = []
    for attr, values in columns:
        attrs.append(attr)
        cols.append(np.asarray(values, dtype=float))
    attrs.append(Attribute("class", "categorical", tuple(f"c{i}" for i in range(n_classes))))
    cols.append(np.asarray(class_values, dtype=float))
    return Dataset("t", tuple(attrs), len(attrs) - 1, np.column_stack(cols))


def test_feature_table_layout():
    assert len(FEATURE_IDS) == 61
    assert len(MODIFIABLE_IDS) == 55
    assert "ClassEntropy" not in MODIFIABLE_IDS
    assert FEATURE_IDS[55:] == (
        "NumberOfClasses",
        "ClassEntropy",
        "MinorityClassSize",
        "MajorityClassSize",
        "MinorityClassPercentage",
        "MajorityClassPercentage",
    )


def test_counting_features():
    ds = build(
        [
            (Attribute("a", "continuous"), [1, 2, 3, 4]),
            (Attribute("b", "continuous"), [0, 1, 0, 1]),
            cat("c", 3, [0, 1, 2, 0]),
        ],
        [0, 1, 0, 1],
    )
    mf = compute_meta_features(ds)
    assert feature(mf, "NumberOfAttributes") == 4.0  # class included
    assert feature(mf, "NumberOfInstances") == 4.0
    assert feature(mf, "Dimensionality") == 1.0
    assert feature(mf, "NumberOfContinuousAttributes") == 2.0
    assert feature(mf, "PercentageOfContinuousAttributes") == 50.0
    assert feature(mf, "NumberOfCategoricalAttributes") == 1.0
    assert feature(mf, "NumberOfBinaryAttributes") == 0.0


def test_class_entropy_balanced_split():
    ds = build([(Attribute("a", "continuous"), [1, 2, 3, 4])], [0, 0, 1, 1])
    mf = compute_meta_features(ds)
    assert feature(mf, "ClassEntropy") == 1.0
    assert feature(mf, "MajorityClassPercentage") == 50.0
    assert feature(mf, "MinorityClassSize") == 2.0


def entropy_of(ds, attr):
    return _categorical_stats(ds, attr)[0]


def information_of(ds, attr):
    return _categorical_stats(ds, attr)[1]


def test_attribute_entropy_hand_values():
    ds = build([cat("a", 4, [0, 1, 2, 3])], [0, 1, 0, 1])
    assert _categorical_stats(ds, 0) == (2.0, 1.0, 4)
    ds = build([cat("a", 2, [0, 0, 0, 0])], [0, 1, 0, 1])
    assert _categorical_stats(ds, 0) == (0.0, 0.0, 1)
    # counts {3,1}: -(0.75*log2(0.75) + 0.25*log2(0.25))
    ds = build([cat("a", 2, [0, 0, 0, 1])], [0, 1, 0, 1])
    assert entropy_of(ds, 0) == pytest.approx(0.8112781244591328, abs=1e-12)


def test_entropy_ignores_missing_cells():
    ds = build([cat("a", 2, [0, np.nan, 1, np.nan])], [0, 1, 0, 1])
    assert entropy_of(ds, 0) == 1.0


def _mi_oracle(pairs):
    """Brute-force mutual information from a list of (x, y) pairs."""
    n = len(pairs)
    from collections import Counter

    joint = Counter(pairs)
    px = Counter(x for x, _ in pairs)
    py = Counter(y for _, y in pairs)
    total = 0.0
    for (x, y), c in joint.items():
        p = c / n
        total += p * math.log2(p / ((px[x] / n) * (py[y] / n)))
    return total


def test_mutual_information_independent_and_identical():
    # product distribution on a 4-row grid: independent
    ds = build([cat("a", 2, [0, 0, 1, 1])], [0, 1, 0, 1])
    assert information_of(ds, 0) == 0.0
    # identical to the class
    ds = build([cat("a", 2, [0, 1, 0, 1])], [0, 1, 0, 1])
    mf = compute_meta_features(ds)
    assert information_of(ds, 0) == feature(mf, "ClassEntropy")
    assert feature(mf, "NoiseToSignalRatio") == 0.0
    assert feature(mf, "EquivalentNumberOfAttributes") == 1.0


def test_mutual_information_brute_force_oracle():
    x = [0, 0, 1, 1, 2, 2]
    y = [0, 1, 0, 0, 1, 1]
    ds = build([cat("a", 3, x)], y)
    assert information_of(ds, 0) == pytest.approx(_mi_oracle(list(zip(x, y))), abs=1e-12)


def test_mutual_information_pairwise_deletion():
    x = [0, np.nan, 1, 1, np.nan, 2]
    y = [0, 1, 0, 0, 1, 1]
    ds = build([cat("a", 3, x)], y)
    kept = [(int(a), b) for a, b in zip(x, y) if not math.isnan(a)]
    assert information_of(ds, 0) == pytest.approx(_mi_oracle(kept), abs=1e-12)


def test_derived_information_features_guard():
    # two categories split independently of a 2x2 class grid: zero mean MI
    ds = build([cat("a", 2, [0, 0, 1, 1])], [0, 1, 0, 1])
    mf = compute_meta_features(ds)
    assert math.isnan(feature(mf, "EquivalentNumberOfAttributes"))
    assert math.isnan(feature(mf, "NoiseToSignalRatio"))


def test_derived_information_compositional_oracle():
    ds = random_dataset(31, n_rows=40, n_continuous=0, n_categorical=2)
    cat_idx = ds.categorical_predictors
    mean_mi = np.mean([_oracle_mutual_information(ds, j) for j in cat_idx])
    mean_h = np.mean([_oracle_attribute_entropy(ds, j) for j in cat_idx])
    labels = ds.class_labels
    counts = np.bincount(labels)[np.bincount(labels) > 0]
    p = counts / counts.sum()
    class_entropy = -(p * np.log2(p)).sum()
    mf = compute_meta_features(ds)
    ena, nsr = feature(mf, "EquivalentNumberOfAttributes"), feature(mf, "NoiseToSignalRatio")
    assert ena == pytest.approx(class_entropy / mean_mi, rel=1e-12)
    assert nsr == pytest.approx((mean_h - mean_mi) / mean_mi, rel=1e-12)


def test_not_applicable_groups():
    only_cont = random_dataset(3, n_continuous=2, n_categorical=0)
    mf = compute_meta_features(only_cont)
    assert math.isnan(feature(mf, "MeanAttributeEntropy"))
    assert math.isnan(feature(mf, "Quartile2MutualInformation"))
    assert math.isnan(feature(mf, "StdAttributeDistinctValues"))
    assert feature(mf, "NumberOfCategoricalAttributes") == 0.0
    assert feature(mf, "PercentageOfBinaryAttributes") == 0.0

    only_cat = random_dataset(4, n_continuous=0, n_categorical=2)
    mf = compute_meta_features(only_cat)
    assert math.isnan(feature(mf, "MinMeansOfContinuousAttributes"))
    assert math.isnan(feature(mf, "Quartile3SkewnessOfContinuousAttributes"))
    assert feature(mf, "NumberOfContinuousAttributes") == 0.0
    # every entry outside the continuous group is numeric
    for fid in FEATURE_IDS[26:]:
        if fid in ("EquivalentNumberOfAttributes", "NoiseToSignalRatio"):
            continue
        assert not math.isnan(feature(mf, fid)), fid


def test_constant_attribute_degenerate_stats():
    ds = build([(Attribute("a", "continuous"), [2.0, 2.0, 2.0, 2.0])], [0, 1, 0, 1])
    mf = compute_meta_features(ds)
    assert feature(mf, "MeanStdOfContinuousAttributes") == 0.0
    assert feature(mf, "MeanSkewnessOfContinuousAttributes") == 0.0
    assert feature(mf, "MeanKurtosisOfContinuousAttributes") == 0.0


def test_missing_value_counters():
    ds = build(
        [
            (Attribute("a", "continuous"), [1.0, np.nan, 3.0, 4.0]),
            cat("b", 2, [0, 1, np.nan, np.nan]),
        ],
        [0, 1, 0, 1],
    )
    mf = compute_meta_features(ds)
    assert feature(mf, "NumberOfMissingValues") == 3.0
    assert feature(mf, "PercentageOfMissingValues") == pytest.approx(100.0 * 3 / 12)
    assert feature(mf, "NumberOfInstancesWithMissingValues") == 3.0
    assert feature(mf, "PercentageOfInstancesWithMissingValues") == 75.0


def test_quartile_and_spread_orderings():
    ds = random_dataset(8, n_rows=50, n_continuous=5, n_categorical=3, missing_rate=0.05)
    mf = compute_meta_features(ds)
    for stat in ("Means", "Std", "Kurtosis", "Skewness"):
        lo = feature(mf, f"Min{stat}OfContinuousAttributes")
        hi = feature(mf, f"Max{stat}OfContinuousAttributes")
        assert lo <= feature(mf, f"Mean{stat}OfContinuousAttributes") <= hi
        q1 = feature(mf, f"Quartile1{stat}OfContinuousAttributes")
        q2 = feature(mf, f"Quartile2{stat}OfContinuousAttributes")
        q3 = feature(mf, f"Quartile3{stat}OfContinuousAttributes")
        assert lo <= q1 <= q2 <= q3 <= hi
    assert feature(mf, "MinMutualInformation") <= feature(mf, "MeanMutualInformation")
    assert feature(mf, "MeanMutualInformation") <= feature(mf, "MaxMutualInformation")


def test_mi_bounded_by_entropies():
    for seed in range(20):
        ds = random_dataset(seed, n_rows=30, n_continuous=0, n_categorical=2)
        class_entropy = feature(compute_meta_features(ds), "ClassEntropy")
        for j in ds.categorical_predictors:
            mi = information_of(ds, j)
            assert -1e-12 <= mi <= min(entropy_of(ds, j), class_entropy) + 1e-9


def assert_vectors_match(a, b):
    """Equal up to summation-order float noise; counts must match exactly."""
    for fid in FEATURE_IDS:
        va, vb = feature(a, fid), feature(b, fid)
        if math.isnan(va) or math.isnan(vb):
            assert math.isnan(va) and math.isnan(vb), fid
        elif fid.startswith(("Number", "Percentage")):
            assert va == vb, fid
        else:
            assert va == pytest.approx(vb, rel=1e-12, abs=1e-12), fid


def test_row_permutation_invariance():
    ds = random_dataset(21, n_rows=40, n_continuous=3, n_categorical=2, missing_rate=0.1)
    rng = np.random.default_rng(0)
    shuffled = replace(ds, rows=ds.rows[rng.permutation(ds.n_rows)])
    assert_vectors_match(compute_meta_features(ds), compute_meta_features(shuffled))


def test_predictor_permutation_invariance():
    ds = random_dataset(22, n_rows=40, n_continuous=3, n_categorical=2)
    perm = [1, 2, 0, 4, 3, 5]  # keep class last
    attrs = tuple(ds.attributes[j] for j in perm)
    rows = ds.rows[:, perm]
    swapped = Dataset(ds.name, attrs, 5, rows)
    assert_vectors_match(compute_meta_features(ds), compute_meta_features(swapped))


def test_delta_discretization_example():
    ds = random_dataset(55, n_rows=40, n_continuous=5, n_categorical=0)
    before = compute_meta_features(ds)
    assert feature(before, "NumberOfContinuousAttributes") == 5.0
    out = apply(TransformationSpec("discretize_unsup", "local", 0), ds)
    after = compute_meta_features(out)
    assert feature(after, "NumberOfContinuousAttributes") == 4.0
    assert feature(delta(before, after), "NumberOfContinuousAttributes") == -1.0


def test_delta_identity_is_zero():
    ds = random_dataset(13, n_rows=25, n_continuous=2, n_categorical=2, missing_rate=0.1)
    mf = compute_meta_features(ds)
    d = delta(mf, mf)
    for fid in FEATURE_IDS:
        if math.isnan(feature(mf, fid)):
            assert math.isnan(feature(d, fid))
        else:
            assert feature(d, fid) == 0.0


def test_delta_not_applicable_propagates():
    no_cont = compute_meta_features(random_dataset(3, n_continuous=0, n_categorical=2))
    with_cont = compute_meta_features(random_dataset(3, n_continuous=2, n_categorical=2))
    d = delta(no_cont, with_cont)
    assert math.isnan(feature(d, "MeanKurtosisOfContinuousAttributes"))
    assert feature(d, "NumberOfContinuousAttributes") == 2.0


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 500))
def test_percentages_and_counts_in_range(seed):
    rng = np.random.default_rng(seed)
    ds = random_dataset(
        seed,
        n_rows=int(rng.integers(6, 40)),
        n_continuous=int(rng.integers(0, 4)),
        n_categorical=int(rng.integers(1, 4)),
        missing_rate=float(rng.choice([0.0, 0.15])),
    )
    mf = compute_meta_features(ds)
    for fid in FEATURE_IDS:
        value = feature(mf, fid)
        if math.isnan(value):
            continue
        if "Percentage" in fid:
            assert 0.0 <= value <= 100.0, fid
        if fid.startswith("Number"):
            assert value >= 0 and value == int(value), fid
        if "Entropy" in fid and "Class" not in fid:
            assert value >= 0.0, fid


# --- oracle: the dict-based meta-features as computed before the array form ------


def _oracle_attribute_entropy(ds: Dataset, attr: int) -> float:
    """Shannon entropy (bits) of a categorical attribute over non-missing cells."""
    a = ds.attributes[attr]
    if not a.is_categorical:
        raise ValueError(f"attribute {a.name!r} is continuous")
    col = ds.column(attr)
    present = col[~np.isnan(col)].astype(int)
    if present.size == 0:
        return 0.0
    return entropy(np.bincount(present, minlength=len(a.categories)))


def _oracle_mutual_information(ds: Dataset, attr: int) -> float:
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


def _oracle_distinct_values(ds, attr):
    return np.unique(_oracle_present(ds.column(attr))).size


def _oracle_sample_std(values):
    if values.size < 2:
        return 0.0
    return float(np.std(values, ddof=1))


def _oracle_skewness(values):
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


def _oracle_excess_kurtosis(values):
    n = values.size
    if n < 2:
        return 0.0
    m = values.mean()
    m2 = float(((values - m) ** 2).mean())
    if m2 == 0.0:
        return 0.0
    m4 = float(((values - m) ** 4).mean())
    return float(m4 / m2**2 - 3.0)


def _oracle_present(col):
    return col[~np.isnan(col)]


def _oracle_spread(values, prefix, suffix, out):
    arr = np.asarray(values, dtype=float)
    out[f"Min{prefix}{suffix}"] = float(arr.min())
    out[f"Mean{prefix}{suffix}"] = float(arr.mean())
    out[f"Max{prefix}{suffix}"] = float(arr.max())


def _oracle_quartiles(values, prefix, suffix, out):
    q1, q2, q3 = np.percentile(np.asarray(values, dtype=float), [25, 50, 75])
    out[f"Quartile1{prefix}{suffix}"] = float(q1)
    out[f"Quartile2{prefix}{suffix}"] = float(q2)
    out[f"Quartile3{prefix}{suffix}"] = float(q3)


def _oracle_derived_information_features(ds):
    cat = ds.categorical_predictors
    mean_mi = float(np.mean([_oracle_mutual_information(ds, j) for j in cat]))
    if mean_mi == 0.0:
        return None, None
    mean_entropy = float(np.mean([_oracle_attribute_entropy(ds, j) for j in cat]))
    class_entropy = entropy(np.bincount(ds.class_labels))
    return class_entropy / mean_mi, (mean_entropy - mean_mi) / mean_mi


def _oracle_compute_meta_features(ds):
    """Feature id -> value, None where NOT_APPLICABLE."""
    n, m = ds.rows.shape
    cont = ds.continuous_predictors
    cat = ds.categorical_predictors
    values = {}

    values["NumberOfContinuousAttributes"] = float(len(cont))
    values["PercentageOfContinuousAttributes"] = 100.0 * len(cont) / m
    if cont:
        stats = {"Means": [], "Std": [], "Kurtosis": [], "Skewness": []}
        for j in cont:
            vals = _oracle_present(ds.column(j))
            stats["Means"].append(float(vals.mean()) if vals.size else 0.0)
            stats["Std"].append(_oracle_sample_std(vals))
            stats["Kurtosis"].append(_oracle_excess_kurtosis(vals))
            stats["Skewness"].append(_oracle_skewness(vals))
        for stat in stats:
            _oracle_spread(stats[stat], stat, "OfContinuousAttributes", values)
        for stat in stats:
            _oracle_quartiles(stats[stat], stat, "OfContinuousAttributes", values)
    else:
        for fid in FEATURE_IDS[2:26]:
            values[fid] = None

    binary = [j for j in cat if len(ds.attributes[j].categories) == 2]
    values["NumberOfCategoricalAttributes"] = float(len(cat))
    values["NumberOfBinaryAttributes"] = float(len(binary))
    values["PercentageOfCategoricalAttributes"] = 100.0 * len(cat) / m
    values["PercentageOfBinaryAttributes"] = 100.0 * len(binary) / m
    if cat:
        entropies = [_oracle_attribute_entropy(ds, j) for j in cat]
        infos = [_oracle_mutual_information(ds, j) for j in cat]
        distinct = [float(_oracle_distinct_values(ds, j)) for j in cat]
        _oracle_spread(entropies, "", "AttributeEntropy", values)
        _oracle_quartiles(entropies, "", "AttributeEntropy", values)
        _oracle_spread(infos, "", "MutualInformation", values)
        _oracle_quartiles(infos, "", "MutualInformation", values)
        ena, nsr = _oracle_derived_information_features(ds)
        values["EquivalentNumberOfAttributes"] = ena
        values["NoiseToSignalRatio"] = nsr
        _oracle_spread(distinct, "", "AttributeDistinctValues", values)
        values["StdAttributeDistinctValues"] = _oracle_sample_std(np.asarray(distinct))
    else:
        for fid in FEATURE_IDS[30:48]:
            values[fid] = None

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
    assert set(values) == set(FEATURE_IDS)
    return {fid: values[fid] for fid in FEATURE_IDS}


def _oracle_delta(before, after):
    return {
        fid: (after[fid] - before[fid] if None not in (before[fid], after[fid]) else None)
        for fid in FEATURE_IDS
    }


def _as_array(values):
    return np.array([np.nan if v is None else v for v in values.values()])


def _checked_against_oracle(ds):
    """The vector, equal to the dict oracle's with NaN for None; None if the oracle fails.

    The oracle divides by zero when m2**2 underflows; the array form then
    raises a ValueError that names the attribute.
    """
    try:
        old = _oracle_compute_meta_features(ds)
    except ZeroDivisionError:
        with pytest.raises(ValueError, match="statistics leave the float range"):
            compute_meta_features(ds)
        return None
    new = compute_meta_features(ds)
    assert new.dtype == np.float64 and not new.flags.writeable
    np.testing.assert_array_equal(new, _as_array(old))
    return new, old


def assert_matches_oracle(before, after):
    """Both vectors and their delta equal the dict oracle's exactly."""
    checked = [_checked_against_oracle(ds) for ds in (before, after)]
    if None in checked:
        return
    (new_before, old_before), (new_after, old_after) = checked
    change = delta(new_before, new_after)
    assert not change.flags.writeable
    np.testing.assert_array_equal(change, _as_array(_oracle_delta(old_before, old_after)))


def test_mini_corpus_matches_dict_oracle(mini_datasets):
    checked = 0
    for ds in mini_datasets:
        for spec in enumerate_applicable(ds):
            assert_matches_oracle(ds, apply(spec, ds))
            checked += 1
    assert (len(mini_datasets), checked) == (24, 273)


@st.composite
def edge_datasets(draw):
    """Small datasets with missing cells, constant and all-missing columns, down to one row."""
    n = draw(st.integers(1, 12))
    n_cont = draw(st.integers(0, 9))
    n_cat = draw(st.integers(0 if n_cont else 1, 9))
    attrs, cols = [], []
    for j in range(n_cont + n_cat):
        if j < n_cont:
            attrs.append(Attribute(f"a{j}", "continuous"))
            cell = st.floats(-1e6, 1e6, allow_nan=False)
        else:
            k = draw(st.integers(1, 4))
            attrs.append(Attribute(f"a{j}", "categorical", tuple(f"v{i}" for i in range(k))))
            cell = st.integers(0, k - 1).map(float)
        shape = draw(st.sampled_from(["free", "constant", "missing"]))
        if shape == "missing":
            cols.append([math.nan] * n)
        elif shape == "constant":
            cols.append([draw(cell)] * n)
        else:
            cols.append(draw(st.lists(cell | st.just(math.nan), min_size=n, max_size=n)))
    attrs.append(Attribute("class", "categorical", ("c0", "c1", "c2")))
    cols.append(draw(st.lists(st.integers(0, 2).map(float), min_size=n, max_size=n)))
    return Dataset("fuzz", tuple(attrs), len(attrs) - 1, np.array(cols).T)


@settings(max_examples=200, deadline=None)
@given(edge_datasets(), edge_datasets())
def test_edge_datasets_match_dict_oracle(before, after):
    assert_matches_oracle(before, after)


def _oracle_categorical_stats(ds, attr):
    return (_oracle_attribute_entropy(ds, attr), _oracle_mutual_information(ds, attr),
            _oracle_distinct_values(ds, attr))


@pytest.mark.parametrize("seed", [7, 11])
def test_categorical_stats_equal_the_oracles_on_mini_corpus_catalogs(seed):
    checked = 0
    for ds in mini_corpus(seed):
        for version in [ds, *(apply(spec, ds) for spec in enumerate_applicable(ds))]:
            for j in version.categorical_predictors:
                assert _categorical_stats(version, j) == _oracle_categorical_stats(version, j)
                checked += 1
    assert checked > 500


@settings(max_examples=300, deadline=None)
@given(categorical_columns())
def test_categorical_stats_equal_the_oracles_on_edge_columns(ds):
    assert _categorical_stats(ds, 0) == _oracle_categorical_stats(ds, 0)


@pytest.mark.parametrize("magnitude", [1e80, 1e200, 1e-140])
def test_out_of_range_statistics_name_the_attribute(tmp_path, capsys, magnitude):
    good = random_dataset(5, n_rows=30, n_continuous=1, n_categorical=0, name="good")
    rows = good.rows.copy()
    rows[:, 0] *= magnitude
    huge = Dataset("huge", good.attributes, good.class_index, rows)
    message = f"attribute {good.attributes[0].name!r}: its statistics leave the float range"
    with pytest.raises(ValueError) as info:
        compute_meta_features(huge)
    assert str(info.value) == message

    db = build_metadb([huge, good], TREE, "acc", seed=1)
    assert db.dataset_names() == ("good",)
    raised = info.traceback[-1]  # the innermost frame, in metafeatures.py
    frame = f" [{Path(str(raised.path)).name}:{raised.lineno + 1}]"
    assert db.skipped == (("huge", f"ValueError: {message}{frame}"),)

    path = tmp_path / "huge.arff"
    path.write_text(serialize_arff(huge), encoding="utf-8")
    assert main(["featurize", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: {message}"]


# --- per-column statistics reused across a catalog (a dataset and its versions) ---


def assert_reuse_is_exact(catalog):
    """Vectors computed with one shared column cache equal fresh ones byte for byte.

    A dataset whose statistics leave the float range raises the fresh
    error, naming its own attribute.  Every column computed is counted once.
    """
    fresh = []
    for ds in catalog:
        try:
            fresh.append(compute_meta_features(ds))
        except ValueError as exc:
            fresh.append(exc)
    COLUMN_STATS.reset()
    columns = {}
    for ds, expected in zip(catalog, fresh):
        if isinstance(expected, ValueError):
            with pytest.raises(ValueError) as info:
                compute_meta_features(ds, columns)
            assert str(info.value) == str(expected)
        else:
            cached = compute_meta_features(ds, columns)
            assert cached.tobytes() == expected.tobytes() and not cached.flags.writeable
    assert COLUMN_STATS.value == len(columns)
    if not any(isinstance(expected, ValueError) for expected in fresh):
        assert len(columns) == len(distinct_columns(catalog))
    return columns


def test_column_reuse_is_exact_on_the_mini_corpus(mini_datasets):
    versions = 0
    for ds in mini_datasets:
        catalog = [ds, *(apply(spec, ds) for spec in enumerate_applicable(ds))]
        columns = assert_reuse_is_exact(catalog)
        # one computation per distinct column, fewer than the catalog's columns
        assert len(columns) < sum(len(version.predictor_indices) for version in catalog)
        versions += len(catalog) - 1
    assert (len(mini_datasets), versions) == (24, 273)


def test_column_reuse_is_exact_on_a_large_catalog():
    ds = random_dataset(
        2018, n_rows=4000, n_continuous=10, n_categorical=5, n_classes=3, missing_rate=0.03
    )
    assert_reuse_is_exact([ds, *(apply(spec, ds) for spec in enumerate_applicable(ds))])


def test_out_of_range_statistics_name_each_versions_attribute():
    good = random_dataset(5, n_rows=30, n_continuous=2, n_categorical=1)
    rows = good.rows.copy()
    rows[:, 1] *= 1e200
    attrs = good.attributes
    huge = Dataset("huge", attrs, good.class_index, rows)
    renamed = Dataset("huge", (attrs[0], Attribute("other", "continuous"), *attrs[2:]), 3, rows)
    columns = {}
    for ds in (huge, renamed, huge):
        name = ds.attributes[1].name
        with pytest.raises(ValueError, match=f"^attribute {name!r}: its statistics leave"):
            compute_meta_features(ds, columns)
    assert list(columns) == [("continuous", 0, rows[:, 0].tobytes())]  # never the huge one


@st.composite
def edge_catalogs(draw):
    """A fuzzed dataset, its operator versions, and look-alikes sharing its class column.

    The look-alikes hold a column duplicated under a second name, a
    categorical column's cells as a continuous column and under a larger
    category count (equal bytes under other keys), and maybe a continuous
    column beyond the float range.
    """
    ds = draw(edge_datasets())
    rows, cls = np.array(ds.rows), ds.class_index
    if draw(st.booleans()):  # -0.0 differs from 0.0 by its bytes only
        predictors = rows[:, list(ds.predictor_indices)]
        rows[:, list(ds.predictor_indices)] = np.where(predictors == 0.0, -0.0, predictors)
    attrs = list(ds.attributes)
    ds = Dataset(ds.name, tuple(attrs), cls, rows)
    catalog = [ds, *(apply(spec, ds) for spec in enumerate_applicable(ds))]
    j = draw(st.sampled_from(ds.predictor_indices))
    twin = Attribute("twin", attrs[j].kind, attrs[j].categories)
    catalog.append(Dataset("dup", (twin, *attrs), cls + 1, np.column_stack([rows[:, j], rows])))
    for k in ds.categorical_predictors[:1]:
        more = tuple(f"u{i}" for i in range(len(attrs[k].categories) + 1))
        for other in (Attribute("c", "continuous"), Attribute("c", "categorical", more)):
            catalog.append(Dataset("kinds", (*attrs[:k], other, *attrs[k + 1 :]), cls, rows))
    if ds.continuous_predictors and draw(st.booleans()):
        huge = rows.copy()
        huge[:, ds.continuous_predictors[-1]] *= draw(st.sampled_from([1e200, 1e-160]))
        at = draw(st.integers(0, len(catalog)))
        catalog.insert(at, Dataset("huge", tuple(attrs), cls, huge))
    return catalog


@settings(max_examples=150, deadline=None)
@given(edge_catalogs())
def test_column_reuse_is_exact_on_fuzzed_catalogs(catalog):
    assert_reuse_is_exact(catalog)
