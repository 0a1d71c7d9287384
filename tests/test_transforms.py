import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from preprank.dataset import Attribute, Dataset
from preprank.synthetic import random_dataset
from preprank.transforms import (
    KIND_ORDER,
    TransformError,
    TransformationSpec,
    apply,
    enumerate_applicable,
    parse_spec_text,
)
from preprank.transforms import _best_cut, _mdl_accepts, _mdl_cuts  # white-box oracle targets


def one_column(values, n_classes=2, labels=None):
    values = np.asarray(values, dtype=float)
    labels = np.asarray(
        labels if labels is not None else np.arange(len(values)) % n_classes, dtype=float
    )
    attrs = (
        Attribute("x", "continuous"),
        Attribute("class", "categorical", tuple(f"c{i}" for i in range(n_classes))),
    )
    return Dataset("t", attrs, 1, np.column_stack([values, labels]))


# --- enumeration -----------------------------------------------------------


def test_enumeration_continuous_only():
    ds = random_dataset(1, n_rows=30, n_continuous=3, n_categorical=0)
    specs = enumerate_applicable(ds)
    by_kind = Counter(s.kind for s in specs)
    assert by_kind == {
        "discretize_sup": 4,  # 3 local + all
        "discretize_unsup": 4,
        "normalize": 1,
        "standardize": 1,
        "pca": 1,
    }


def test_enumeration_categorical_only():
    ds = random_dataset(2, n_rows=30, n_continuous=0, n_categorical=3)
    kinds = {s.kind for s in enumerate_applicable(ds)}
    assert kinds == {"nom2bin_sup", "nom2bin_unsup"}


def test_enumeration_single_local_target_no_all():
    ds = random_dataset(3, n_rows=30, n_continuous=1, n_categorical=0)
    specs = [s for s in enumerate_applicable(ds) if s.kind == "discretize_sup"]
    assert len(specs) == 1 and specs[0].scope == "local"


def test_enumeration_imputation_needs_missing():
    clean = random_dataset(4, n_rows=30, n_continuous=2, n_categorical=2)
    kinds = {s.kind for s in enumerate_applicable(clean)}
    assert "impute_cont" not in kinds and "impute_cat" not in kinds
    dirty = random_dataset(4, n_rows=30, n_continuous=2, n_categorical=2, missing_rate=0.2)
    kinds = {s.kind for s in enumerate_applicable(dirty)}
    assert "impute_cont" in kinds and "impute_cat" in kinds


def test_enumeration_order_is_canonical():
    ds = random_dataset(5, n_rows=30, n_continuous=2, n_categorical=2, missing_rate=0.1)
    specs = enumerate_applicable(ds)
    kind_positions = [KIND_ORDER.index(s.kind) for s in specs]
    assert kind_positions == sorted(kind_positions)
    locals_ = [s.attribute for s in specs if s.kind == "discretize_sup" and s.scope == "local"]
    assert locals_ == sorted(locals_)


# --- per-kind contracts ------------------------------------------------------


def test_normalize_forced_values():
    ds = one_column([2.0, 4.0, 6.0], labels=[0, 1, 0])
    out = apply(TransformationSpec("normalize", "global"), ds)
    assert list(out.rows[:, 0]) == [0.0, 0.5, 1.0]


def test_normalize_constant_maps_to_zero():
    ds = one_column([3.0, 3.0, 3.0], labels=[0, 1, 0])
    out = apply(TransformationSpec("normalize", "global"), ds)
    assert list(out.rows[:, 0]) == [0.0, 0.0, 0.0]


def test_standardize_forced_values():
    ds = one_column([2.0, 4.0, 6.0], labels=[0, 1, 0])
    out = apply(TransformationSpec("standardize", "global"), ds)
    assert list(out.rows[:, 0]) == [-1.0, 0.0, 1.0]


def test_scaling_preserves_missing():
    ds = one_column([2.0, np.nan, 6.0, 4.0], labels=[0, 1, 0, 1])
    for kind in ("normalize", "standardize"):
        out = apply(TransformationSpec(kind, "global"), ds)
        assert math.isnan(out.rows[1, 0])


def test_equal_width_discretization():
    ds = one_column(np.arange(10.0))
    out = apply(TransformationSpec("discretize_unsup", "local", 0, (("bins", 2),)), ds)
    assert out.attributes[0].is_categorical
    assert out.attributes[0].categories == ("bin0", "bin1")
    assert list(out.rows[:5, 0]) == [0.0] * 5
    assert list(out.rows[5:, 0]) == [1.0] * 5


def test_supervised_discretization_perfect_threshold():
    values = [1.0, 2.0, 3.0, 4.0, 10.0, 11.0, 12.0, 13.0]
    labels = [0, 0, 0, 0, 1, 1, 1, 1]
    ds = one_column(values, labels=labels)
    out = apply(TransformationSpec("discretize_sup", "local", 0), ds)
    assert out.attributes[0].categories == ("bin0", "bin1")
    assert list(out.rows[:, 0]) == [0.0] * 4 + [1.0] * 4
    assert _mdl_cuts(np.array(values), np.array(labels)) == [7.0]


def test_supervised_discretization_no_signal_single_bin():
    rng = np.random.default_rng(0)
    values = rng.normal(size=12)
    labels = rng.integers(0, 2, size=12)
    ds = one_column(values, labels=labels)
    out = apply(TransformationSpec("discretize_sup", "local", 0), ds)
    assert out.attributes[0].is_categorical
    # few noisy points: the MDL criterion rejects every cut
    assert out.attributes[0].categories == ("bin0",)


def _oracle_mdl(values, labels):
    """Independent recursive MDL search over explicit candidate lists."""

    def entropy(ys):
        total = len(ys)
        if total == 0:
            return 0.0
        return -sum(
            (c / total) * math.log2(c / total) for c in Counter(ys).values()
        )

    def search(pairs):
        n = len(pairs)
        if n < 2:
            return []
        ys = [y for _, y in pairs]
        h_all = entropy(ys)
        candidates = []
        for i in range(1, n):
            if pairs[i - 1][0] == pairs[i][0]:
                continue
            left_val = pairs[i - 1][0]
            right_val = pairs[i][0]
            before = {y for v, y in pairs if v == left_val}
            after = {y for v, y in pairs if v == right_val}
            if before == after:
                continue
            gain = (
                h_all
                - (i / n) * entropy(ys[:i])
                - ((n - i) / n) * entropy(ys[i:])
            )
            candidates.append((gain, i))
        if not candidates:
            return []
        best_gain, best_i = max(candidates, key=lambda t: (t[0], -t[1]))
        if best_gain <= 1e-12:
            return []
        k = len(set(ys))
        k1 = len(set(ys[:best_i]))
        k2 = len(set(ys[best_i:]))
        delta = math.log2(3**k - 2) - (
            k * h_all - k1 * entropy(ys[:best_i]) - k2 * entropy(ys[best_i:])
        )
        if best_gain <= (math.log2(n - 1) + delta) / n:
            return []
        cut = (pairs[best_i - 1][0] + pairs[best_i][0]) / 2.0
        return search(pairs[:best_i]) + [cut] + search(pairs[best_i:])

    pairs = sorted(zip(values, labels), key=lambda t: t[0])
    return sorted(search(pairs))


def test_mdl_cuts_match_independent_oracle():
    rng = np.random.default_rng(7)
    for trial in range(40):
        n = int(rng.integers(6, 60))
        n_classes = int(rng.integers(2, 4))
        labels = rng.integers(0, n_classes, size=n)
        if rng.random() < 0.5:
            values = rng.normal(size=n) + labels * rng.uniform(0, 3)
        else:
            values = rng.integers(0, 6, size=n).astype(float)
        ours = _mdl_cuts(values, labels)
        oracle = _oracle_mdl(list(values), list(labels))
        assert ours == pytest.approx(oracle), f"trial {trial}"


# The scalar cut search that the vectorized ``_best_cut`` replaced, kept
# verbatim as a bit-for-bit oracle: one Python step per sorted position,
# class sets as frozensets, one entropy call per candidate boundary.


def _scalar_segment_entropy(counts):
    total = counts.sum()
    if total == 0:
        return 0.0
    p = counts[counts > 0] / total
    return float(-(p * np.log2(p)).sum())


def _scalar_best_cut(v, y, prefix, lo, hi):
    n = hi - lo
    if n < 2:
        return None
    total = prefix[hi] - prefix[lo]
    h_all = _scalar_segment_entropy(total)
    if h_all == 0.0:
        return None
    best_gain = 0.0
    best_pos = None
    run_classes = {int(y[lo])}
    boundaries = []
    for i in range(lo + 1, hi):
        if v[i] != v[i - 1]:
            boundaries.append((i, frozenset(run_classes)))
            run_classes = {int(y[i])}
        else:
            run_classes.add(int(y[i]))
    after_sets = []
    for idx, (pos, _) in enumerate(boundaries):
        end = boundaries[idx + 1][0] if idx + 1 < len(boundaries) else hi
        after_sets.append(frozenset(int(c) for c in y[pos:end]))
    for (pos, before_set), after_set in zip(boundaries, after_sets):
        if before_set == after_set:
            continue
        left = prefix[pos] - prefix[lo]
        right = prefix[hi] - prefix[pos]
        nl, nr = left.sum(), right.sum()
        gain = (
            h_all
            - (nl / n) * _scalar_segment_entropy(left)
            - (nr / n) * _scalar_segment_entropy(right)
        )
        if gain > best_gain + 1e-12:
            best_gain = gain
            best_pos = pos
    if best_pos is None:
        return None
    return best_pos, best_gain


def _sorted_prefix(values, labels):
    order = np.argsort(values, kind="stable")
    v, y = values[order], labels[order]
    onehot = np.zeros((v.size, int(labels.max()) + 1))
    onehot[np.arange(v.size), y] = 1.0
    return v, y, np.vstack([np.zeros(onehot.shape[1]), np.cumsum(onehot, axis=0)])


def _scalar_mdl_cuts(values, labels):
    if values.size == 0:
        return []
    v, y, prefix = _sorted_prefix(values, labels)
    cuts, stack = [], [(0, v.size)]
    while stack:
        lo, hi = stack.pop()
        best = _scalar_best_cut(v, y, prefix, lo, hi)
        if best is None or not _mdl_accepts(prefix, lo, best[0], hi, best[1]):
            continue
        pos = best[0]
        cuts.append(float((v[pos - 1] + v[pos]) / 2.0))
        stack += [(pos, hi), (lo, pos)]
    return sorted(cuts)


def _assert_same_as_scalar(values, labels):
    values, labels = np.asarray(values, dtype=float), np.asarray(labels)
    assert _mdl_cuts(values, labels) == _scalar_mdl_cuts(values, labels)
    v, y, prefix = _sorted_prefix(values, labels)
    rng = np.random.default_rng(values.size)
    segments = [(0, v.size)] + [
        tuple(sorted(rng.choice(v.size + 1, size=2, replace=False))) for _ in range(5)
    ]
    for lo, hi in segments:
        ours, scalar = _best_cut(v, prefix, lo, hi), _scalar_best_cut(v, y, prefix, lo, hi)
        assert (ours is None) == (scalar is None), (lo, hi)
        if ours is not None:  # same position, same gain to the last bit
            assert ours[0] == scalar[0] and ours[1] == scalar[1], (lo, hi)


@pytest.mark.parametrize("pattern", [(2, 1, 0, 0), (1, 0, 2), (0, 1), (0, 0, 1)])
@pytest.mark.parametrize("run", [1, 2, 7])
def test_mdl_matches_scalar_search_on_tie_heavy_runs(pattern, run):
    # periodic labels make many candidates' gains tie exactly or to within
    # 1e-12 (several of these reach the running-best replay), and runs of
    # equal values make most positions non-candidates
    for n in (60, 100, 192, 500):
        labels = np.tile(pattern, n)[:n]
        _assert_same_as_scalar(np.arange(n) // run, labels)
        _assert_same_as_scalar(np.arange(n) // run, np.sort(labels))


def test_mdl_matches_scalar_search_on_random_inputs():
    rng = np.random.default_rng(11)
    for trial in range(60):
        n = int(rng.integers(2, 400))
        labels = rng.integers(0, int(rng.integers(2, 5)), size=n)
        if trial % 3 == 0:
            values = rng.normal(size=n) + labels * rng.uniform(0, 3)
        elif trial % 3 == 1:
            values = np.round(rng.normal(size=n) + labels, 1)
        else:
            values = rng.integers(0, int(rng.integers(1, 9)), size=n).astype(float)
        _assert_same_as_scalar(values, labels)


def test_mdl_single_distinct_value_has_no_cut():
    labels = np.arange(50) % 3
    _assert_same_as_scalar(np.full(50, 4.25), labels)
    v, _, prefix = _sorted_prefix(np.full(50, 4.25), labels)
    assert _best_cut(v, prefix, 0, 50) is None


@pytest.mark.parametrize("n_classes", [8, 9, 12, 20])
def test_mdl_matches_scalar_search_with_many_classes(n_classes):
    # NumPy sums eight or more entropy terms pairwise, not left to right
    rng = np.random.default_rng(n_classes)
    for trial in range(8):
        n = int(rng.integers(100, 600))
        labels = rng.integers(0, n_classes, size=n)
        values = labels * rng.uniform(0, 1) + rng.normal(size=n)
        if trial % 2:
            values = np.round(values)
        _assert_same_as_scalar(values, labels)


def test_nominal_to_binary_unsupervised_shapes():
    attrs = (
        Attribute("c3", "categorical", ("a", "b", "c")),
        Attribute("c2", "categorical", ("u", "v")),
        Attribute("class", "categorical", ("x", "y")),
    )
    rows = np.array([[0, 0, 0], [1, 1, 1], [2, 0, 0], [np.nan, 1, 1]], dtype=float)
    ds = Dataset("t", attrs, 2, rows)
    out = apply(TransformationSpec("nom2bin_unsup", "local", 0), ds)
    names = [a.name for a in out.attributes]
    assert names == ["c3=a", "c3=b", "c3=c", "c2", "class"]
    assert all(out.attributes[i].is_continuous for i in range(3))
    assert list(out.rows[0, :3]) == [1.0, 0.0, 0.0]
    assert all(math.isnan(v) for v in out.rows[3, :3])

    out2 = apply(TransformationSpec("nom2bin_unsup", "local", 1), ds)
    assert [a.name for a in out2.attributes] == ["c3", "c2=v", "class"]
    assert list(out2.rows[:, 1]) == [0.0, 1.0, 0.0, 1.0]


def test_nominal_to_binary_supervised_cumulative():
    # category mean class ranks: a=1.0, b=0.0, c=0.5 -> order b, c, a
    attrs = (
        Attribute("g", "categorical", ("a", "b", "c")),
        Attribute("class", "categorical", ("n", "p")),
    )
    rows = np.array(
        [[0, 1], [0, 1], [1, 0], [1, 0], [2, 0], [2, 1]], dtype=float
    )
    ds = Dataset("t", attrs, 1, rows)
    out = apply(TransformationSpec("nom2bin_sup", "global"), ds)
    assert [a.name for a in out.attributes] == ["g>b", "g>c", "class"]
    # a -> (1,1), b -> (0,0), c -> (1,0)
    assert list(out.rows[0, :2]) == [1.0, 1.0]
    assert list(out.rows[2, :2]) == [0.0, 0.0]
    assert list(out.rows[4, :2]) == [1.0, 0.0]


def test_imputations():
    attrs = (
        Attribute("x", "continuous"),
        Attribute("g", "categorical", ("a", "b")),
        Attribute("class", "categorical", ("n", "p")),
    )
    rows = np.array(
        [[1.0, 0, 0], [np.nan, 1, 1], [3.0, np.nan, 0], [4.0, 1, 1]], dtype=float
    )
    ds = Dataset("t", attrs, 2, rows)
    cont = apply(TransformationSpec("impute_cont", "global"), ds)
    assert cont.rows[1, 0] == pytest.approx((1 + 3 + 4) / 3)
    cat = apply(TransformationSpec("impute_cat", "global"), ds)
    assert cat.rows[2, 1] == 1.0  # mode of {a:1, b:2}
    # ties go to the lowest category index
    rows2 = np.array([[1.0, 0, 0], [1.0, 1, 1], [1.0, np.nan, 0], [1.0, np.nan, 1]])
    tie = Dataset("t", attrs, 2, rows2)
    out = apply(TransformationSpec("impute_cat", "global"), tie)
    assert out.rows[2, 1] == 0.0


def test_pca_rank_one():
    x = np.arange(10.0)
    attrs = (
        Attribute("a", "continuous"),
        Attribute("b", "continuous"),
        Attribute("class", "categorical", ("n", "p")),
    )
    rows = np.column_stack([x, 3.0 * x + 1.0, (x % 2).astype(float)])
    ds = Dataset("t", attrs, 2, rows)
    out = apply(TransformationSpec("pca", "global", params=(("var", 1.0),)), ds)
    assert [a.name for a in out.attributes] == ["PC1", "class"]


def test_pca_orthonormal_and_coverage():
    ds = random_dataset(17, n_rows=60, n_continuous=5, n_categorical=1, missing_rate=0.05)
    out = apply(TransformationSpec("pca", "global"), ds)
    pcs = [j for j, a in enumerate(out.attributes) if a.name.startswith("PC")]
    scores = out.rows[:, pcs]
    cov = np.cov(scores, rowvar=False, ddof=1).reshape(len(pcs), len(pcs))
    # component scores are uncorrelated; loadings orthonormal implies diagonal cov
    off_diag = cov - np.diag(np.diag(cov))
    assert np.abs(off_diag).max() < 1e-9
    total_var = 5.0  # standardized columns
    assert np.trace(cov) / total_var >= 0.95 - 1e-9
    # categorical predictor and class survive untouched
    assert out.attributes[pcs[-1] + 1].is_categorical

    # recover the loading matrix from an independently rebuilt design matrix
    design = np.array(ds.rows[:, list(ds.continuous_predictors)])
    for c in range(design.shape[1]):
        col = design[:, c]
        col[np.isnan(col)] = col[~np.isnan(col)].mean()
    design -= design.mean(axis=0)
    design /= design.std(axis=0, ddof=1)
    basis, *_ = np.linalg.lstsq(design, scores, rcond=None)
    gram = basis.T @ basis
    assert np.abs(gram - np.eye(len(pcs))).max() < 1e-9


def test_pca_keeps_missing_source_untouched():
    ds = random_dataset(18, n_rows=40, n_continuous=3, n_categorical=0, missing_rate=0.1)
    before = np.isnan(ds.rows).sum()
    apply(TransformationSpec("pca", "global"), ds)
    assert np.isnan(ds.rows).sum() == before


# --- cross-kind invariants ---------------------------------------------------


def every_spec_dataset():
    ds = random_dataset(31, n_rows=40, n_continuous=3, n_categorical=2, missing_rate=0.1)
    return ds, enumerate_applicable(ds)


def test_class_column_and_row_count_invariance():
    ds, specs = every_spec_dataset()
    for spec in specs:
        out = apply(spec, ds)
        assert out.n_rows == ds.n_rows, spec.text
        assert out.class_attribute == ds.class_attribute, spec.text
        assert np.array_equal(out.class_labels, ds.class_labels), spec.text


def test_output_types_follow_catalog():
    ds, specs = every_spec_dataset()
    for spec in specs:
        out = apply(spec, ds)
        if spec.kind.startswith("discretize"):
            targets = [spec.attribute] if spec.scope == "local" else ds.continuous_predictors
            for name in (ds.attributes[j].name for j in targets):
                replaced = [a for a in out.attributes if a.name == name]
                assert replaced and replaced[0].is_categorical
        if spec.kind.startswith("nom2bin"):
            for a in out.attributes:
                if "=" in a.name or ">" in a.name:
                    assert a.is_continuous
                    vals = out.rows[:, [x.name for x in out.attributes].index(a.name)]
                    vals = vals[~np.isnan(vals)]
                    assert set(np.unique(vals)) <= {0.0, 1.0}


def test_unsupervised_kinds_never_read_class():
    ds = random_dataset(41, n_rows=30, n_continuous=2, n_categorical=2, missing_rate=0.1)
    flipped_labels = (1.0 - ds.class_labels).astype(float)
    rows = np.array(ds.rows)
    rows[:, ds.class_index] = flipped_labels
    flipped = Dataset(ds.name, ds.attributes, ds.class_index, rows)
    for spec in enumerate_applicable(ds):
        if spec.kind in ("discretize_sup", "nom2bin_sup"):
            continue
        a = apply(spec, ds)
        b = apply(spec, flipped)
        pred_a = np.delete(a.rows, a.class_index, axis=1)
        pred_b = np.delete(b.rows, b.class_index, axis=1)
        assert np.array_equal(pred_a, pred_b, equal_nan=True), spec.text


def test_scaling_idempotence():
    ds = random_dataset(51, n_rows=30, n_continuous=3, n_categorical=0)
    normalize = TransformationSpec("normalize", "global")
    once = apply(normalize, ds)
    twice = apply(normalize, once)
    assert np.array_equal(once.rows, twice.rows, equal_nan=True)
    standardize = TransformationSpec("standardize", "global")
    s_once = apply(standardize, ds)
    s_twice = apply(standardize, s_once)
    assert np.abs(s_twice.rows[:, :3] - s_once.rows[:, :3]).max() < 1e-9


def test_apply_rejects_illegal_pairings():
    ds = random_dataset(61, n_rows=20, n_continuous=0, n_categorical=2)
    with pytest.raises(TransformError):
        apply(TransformationSpec("normalize", "global"), ds)
    with pytest.raises(TransformError):
        apply(TransformationSpec("discretize_sup", "local", 0), ds)


def test_spec_validation():
    with pytest.raises(ValueError):
        TransformationSpec("normalize", "local", 0)  # global kind
    with pytest.raises(ValueError):
        TransformationSpec("discretize_sup", "global")  # local kind
    with pytest.raises(ValueError):
        TransformationSpec("normalize", "global", params=(("bins", 3),))
    assert TransformationSpec("discretize_unsup", "all").param("bins") == 10.0


def test_spec_text_round_trip_examples():
    examples = [
        "discretize_sup(attr=3)",
        "discretize_sup(all)",
        "discretize_unsup(attr=0,bins=10)",
        "nom2bin_sup(global)",
        "normalize(global)",
        "pca(var=0.95)",
        "impute_cont(global)",
    ]
    for text in examples:
        assert parse_spec_text(text).text == text


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_spec_text_round_trip_property(seed):
    ds = random_dataset(
        seed % 97,
        n_rows=20,
        n_continuous=seed % 3,
        n_categorical=(seed // 3) % 3 if seed % 3 else 1 + (seed // 3) % 2,
        missing_rate=0.1 if seed % 2 else 0.0,
    )
    for spec in enumerate_applicable(ds):
        assert parse_spec_text(spec.text) == spec
