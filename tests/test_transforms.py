import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from preprank.dataset import CATEGORICAL, CONTINUOUS, Attribute, Dataset
from preprank.synthetic import random_dataset
from preprank.transforms import (
    _COLUMN_REWRITES,
    KIND_ORDER,
    PRINCIPAL_COMPONENTS,
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



# --- the operator functions before the column-rewrite table, kept as an oracle ---

def _old_rebuild(ds: Dataset, per_attr: list[list[tuple[Attribute, np.ndarray]]]) -> Dataset:
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


def _old_identity_plan(ds: Dataset) -> list[list[tuple[Attribute, np.ndarray]]]:
    return [[(a, np.array(ds.column(j)))] for j, a in enumerate(ds.attributes)]


def _old_minmax_column(col: np.ndarray) -> np.ndarray:
    out = np.array(col)
    present = ~np.isnan(out)
    vals = out[present]
    if vals.size == 0:
        return out
    lo, hi = vals.min(), vals.max()
    out[present] = 0.0 if hi == lo else (vals - lo) / (hi - lo)
    return out


def _old_zscore_column(col: np.ndarray) -> np.ndarray:
    out = np.array(col)
    present = ~np.isnan(out)
    vals = out[present]
    if vals.size == 0:
        return out
    std = float(np.std(vals, ddof=1)) if vals.size > 1 else 0.0
    out[present] = 0.0 if std == 0.0 else (vals - vals.mean()) / std
    return out


def _old_scale(ds: Dataset, targets, fn) -> Dataset:
    plan = _old_identity_plan(ds)
    for j in targets:
        plan[j] = [(ds.attributes[j], fn(ds.column(j)))]
    return _old_rebuild(ds, plan)


def _old_discretize_equal_width(ds: Dataset, targets, bins: int) -> Dataset:
    plan = _old_identity_plan(ds)
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
    return _old_rebuild(ds, plan)


def _old_discretize_mdl(ds: Dataset, targets) -> Dataset:
    plan = _old_identity_plan(ds)
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
    return _old_rebuild(ds, plan)

def _old_nominal_to_binary_plain(ds: Dataset, targets) -> Dataset:
    """One 0/1 indicator per category; two-category attributes get a single one."""
    plan = _old_identity_plan(ds)
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
    return _old_rebuild(ds, plan)


def _old_nominal_to_binary_ordered(ds: Dataset, targets) -> Dataset:
    """Cumulative indicator coding with categories ordered by mean class rank.

    Classes are ranked by their category index; each category gets the mean
    rank of its rows, categories are sorted by it, and k-1 indicators encode
    "comes after position j" in that order.  Single-category attributes
    collapse to one all-zero indicator.
    """
    plan = _old_identity_plan(ds)
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
    return _old_rebuild(ds, plan)


def _old_impute_mean(ds: Dataset, targets) -> Dataset:
    plan = _old_identity_plan(ds)
    for j in targets:
        col = np.array(ds.column(j))
        missing = np.isnan(col)
        if missing.any():
            vals = col[~missing]
            col[missing] = float(vals.mean()) if vals.size else 0.0
        plan[j] = [(ds.attributes[j], col)]
    return _old_rebuild(ds, plan)


def _old_impute_mode(ds: Dataset, targets) -> Dataset:
    plan = _old_identity_plan(ds)
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
    return _old_rebuild(ds, plan)


def _old_principal_components(ds: Dataset, targets, coverage: float) -> Dataset:
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

    plan = _old_identity_plan(ds)
    first = targets[0]
    for j in targets:
        plan[j] = []
    plan[first] = [
        (Attribute(f"PC{i + 1}", CONTINUOUS), scores[:, i]) for i in range(scores.shape[1])
    ]
    return _old_rebuild(ds, plan)


_OLD_OPERATORS = {
    "normalize": lambda ds, targets, spec: _old_scale(ds, targets, _old_minmax_column),
    "standardize": lambda ds, targets, spec: _old_scale(ds, targets, _old_zscore_column),
    "discretize_unsup": lambda ds, targets, spec: _old_discretize_equal_width(
        ds, targets, int(spec.param("bins"))
    ),
    "discretize_sup": lambda ds, targets, spec: _old_discretize_mdl(ds, targets),
    "nom2bin_unsup": lambda ds, targets, spec: _old_nominal_to_binary_plain(ds, targets),
    "nom2bin_sup": lambda ds, targets, spec: _old_nominal_to_binary_ordered(ds, targets),
    "impute_cont": lambda ds, targets, spec: _old_impute_mean(ds, targets),
    "impute_cat": lambda ds, targets, spec: _old_impute_mode(ds, targets),
    "pca": lambda ds, targets, spec: _old_principal_components(ds, targets, spec.param("var")),
}


def _old_apply(spec, ds):
    if spec.scope == "local":
        targets = (spec.attribute,)
    elif spec.kind in ("nom2bin_sup", "nom2bin_unsup", "impute_cat"):
        targets = ds.categorical_predictors
    else:
        targets = ds.continuous_predictors
    return _OLD_OPERATORS[spec.kind](ds, targets, spec)


def assert_apply_matches_oracle(ds):
    specs = enumerate_applicable(ds)
    for spec in specs:
        ours, oracle = apply(spec, ds), _old_apply(spec, ds)
        assert ours == oracle, spec.text
        assert ours.rows.tobytes() == oracle.rows.tobytes(), spec.text
    return len(specs)


def test_rewrite_table_and_pca_cover_the_catalog():
    assert sorted([*_COLUMN_REWRITES, PRINCIPAL_COMPONENTS]) == sorted(KIND_ORDER)


def test_mini_corpus_apply_matches_oracle(mini_datasets):
    checked = sum(assert_apply_matches_oracle(ds) for ds in mini_datasets)
    assert (len(mini_datasets), checked) == (24, 273)


@pytest.mark.parametrize("seed", range(5))
def test_mixed_missing_apply_matches_oracle(seed):
    ds = random_dataset(
        seed, n_rows=300, n_continuous=4, n_categorical=3, n_classes=3, missing_rate=0.1
    )
    assert assert_apply_matches_oracle(ds) == 20


def test_degenerate_columns_apply_matches_oracle():
    nan = np.nan
    attrs = (
        Attribute("c", CONTINUOUS),  # constant
        Attribute("class", CATEGORICAL, ("a", "b")),
        Attribute("s", CATEGORICAL, ("only",)),  # one category
        Attribute("m", CONTINUOUS),  # every cell missing
        Attribute("t", CATEGORICAL, ("p", "q", "r")),  # "q" never occurs
        Attribute("t=p", CONTINUOUS),  # names the rewrites of t and PCA produce
        Attribute("PC1", CONTINUOUS),
        Attribute("b", CATEGORICAL, ("no", "yes")),
    )
    rows = np.array(
        [
            [2.0, 0, 0, nan, 0, 1.0, -3.0, 1],
            [2.0, 1, 0, nan, 2, nan, 0.5, 0],
            [2.0, 0, nan, nan, 0, 4.0, 0.5, nan],
            [2.0, 1, 0, nan, nan, 2.5, 7.0, 1],
            [2.0, 1, 0, nan, 2, 0.0, nan, 1],
            [2.0, 0, 0, nan, 0, 3.0, 1.0, 0],
        ]
    )
    ds = Dataset("degenerate", attrs, 1, rows)
    assert assert_apply_matches_oracle(ds) == 20
    one_row = Dataset("one-row", attrs, 1, rows[:1])
    assert assert_apply_matches_oracle(one_row) == 19
