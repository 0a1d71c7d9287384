import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import preprank.transforms as transforms_mod
from preprank.dataset import CATEGORICAL, CONTINUOUS, Attribute, Dataset
from preprank.synthetic import mini_corpus, random_dataset
from preprank.transforms import (
    _OPERATORS,
    KIND_ORDER,
    LOCAL_KINDS,
    PRINCIPAL_COMPONENTS,
    TransformError,
    TransformationSpec,
    apply,
    enumerate_applicable,
)
from preprank.tree import ENTROPY, entropies, entropy, grow, mdl_cuts


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
    ds = one_column(np.arange(20.0))
    out = apply(TransformationSpec("discretize_unsup", "local", 0), ds)
    assert out.attributes[0].is_categorical
    assert out.attributes[0].categories == tuple(f"bin{i}" for i in range(10))
    assert list(out.rows[:, 0]) == [float(i // 2) for i in range(20)]


def test_supervised_discretization_perfect_threshold():
    values = [1.0, 2.0, 3.0, 4.0, 10.0, 11.0, 12.0, 13.0]
    labels = [0, 0, 0, 0, 1, 1, 1, 1]
    ds = one_column(values, labels=labels)
    out = apply(TransformationSpec("discretize_sup", "local", 0), ds)
    assert out.attributes[0].categories == ("bin0", "bin1")
    assert list(out.rows[:, 0]) == [0.0] * 4 + [1.0] * 4
    assert mdl_cuts(np.array(values), np.array(labels)).tolist() == [7.0]


def test_mdl_cut_between_values_whose_sum_overflows_is_finite():
    values = np.array([1e308, 1e308, 1.5e308, 1.5e308])
    assert mdl_cuts(values, np.array([0, 0, 1, 1])).tolist() == [1.25e308]


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
        ours = mdl_cuts(values, labels).tolist()
        oracle = _oracle_mdl(list(values), list(labels))
        assert ours == pytest.approx(oracle), f"trial {trial}"


# The scalar cut search that the vectorized per-segment search replaced, kept
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


# The MDL test that the vectorized search now applies to its own cut, kept verbatim
# as the oracle of which cuts the criterion accepts.


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


def _scalar_accepted_cut(v, y, prefix, lo, hi):
    best = _scalar_best_cut(v, y, prefix, lo, hi)
    if best is None or not _mdl_accepts(prefix, lo, best[0], hi, best[1]):
        return None
    return best


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
        best = _scalar_accepted_cut(v, y, prefix, lo, hi)
        if best is None:
            continue
        pos = best[0]
        cuts.append(float((v[pos - 1] + v[pos]) / 2.0))
        stack += [(pos, hi), (lo, pos)]
    return sorted(cuts)


def _assert_same_as_scalar(values, labels):
    """``mdl_cuts`` equals both oracles on the column and on five segments between runs."""
    values, labels = np.asarray(values, dtype=float), np.asarray(labels)
    v, y, _ = _sorted_prefix(values, labels)
    edges = np.concatenate(([0], 1 + np.flatnonzero(v[1:] != v[:-1]), [v.size]))
    rng = np.random.default_rng(values.size)
    segments = [(0, v.size)] + [
        tuple(sorted(rng.choice(edges, size=2, replace=False))) for _ in range(5)
    ]
    for lo, hi in segments:
        assert mdl_cuts(v[lo:hi], y[lo:hi]).tolist() == _scalar_mdl_cuts(v[lo:hi], y[lo:hi])
        _assert_cuts_like_the_oracle(v[lo:hi], y[lo:hi])


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
    assert mdl_cuts(np.full(50, 4.25), labels).size == 0


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


# The MDL search as it stood before it moved into ``tree.mdl_cuts``, kept verbatim as
# an oracle of the cut positions, except that ``_oracle_mdl_cuts`` returns each cut's
# position with its value: a boundary scan per segment, the scalar split choice
# loop and the scalar midpoint.


def _oracle_select(gains):
    best = None
    for i, gain in enumerate(gains):
        if gain > 1e-12 and (best is None or gain > best[0] + 1e-12):
            best = (gain, i)
    return None if best is None else best[1]


def _oracle_midpoint(lo: float, hi: float) -> float:
    """``(lo + hi) / 2`` as a float, halving each first when their sum overflows."""
    lo, hi = float(lo), float(hi)  # Python floats: an overflow gives inf, not a warning
    mid = (lo + hi) / 2.0
    return mid if math.isfinite(mid) else lo / 2.0 + hi / 2.0


def _oracle_mdl_cuts(values: np.ndarray, labels: np.ndarray) -> list[tuple[int, float]]:
    if values.size == 0:
        return []
    order = np.argsort(values, kind="stable")
    v = values[order]
    y = labels[order]
    n_classes = int(labels.max()) + 1 if labels.size else 1
    onehot = np.zeros((v.size, n_classes))
    onehot[np.arange(v.size), y] = 1.0
    prefix = np.vstack([np.zeros(n_classes), np.cumsum(onehot, axis=0)])

    cuts = []
    stack = [(0, v.size)]
    while stack:
        lo, hi = stack.pop()
        best = _oracle_best_cut(v, prefix, lo, hi)
        if best is None:
            continue
        pos, _ = best
        cuts.append((pos, _oracle_midpoint(v[pos - 1], v[pos])))
        stack.append((pos, hi))
        stack.append((lo, pos))
    return sorted(cuts)


def _oracle_best_cut(v, prefix, lo, hi):
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
    h_left, h_right = entropies(left), entropies(right)
    gains = h_all - (left.sum(axis=1) / n) * h_left - (right.sum(axis=1) / n) * h_right
    best = _oracle_select(gains)
    if best is None:
        return None
    # Fayyad and Irani's MDL criterion: the gain must pay for coding the cut
    k, k1, k2 = (int((counts > 0).sum()) for counts in (total, left[best], right[best]))
    delta = math.log2(3**k - 2) - (k * h_all - k1 * h_left[best] - k2 * h_right[best])
    if not gains[best] > (math.log2(n - 1) + delta) / n:
        return None
    return int(pos[best]), gains[best]


def _assert_cuts_like_the_oracle(values, labels):
    """Same cut positions as the oracle; same values unless its midpoint is the lower value."""
    values, labels = np.asarray(values, dtype=float), np.asarray(labels)
    cuts = mdl_cuts(values, labels)
    v = np.sort(values, kind="stable")
    expected = _oracle_mdl_cuts(values, labels)
    assert np.searchsorted(v, cuts).tolist() == [pos for pos, _ in expected]  # cuts: (lo, hi]
    assert cuts.tolist() == [float(v[pos]) if mid <= v[pos - 1] else mid for pos, mid in expected]
    return len(expected)


def _continuous_columns(datasets):
    for ds in datasets:
        for j in ds.predictor_indices:
            if ds.attributes[j].is_continuous:
                present = ~np.isnan(ds.column(j))
                yield ds.column(j)[present], ds.class_labels[present]


def test_mdl_cuts_match_the_oracle_on_the_mini_corpora():
    datasets = [
        version
        for seed in (7, 11)
        for ds in mini_corpus(seed)
        for version in [ds, *(apply(spec, ds) for spec in enumerate_applicable(ds))]
    ]
    found = [_assert_cuts_like_the_oracle(*column) for column in _continuous_columns(datasets)]
    assert len(found) > 1000 and sum(found) > 500


def test_mdl_cuts_match_the_oracle_on_4000_rows():
    datasets = [
        random_dataset(seed, n_rows=4000, n_continuous=10, n_categorical=5, n_classes=3,
                       missing_rate=rate)
        for seed, rate in ((2018, 0.03), (2019, 0.0))
    ]
    found = [_assert_cuts_like_the_oracle(*column) for column in _continuous_columns(datasets)]
    assert len(found) == 20 and sum(found) > 20


#: cells that sort among others, tie as 0.0 and -0.0, or overflow a sum
EDGE_CELLS = (0.0, -0.0, 1e308, -1e308, 1.5e308, -1.5e308, 1.7976931348623157e308, 5e-324)


@st.composite
def mdl_columns(draw):
    """(values, labels): a few distinct cells in runs, with labels mostly following the cell."""
    n_classes = draw(st.sampled_from((2, 3, 8, 12, 20)))
    pool = draw(st.lists(
        st.floats(-1e6, 1e6, allow_subnormal=False) | st.sampled_from(EDGE_CELLS),
        min_size=1, max_size=24,
    ))
    n = draw(st.integers(1, 160))
    cells = draw(st.lists(st.integers(0, len(pool) - 1), min_size=n, max_size=n))
    noise = draw(st.lists(st.integers(0, 3 * n_classes - 1), min_size=n, max_size=n))
    labels = [c % n_classes if e >= n_classes else e for c, e in zip(cells, noise)]
    return np.array([pool[c] for c in cells]), np.array(labels)


@settings(max_examples=300, deadline=None)
@given(mdl_columns())
def test_mdl_cuts_match_the_oracle_on_fuzzed_columns(column):
    _assert_cuts_like_the_oracle(*column)


@pytest.mark.parametrize(
    "lo, hi",
    [(0.3, 0.1 + 0.2), (1.0, float(np.nextafter(1.0, 2.0)))],
    ids=["midpoint-rounds-up", "midpoint-rounds-down"],
)
def test_mdl_bins_a_separable_pair_of_adjacent_doubles_apart(lo, hi):
    assert lo < hi == np.nextafter(lo, 2.0) and (lo + hi) / 2.0 in (lo, hi)
    values, labels = [lo] * 20 + [hi] * 20, [0] * 20 + [1] * 20
    out = apply(TransformationSpec("discretize_sup", "local", 0), one_column(values, labels=labels))
    assert out.attributes[0].categories == ("bin0", "bin1")
    assert out.rows[:, 0].tolist() == labels
    # the cut lies where the tree puts its threshold: at the upper value
    [root] = grow(np.array(values)[:, None], np.array(labels), np.ones(40), 2,
                  [(np.arange(40), np.array([0]))], criterion=ENTROPY)
    assert mdl_cuts(np.array(values), np.array(labels)).tolist() == [root["t"]] == [hi]


@st.composite
def ulp_columns(draw):
    """(values, labels): runs of cells next to their one-ulp neighbours, mostly split at one."""
    base = draw(st.lists(
        st.floats(-1e6, 1e6, allow_subnormal=False) | st.sampled_from((0.3, 1.0, 1e308, -1e308)),
        min_size=1, max_size=5,
    ))
    pool = sorted({v for x in base for v in (x, np.nextafter(x, np.inf), np.nextafter(x, -np.inf))})
    runs = draw(st.lists(st.integers(1, 15), min_size=len(pool), max_size=len(pool)))
    values = np.repeat(pool, runs)
    pivot = draw(st.sampled_from(pool))
    labels = (values >= pivot).astype(int)
    flips = draw(st.lists(st.integers(0, values.size - 1), max_size=3))
    labels[flips] = draw(st.integers(0, 2))
    return values, labels


@settings(max_examples=200, deadline=None)
@given(ulp_columns())
def test_mdl_bins_keep_each_cut_between_the_values_it_separates(column):
    values, labels = column
    out = apply(TransformationSpec("discretize_sup", "local", 0),
                one_column(values, n_classes=3, labels=labels))
    bins, cuts = out.rows[:, 0], mdl_cuts(values, labels)
    assert len(out.attributes[0].categories) == cuts.size + 1
    for cut in cuts:
        below, above = values < cut, values >= cut
        assert below.any() and above.any()
        assert bins[below].max() < bins[above].min(), (cut, values, bins)


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
    out = apply(TransformationSpec("pca", "global"), ds)
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


def _oracle_text(spec):
    """``spec.text`` by its rule from when operators took parameters, copied."""
    params = {"discretize_unsup": (("bins", 10.0),), "pca": (("var", 0.95),)}.get(spec.kind, ())
    parts = []
    if spec.scope == "local":
        parts.append(f"attr={spec.attribute}")
    elif spec.scope == "all":
        parts.append("all")
    elif not params:
        parts.append("global")
    for k, v in params:
        parts.append(f"{k}={int(v) if k == 'bins' else repr(v)}")
    return f"{spec.kind}({','.join(parts)})"


def test_spec_text_matches_oracle_on_mini_corpus(mini_datasets):
    specs = [spec for ds in mini_datasets for spec in enumerate_applicable(ds)]
    assert (len(mini_datasets), len(specs)) == (24, 273)
    for spec in specs:
        assert spec.text == _oracle_text(spec)
    assert {s.kind for s in specs} == set(KIND_ORDER)
    examples = {
        TransformationSpec("discretize_unsup", "local", 3): "discretize_unsup(attr=3,bins=10)",
        TransformationSpec("discretize_unsup", "all"): "discretize_unsup(all,bins=10)",
        TransformationSpec("pca", "global"): "pca(var=0.95)",
        TransformationSpec("normalize", "global"): "normalize(global)",
    }
    for spec, text in examples.items():
        assert spec.text == _oracle_text(spec) == text


@settings(max_examples=40, deadline=None)
@given(
    st.integers(0, 10_000),
    st.integers(0, 3),
    st.integers(0, 3),
    st.sampled_from([0.05, 0.2, 0.5]),
)
def test_spec_text_matches_oracle_on_fuzzed_datasets(seed, n_continuous, n_categorical, rate):
    ds = random_dataset(
        seed,
        n_rows=20,
        n_continuous=n_continuous or (n_categorical == 0),
        n_categorical=n_categorical,
        missing_rate=rate,
    )
    for spec in enumerate_applicable(ds):
        assert spec.text == _oracle_text(spec)


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
        cuts = mdl_cuts(col[present], labels[present]).tolist()
        out = np.array(col)
        if cuts:  # a value at a cut goes above it, as the tree sends it right
            out[present] = np.searchsorted(np.asarray(cuts), col[present], side="right")
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
        ds, targets, 10
    ),
    "discretize_sup": lambda ds, targets, spec: _old_discretize_mdl(ds, targets),
    "nom2bin_unsup": lambda ds, targets, spec: _old_nominal_to_binary_plain(ds, targets),
    "nom2bin_sup": lambda ds, targets, spec: _old_nominal_to_binary_ordered(ds, targets),
    "impute_cont": lambda ds, targets, spec: _old_impute_mean(ds, targets),
    "impute_cat": lambda ds, targets, spec: _old_impute_mode(ds, targets),
    "pca": lambda ds, targets, spec: _old_principal_components(ds, targets, 0.95),
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
    assert KIND_ORDER == tuple(_OPERATORS)
    assert [kind for kind in KIND_ORDER if _OPERATORS[kind].rewrite is None] == [
        PRINCIPAL_COMPONENTS
    ]
    assert LOCAL_KINDS == {"discretize_sup", "discretize_unsup", "nom2bin_unsup"}


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


# --- rewrites shared across a catalog -------------------------------------------


def _counting_mdl_cuts(monkeypatch):
    """Patch the MDL search that ``transforms`` calls to count its calls."""
    calls = Counter()

    def counted(values, labels):
        calls["mdl_cuts"] += 1
        return mdl_cuts(values, labels)

    monkeypatch.setattr(transforms_mod, "mdl_cuts", counted)
    return calls


def _assert_shared_catalog_equals_applies(ds, specs):
    """Versions made in ``specs`` order with one shared dict equal separate applies; the dict."""
    shared = {}
    versions = [apply(spec, ds, shared) for spec in specs]
    for spec, ours in zip(specs, versions):
        alone = apply(spec, ds)
        assert (ours.attributes, ours.class_index) == (alone.attributes, alone.class_index)
        assert ours.rows.tobytes() == alone.rows.tobytes(), spec.text
    return shared


SHARED_CATALOG_DATASET = dict(
    seed=2018, n_rows=300, n_continuous=10, n_categorical=5, n_classes=3, missing_rate=0.03
)


def test_shared_rewrites_search_each_column_once_per_catalog(monkeypatch):
    datasets = [*mini_corpus(7), random_dataset(**SHARED_CATALOG_DATASET)]
    calls = _counting_mdl_cuts(monkeypatch)
    for ds in datasets:
        shared = {}
        for spec in enumerate_applicable(ds):
            apply(spec, ds, shared)
        assert shared == {}, ds.name  # every local kind ends with its all-scope version
    # 111 searches with a catalog's versions made apart
    assert calls["mdl_cuts"] == sum(len(ds.continuous_predictors) for ds in datasets) == 58 + 10


def test_shared_rewrites_equal_separate_applies():
    for ds in [*mini_corpus(7), random_dataset(**SHARED_CATALOG_DATASET)]:
        assert _assert_shared_catalog_equals_applies(ds, enumerate_applicable(ds)) == {}


def test_pruned_catalog_all_scope_version_rewrites_the_dropped_targets(monkeypatch):
    ds = random_dataset(**SHARED_CATALOG_DATASET)
    kept = [  # discretize_sup(all) with every other of its attr=j specs
        spec for spec in enumerate_applicable(ds)
        if spec.kind != "discretize_sup" or spec.scope == "all" or spec.attribute % 2
    ]
    assert [s.scope for s in kept if s.kind == "discretize_sup"] == ["local"] * 5 + ["all"]
    calls = _counting_mdl_cuts(monkeypatch)
    assert _assert_shared_catalog_equals_applies(ds, kept) == {}
    assert calls["mdl_cuts"] == 10 + 5 + 10  # once per column shared, then apart: attr=j, all


def test_shared_rewrites_of_another_dataset_are_refused():
    ds, other = (random_dataset(**{**SHARED_CATALOG_DATASET, "seed": s}) for s in (1, 2))
    shared = {}
    apply(TransformationSpec("discretize_unsup", "local", ds.continuous_predictors[0]), ds, shared)
    assert len(shared) == 1
    with pytest.raises(ValueError, match="another dataset"):
        apply(TransformationSpec("discretize_unsup", "all"), other, shared)
