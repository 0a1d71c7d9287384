"""The shared tree core against the two tree learners and the rule it replaced.

The functions under "oracles" are the base tree (information gain, multiway
categorical splits) and the meta-forest tree (weighted Gini) as they were
before both moved onto ``preprank.tree``, and the one-column threshold search
the shared grower ran before it searched all columns of a node at once, kept
verbatim.  Scores, forests and split choices must match them bit for bit.
"""

import math
import sys
from collections import Counter

import numpy as np
import pytest
from conftest import make_rule_metadb

from preprank import tree
from preprank.classifiers import TREE, fit_predict
from preprank.dataset import Attribute, Dataset
from preprank.forest import MIN_NODE_SIZE, train_forest
from preprank.metadb import RESPONSE_CLASSES, feature_matrix
from preprank.synthetic import random_dataset

# --- oracles: the base tree ------------------------------------------------------


def _entropy_from_counts(counts: np.ndarray) -> float:
    total = counts.sum()
    if total == 0:
        return 0.0
    p = counts[counts > 0] / total
    return float(-(p * np.log2(p)).sum())


def _class_distribution(y: np.ndarray, n_classes: int) -> np.ndarray:
    counts = np.bincount(y, minlength=n_classes).astype(float)
    return counts / counts.sum()


def _tree_fit(train: Dataset, min_leaf: int = 2):
    x = train.rows
    y = train.class_labels
    n_classes = len(train.class_attribute.categories)
    predictors = [
        (j, train.attributes[j].is_continuous) for j in train.predictor_indices
    ]
    cat_sizes = {
        j: len(train.attributes[j].categories) for j in train.categorical_predictors
    }

    root: dict = {}
    stack = [(root, np.arange(train.n_rows))]  # explicit, so depth is unbounded
    while stack:
        node, idx = stack.pop()
        labels = y[idx]
        node["dist"] = _class_distribution(labels, n_classes)
        counts = np.bincount(labels, minlength=n_classes)
        h_node = _entropy_from_counts(counts)
        if h_node == 0.0:
            continue
        best = None  # (gain, j, payload)
        for j, is_cont in predictors:
            col = x[idx, j]
            present = ~np.isnan(col)
            if present.sum() < 2 * min_leaf:
                continue
            pid = idx[present]
            vals = col[present]
            if is_cont:
                cand = _best_numeric_split(vals, y[pid], n_classes, min_leaf)
                if cand is None:
                    continue
                gain, threshold = cand
                if best is None or gain > best[0] + 1e-12:
                    best = (gain, j, ("num", threshold))
            else:
                cand = _categorical_split(vals.astype(int), y[pid], n_classes, min_leaf)
                if cand is None:
                    continue
                if best is None or cand > best[0] + 1e-12:
                    best = (cand, j, ("cat", cat_sizes[j]))
        if best is None:
            continue
        gain, j, payload = best
        col = x[idx, j]
        missing = np.isnan(col)
        if payload[0] == "num":
            threshold = payload[1]
            left_mask = ~missing & (col < threshold)
            right_mask = ~missing & ~left_mask
            default_left = left_mask.sum() >= right_mask.sum()
            if missing.any():
                if default_left:
                    left_mask |= missing
                else:
                    right_mask |= missing
            left, right = {}, {}
            node.update(
                attr=j,
                threshold=threshold,
                default_left=bool(default_left),
                left=left,
                right=right,
            )
            stack += [(left, idx[left_mask]), (right, idx[right_mask])]
        else:
            groups = {}
            for cat in np.unique(col[~missing]).astype(int):
                groups[int(cat)] = idx[~missing & (col == cat)]
            if missing.any():
                largest = max(groups, key=lambda c: (len(groups[c]), -c))
                groups[largest] = np.concatenate([groups[largest], idx[missing]])
            children = {c: {} for c in sorted(groups)}
            node.update(attr=j, children=children)
            stack += [(children[c], groups[c]) for c in children]
    return root


def _xlog2(x: np.ndarray) -> np.ndarray:
    safe = np.where(x > 0, x, 1.0)
    return x * np.log2(safe)


def _best_numeric_split(vals, labels, n_classes, min_leaf):
    order = np.argsort(vals, kind="stable")
    v = vals[order]
    lab = labels[order]
    n = v.size
    onehot = np.zeros((n, n_classes))
    onehot[np.arange(n), lab] = 1.0
    prefix = np.cumsum(onehot, axis=0)
    total = prefix[-1]
    h_all = _entropy_from_counts(total)
    # weighted child entropies for every split position, from count identities
    left = prefix[:-1]
    right = total - left
    wl = np.arange(1, n, dtype=float)
    wr = n - wl
    children = (
        _xlog2(wl) - _xlog2(left).sum(axis=1) + _xlog2(wr) - _xlog2(right).sum(axis=1)
    ) / n
    gains = h_all - children
    valid = (v[1:] != v[:-1]) & (wl >= min_leaf) & (wr >= min_leaf)
    best = None
    for i in np.flatnonzero(valid):
        gain = gains[i]
        if gain > 1e-12 and (best is None or gain > best[0] + 1e-12):
            threshold = float((v[i] + v[i + 1]) / 2.0)
            if threshold <= v[i]:  # midpoint of adjacent floats can round down
                threshold = float(v[i + 1])
            best = (float(gain), threshold)
    return best


def _categorical_split(vals, labels, n_classes, min_leaf):
    cats, inverse = np.unique(vals, return_inverse=True)
    if cats.size < 2:
        return None
    counts = np.zeros((cats.size, n_classes))
    np.add.at(counts, (inverse, labels), 1.0)
    sizes = counts.sum(axis=1)
    if (sizes < min_leaf).any():
        return None
    total = counts.sum(axis=0)
    n = total.sum()
    h_all = _entropy_from_counts(total)
    children = sum(
        (sizes[c] / n) * _entropy_from_counts(counts[c]) for c in range(cats.size)
    )
    gain = h_all - children
    return gain if gain > 1e-12 else None


def _tree_predict_row(node, row):
    while "attr" in node:
        value = row[node["attr"]]
        if "children" in node:
            if math.isnan(value) or int(value) not in node["children"]:
                # unseen or missing category: answer with this node's distribution
                return node["dist"]
            node = node["children"][int(value)]
        else:
            if math.isnan(value):
                node = node["left"] if node["default_left"] else node["right"]
            elif value < node["threshold"]:
                node = node["left"]
            else:
                node = node["right"]
    return node["dist"]


# --- oracles: the meta-forest tree ------------------------------------------------


def _gini(weighted_counts: np.ndarray) -> float:
    total = weighted_counts.sum()
    if total <= 0:
        return 0.0
    p = weighted_counts / total
    return float(1.0 - (p * p).sum())


def _leaf(y: np.ndarray, w: np.ndarray, n_classes: int) -> dict:
    counts = np.zeros(n_classes)
    np.add.at(counts, y, w)
    return {"p": (counts / counts.sum()).tolist()}


def _best_weighted_split(values, y, w, n_classes):
    """Best (gain, threshold) over midpoints of adjacent distinct values."""
    order = np.argsort(values, kind="stable")
    v = values[order]
    lab = y[order]
    wt = w[order]
    n = v.size
    contrib = np.zeros((n, n_classes))
    contrib[np.arange(n), lab] = wt
    prefix = np.cumsum(contrib, axis=0)
    total = prefix[-1]
    w_total = total.sum()
    h_all = _gini(total)
    if h_all == 0.0:
        return None
    # weighted child impurities for every split position at once
    left = prefix[:-1]
    right = total - left
    wl = left.sum(axis=1)
    wr = right.sum(axis=1)
    children = (
        wl - (left * left).sum(axis=1) / np.maximum(wl, 1e-300)
    ) / w_total + (wr - (right * right).sum(axis=1) / np.maximum(wr, 1e-300)) / w_total
    gains = h_all - children
    valid = (v[1:] != v[:-1]) & (wl > 0) & (wr > 0)
    best = None
    for i in np.flatnonzero(valid):
        gain = gains[i]
        if gain > 1e-12 and (best is None or gain > best[0] + 1e-12):
            threshold = float((v[i] + v[i + 1]) / 2.0)
            if threshold <= v[i]:  # midpoint of adjacent floats can round down
                threshold = float(v[i + 1])
            best = (float(gain), threshold)
    return best


def _grow_tree(x, y, w, rng, n_candidates, n_classes):
    def build(idx):
        labels = y[idx]
        node = _leaf(labels, w[idx], n_classes)
        if idx.size < MIN_NODE_SIZE or np.all(labels == labels[0]):
            return node
        features = rng.choice(x.shape[1], size=n_candidates, replace=False)
        best = None  # (gain, feature, threshold)
        for f in np.sort(features):
            col = x[idx, f]
            present = ~np.isnan(col)
            if present.sum() < 2:
                continue
            cand = _best_weighted_split(
                col[present], labels[present], w[idx][present], n_classes
            )
            if cand is None:
                continue
            gain, threshold = cand
            if best is None or gain > best[0] + 1e-12:
                best = (gain, int(f), threshold)
        if best is None:
            return node
        _, f, threshold = best
        col = x[idx, f]
        missing = np.isnan(col)
        left_mask = ~missing & (col < threshold)
        right_mask = ~missing & ~left_mask
        default_left = w[idx][left_mask].sum() >= w[idx][right_mask].sum()
        if missing.any():
            if default_left:
                left_mask |= missing
            else:
                right_mask |= missing
        node = {
            "f": f,
            "t": threshold,
            "d": 0 if default_left else 1,
            "l": build(idx[left_mask]),
            "r": build(idx[right_mask]),
        }
        return node

    return build(np.arange(x.shape[0]))


def _tree_vote(node: dict, row: np.ndarray) -> int:
    while "f" in node:
        value = row[node["f"]]
        if math.isnan(value):
            node = node["l"] if node["d"] == 0 else node["r"]
        elif value < node["t"]:
            node = node["l"]
        else:
            node = node["r"]
    return int(np.argmax(node["p"]))  # ties resolve in class order


def _scalar_select(gains):
    """The split-choice loop both trees ran over split positions and features."""
    best = None
    for i, gain in enumerate(gains):
        if gain > 1e-12 and (best is None or gain > best[0] + 1e-12):
            best = (gain, i)
    return None if best is None else best[1]


# --- oracles: the one-column threshold search ---------------------------------------


def _oracle_entropy_children(left, right, wl, wr, total):
    # from count identities, so no per-position entropy call
    return (
        _xlog2(wl) - _xlog2(left).sum(axis=1) + _xlog2(wr) - _xlog2(right).sum(axis=1)
    ) / total


def _oracle_gini_children(left, right, wl, wr, total):
    return (wl - (left * left).sum(axis=1) / np.maximum(wl, 1e-300)) / total + (
        wr - (right * right).sum(axis=1) / np.maximum(wr, 1e-300)
    ) / total


_ORACLE_CRITERIA = {
    "entropy": tree.Criterion(_entropy_from_counts, _oracle_entropy_children),
    "gini": tree.Criterion(_gini, _oracle_gini_children),
}


# verbatim, except that the split choice rule ``select`` is passed in so a test can count ties
def _oracle_best_threshold(values, labels, weights, n_classes, min_leaf, criterion, select):
    """(gain, threshold) of the best binary cut of a numeric column, or None.

    Cuts lie between adjacent distinct sorted values and leave at least
    ``min_leaf`` rows on each side; the threshold is the midpoint of the two
    values, or the upper one when the midpoint rounds down onto the lower.
    """
    order = np.argsort(values, kind="stable")
    v = values[order]
    n = v.size
    contrib = np.zeros((n, n_classes))
    contrib[np.arange(n), labels[order]] = weights[order]
    prefix = np.cumsum(contrib, axis=0)
    total = prefix[-1]
    h_all = criterion.impurity(total)
    if h_all == 0.0:
        return None
    left = prefix[:-1]
    right = total - left
    gains = h_all - criterion.children(
        left, right, left.sum(axis=1), right.sum(axis=1), total.sum()
    )
    # a cut after sorted position i leaves i + 1 rows on the left
    first, stop = min_leaf - 1, n - min_leaf
    cuts = first + np.flatnonzero(v[first + 1 : stop + 1] != v[first:stop])
    k = select(gains[cuts])
    if k is None:
        return None
    i = cuts[k]
    threshold = float((v[i] + v[i + 1]) / 2.0)
    if threshold <= v[i]:
        threshold = float(v[i + 1])
    return float(gains[i]), threshold


def _oracle_node_split(block, labels, weights, n_classes, min_leaf, criterion, select):
    """(column, gain, threshold) the grower's column-at-a-time loop took, or None."""
    found = []  # (gain, threshold, column)
    for j, col in enumerate(block):
        present = ~np.isnan(col)
        if np.count_nonzero(present) < 2 * min_leaf:
            continue
        cand = _oracle_best_threshold(
            col[present], labels[present], weights[present], n_classes, min_leaf, criterion,
            select,
        )
        if cand is not None:
            found.append((*cand, j))
    k = select(np.array([gain for gain, _, _ in found]))
    return None if k is None else (found[k][2], found[k][0], found[k][1])


# --- the base tree ------------------------------------------------------------------


def _tree_scores(train, test):
    return np.vstack([s for _, s in fit_predict(TREE, train, test, 0)])


def _oracle_scores(train, test):
    root = _tree_fit(train)
    return np.vstack([_tree_predict_row(root, row) for row in test.rows])


def _assert_tree_matches(ds):
    idx = np.arange(ds.n_rows)
    for train, test in (
        (ds.subset(idx[idx % 3 != 0]), ds.subset(idx[idx % 3 == 0])),
        (ds, ds),
    ):
        assert np.array_equal(_tree_scores(train, test), _oracle_scores(train, test))


def _dataset(columns, labels, categorical=()):
    """Predictors from ``columns`` (categories 0..3 where ``categorical``), then a class."""
    attrs = [
        Attribute(f"g{j}", "categorical", ("a", "b", "c", "d"))
        if j in categorical
        else Attribute(f"x{j}", "continuous")
        for j in range(len(columns))
    ]
    n_classes = int(max(labels)) + 1
    attrs.append(Attribute("class", "categorical", tuple(f"c{i}" for i in range(n_classes))))
    rows = np.column_stack([*columns, labels]).astype(float)
    return Dataset("t", tuple(attrs), len(attrs) - 1, rows)


@pytest.mark.parametrize("seed", range(6))
def test_base_tree_matches_oracle_on_tie_heavy_columns(seed):
    # few distinct values, periodic labels and duplicated columns make
    # split positions and whole features tie exactly or to within 1e-12
    rng = np.random.default_rng(seed)
    n = int(rng.integers(40, 300))
    labels = np.tile(rng.permutation(3)[: int(rng.integers(2, 4))], n)[:n]
    coarse = rng.integers(0, 4, size=n).astype(float)
    columns = [coarse, coarse.copy(), np.arange(n) // 7, (np.arange(n) % 5) * 1e-9]
    columns.append(rng.integers(0, 4, size=n))
    _assert_tree_matches(_dataset(columns, labels, categorical=(4,)))


@pytest.mark.parametrize("seed", range(6))
def test_base_tree_matches_oracle_with_missing_cells(seed):
    ds = random_dataset(
        seed, n_rows=120 + 60 * seed, n_continuous=3, n_categorical=2,
        n_classes=2 + seed % 3, missing_rate=0.05 + 0.05 * seed,
    )
    _assert_tree_matches(ds)


def test_base_tree_matches_oracle_on_unseen_and_missing_test_categories():
    rng = np.random.default_rng(4)
    n = 200
    labels = rng.integers(0, 3, size=n)
    cats = np.where(rng.random(n) < 0.7, labels, rng.integers(0, 3, size=n)).astype(float)
    other = rng.normal(size=n) + labels
    ds = _dataset([cats, other], labels, categorical=(0,))
    train_idx = np.flatnonzero(ds.rows[:, 0] != 2)  # category "c" never seen in training
    test_rows = np.array(ds.rows[:40])
    test_rows[::3, 0] = 3.0  # category "d" is in no row at all
    test_rows[1::3, 0] = np.nan
    test = Dataset(ds.name, ds.attributes, ds.class_index, test_rows)
    train = ds.subset(train_idx)
    assert np.array_equal(_tree_scores(train, test), _oracle_scores(train, test))
    assert np.array_equal(_tree_scores(train, ds), _oracle_scores(train, ds))


def test_base_tree_matches_oracle_on_mini_corpus(mini_datasets):
    for ds in mini_datasets:
        _assert_tree_matches(ds)


# --- the meta-forest tree ----------------------------------------------------------------


def _oracle_forest_trees(db, n_trees, seed):
    """The per-tree loop of ``train_forest`` around the recursive oracle grower."""
    x, y, w = feature_matrix(db)
    n_rows, n_features = x.shape
    n_candidates = min(n_features, math.ceil(math.sqrt(n_features)))
    prob = w / w.sum()
    trees = []
    for tree_seed in np.random.SeedSequence(seed).spawn(n_trees):
        rng = np.random.default_rng(tree_seed)
        sample = rng.choice(n_rows, size=n_rows, replace=True, p=prob)
        trees.append(
            _grow_tree(x[sample], y[sample], w[sample], rng, n_candidates, len(RESPONSE_CLASSES))
        )
    return tuple(trees)


@pytest.mark.parametrize("seed", [0, 7, 42])
def test_forest_matches_oracle_on_rule_metadb(seed):
    db = make_rule_metadb(n_datasets=8, seed=seed)
    assert train_forest(db, 10, seed=seed).trees == _oracle_forest_trees(db, 10, seed)


@pytest.mark.parametrize("seed", [3, 7])
def test_forest_matches_oracle_on_mini_metadb(tree_metadb, seed):
    # the mini meta-database has NOT_APPLICABLE cells, so default branches are taken
    model = train_forest(tree_metadb, 8, seed=seed)
    assert model.trees == _oracle_forest_trees(tree_metadb, 8, seed)
    x, _, _ = feature_matrix(tree_metadb)
    for root in model.trees:
        for row in x[::5]:
            assert np.argmax(tree.leaf(root, row)["p"]) == _tree_vote(root, row)


@pytest.mark.parametrize("seed", range(4))
def test_gini_grower_matches_oracle_on_ties_and_missing_values(seed):
    rng = np.random.default_rng(seed)
    n, d = 300, 6
    x = np.round(rng.normal(size=(n, d)), 1)
    x[:, 1] = x[:, 0]  # an exact copy ties every gain of column 0
    x[rng.random((n, d)) < 0.15] = np.nan
    y = np.where(rng.random(n) < 0.6, (x[:, 0] > 0).astype(int), rng.integers(0, 3, size=n))
    w = 1.0 / rng.integers(1, 12, size=n)
    ours_rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)

    def draw():
        return np.sort(ours_rng.choice(d, size=3, replace=False))

    ours = tree.grow(x, y, w, 3, draw, min_node=MIN_NODE_SIZE, criterion=tree.GINI)
    assert ours == _grow_tree(x, y, w, oracle_rng, 3, 3)


@pytest.mark.parametrize(
    "labels", [(np.arange(6000) // 2) % 2, (np.arange(6000) % 3 == 0).astype(int)]
)
def test_deep_gini_tree_grows_without_recursion_limit(labels):
    # thousands of levels deep; the recursive grower raised RecursionError here
    n = labels.size
    x = np.arange(n, dtype=float)[:, None]
    rng = np.random.default_rng(0)
    root = tree.grow(
        x, labels, np.ones(n), 3, lambda: rng.choice(1, size=1, replace=False),
        min_node=MIN_NODE_SIZE, criterion=tree.GINI,
    )
    depth, stack = 0, [(root, 0)]
    while stack:
        node, level = stack.pop()
        depth = max(depth, level)
        if "l" in node:
            stack += [(node["l"], level + 1), (node["r"], level + 1)]
    assert depth > sys.getrecursionlimit()
    hits = sum(np.argmax(tree.leaf(root, row)["p"]) == c for row, c in zip(x, labels))
    assert hits >= 0.999 * n


# --- the split choice rule -----------------------------------------------------------------


def test_select_matches_scalar_loop_on_fuzzed_gains():
    rng = np.random.default_rng(0)
    near_ties = 0
    for trial in range(20000):
        size = int(rng.integers(0, 25))
        kind = trial % 4
        if kind == 0:  # plain random gains, some negative
            gains = rng.normal(0.2, 0.3, size=size)
        elif kind == 1:  # a few levels with offsets of about the 1e-12 margin
            gains = rng.choice([0.0, 0.1, 0.3], size=size) + rng.integers(-3, 4, size=size) * 5e-13
        elif kind == 2:  # values around the margin itself
            gains = rng.integers(-2, 5, size=size) * 5e-13
        else:  # exact repeats of a few values
            gains = rng.choice(rng.random(3), size=size)
        if size and np.count_nonzero(gains + 1e-12 >= gains.max()) > 1:
            near_ties += 1
        assert tree.select(gains) == _scalar_select(gains), gains
    assert near_ties > 5000  # the replay path is exercised, not just the fast one


# --- the batched node search ---------------------------------------------------------------


def _node_split(block, labels, weights, n_classes, min_leaf, criterion):
    """(column, gain, threshold) of the batched search, as ``grow`` takes it."""
    onehot = np.zeros((labels.size, n_classes))
    onehot[np.arange(labels.size), labels] = weights
    gains, lo, hi = tree._best_cuts(block, onehot, min_leaf, criterion)
    k = tree.select(gains)
    if k is None:
        return None
    return k, gains[k], tree._threshold(lo[k], hi[k])


def _fuzzed_node(rng, n_classes, min_leaf):
    """A node block that is tie-heavy within and across columns, with sparse columns."""
    n = int(rng.integers(2, 60))
    n_cols = int(rng.integers(1, 13))
    period = rng.permutation(n_classes)[: int(rng.integers(2, n_classes + 1))]
    labels = np.tile(period, n)[:n] if rng.random() < 0.5 else rng.integers(0, n_classes, size=n)
    if np.all(labels == labels[0]):
        labels[-1] = (labels[0] + 1) % n_classes  # a node the grower would search
    weights = np.ones(n) if rng.random() < 0.3 else 1.0 / rng.integers(1, 12, size=n)
    block = np.empty((n_cols, n))
    for j in range(n_cols):
        kind = rng.integers(0, 7)
        if kind == 0 and j:  # an exact copy ties every gain of an earlier column
            block[j] = block[rng.integers(0, j)]
        elif kind == 1:  # few distinct values: ties within the column
            block[j] = rng.integers(0, 3, size=n)
        elif kind == 2:  # all missing
            block[j] = np.nan
        elif kind == 3:  # fewer present values than two minimum leaves
            block[j] = np.nan
            keep = rng.choice(n, size=min(n, int(rng.integers(0, 2 * min_leaf))), replace=False)
            block[j, keep] = rng.normal(size=keep.size)
        elif kind == 4:  # runs in row order: periodic labels tie cuts within the column
            block[j] = np.arange(n) // int(rng.integers(1, 4))
        else:
            block[j] = np.round(rng.normal(size=n), 1)
            block[j, rng.random(n) < 0.2] = np.nan
    return block, labels, weights


def test_batched_node_search_matches_column_at_a_time_oracle():
    rng = np.random.default_rng(0)
    near_ties: Counter = Counter()
    for trial in range(3000):
        name = ("entropy", "gini")[trial % 2]
        n_classes = (3, 9)[trial // 2 % 2]
        min_leaf = 1 + trial // 4 % 2
        block, labels, weights = _fuzzed_node(rng, n_classes, min_leaf)
        near = []  # per call of the rule: the columns' cut choices, then the node's

        def counting_select(gains):
            top = gains.max(initial=0.0)
            near.append(top > 1e-12 and np.count_nonzero(gains + 1e-12 >= top) > 1)
            return _scalar_select(gains)

        expected = _oracle_node_split(
            block, labels, weights, n_classes, min_leaf, _ORACLE_CRITERIA[name], counting_select
        )
        criterion = getattr(tree, name.upper())
        ours = _node_split(block, labels, weights, n_classes, min_leaf, criterion)
        assert ours == expected, (trial, ours, expected)
        near_ties["column"] += sum(near[:-1])
        near_ties["node"] += near[-1]
    # both scans of the split choice rule meet near-ties, not only the fast path
    assert near_ties["column"] > 300 and near_ties["node"] > 300, near_ties


@pytest.mark.parametrize("n_classes", [3, 9])
def test_batched_node_search_matches_oracle_on_nodes_searched_in_several_batches(n_classes):
    # 2500 rows of 3 or 9 classes put 2 columns or 1 in a batch of tree._BATCH_CELLS
    rng = np.random.default_rng(n_classes)
    n = 2500
    labels = rng.integers(0, n_classes, size=n)
    weights = 1.0 / rng.integers(1, 12, size=n)
    block = np.round(rng.normal(size=(7, n)) + labels / n_classes, 1)
    block[3] = block[1]  # ties the best column across batches
    block[rng.random(block.shape) < 0.1] = np.nan
    block[5] = np.nan
    assert block.size * n_classes > 2 * tree._BATCH_CELLS  # three batches or more
    for name in ("entropy", "gini"):
        for min_leaf in (1, 2):
            ours = _node_split(
                block, labels, weights, n_classes, min_leaf, getattr(tree, name.upper())
            )
            assert ours is not None
            assert ours == _oracle_node_split(
                block, labels, weights, n_classes, min_leaf, _ORACLE_CRITERIA[name],
                _scalar_select,
            )


def test_row_impurities_match_scalar_oracles_bit_for_bit():
    rng = np.random.default_rng(1)
    for trial in range(2000):
        n_classes = int(rng.integers(1, 13))
        counts = rng.integers(0, 5, size=(int(rng.integers(1, 8)), n_classes)).astype(float)
        if trial % 2:
            counts *= 1.0 / rng.integers(1, 12, size=counts.shape)
        counts[counts.sum(axis=1) == 0, 0] = 1.0  # rows are nonzero
        assert np.array_equal(tree.entropies(counts), [_entropy_from_counts(r) for r in counts])
        assert np.array_equal(tree.ginis(counts), [_gini(r) for r in counts])


@pytest.mark.parametrize("name", ["entropy", "gini"])
def test_growth_raises_no_floating_point_warning_on_sparse_columns(name):
    rng = np.random.default_rng(5)
    n = 40
    x = np.column_stack([
        np.full(n, np.nan),  # all missing
        np.where(np.arange(n) == 7, 1.5, np.nan),  # one present value
        np.round(rng.normal(size=n), 1),
        rng.integers(0, 3, size=n).astype(float),
    ])
    x[rng.random(n) < 0.2, 2] = np.nan
    y = rng.integers(0, 3, size=n)
    w = 1.0 / rng.integers(1, 5, size=n)
    criterion = getattr(tree, name.upper())
    with np.errstate(all="raise"):
        root = tree.grow(
            x, y, w, 3, lambda: range(4), criterion=criterion, categorical={3}, min_leaf=2
        )
    assert "f" in root and root["f"] in (2, 3)
