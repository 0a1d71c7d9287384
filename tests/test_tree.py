"""The shared tree core against the two tree learners and the rule it replaced.

The functions under "oracles" are the base tree (information gain, multiway
categorical splits) and the meta-forest tree (weighted Gini) as they were
before both moved onto ``preprank.tree``, the one-column threshold search
the shared grower ran before it searched all columns of a node at once, and
the one-tree grower from before trees grew in lockstep, kept verbatim.
Scores, forests, trees and split choices must match them bit for bit.
"""

import math
import sys
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from conftest import make_rule_metadb

from preprank import classifiers, tree
from preprank.classifiers import TREE, fit_predict
from preprank.dataset import Attribute, Dataset, stratified_folds
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


# --- oracles: the one-tree grower ----------------------------------------------------
#
# verbatim as ``tree.grow`` and its node search were before trees grew in lockstep,
# with the names of the unchanged helpers qualified


def _oracle_best_cuts(values, onehot, min_leaf, criterion):
    """Best binary cut of every column of a node, all columns at once.

    ``values`` holds the node's numeric candidate columns as rows and
    ``onehot`` each node row's weight in the column of its class.  A column's
    cuts lie between adjacent distinct sorted present values and leave at
    least ``min_leaf`` rows on each side, and :func:`select` picks among them
    in sorted order.  Returns per column the gain of its cut (-inf when it
    has none) and the two adjacent sorted values the cut lies between.
    """
    n_cols, n = values.shape
    step = max(1, tree._BATCH_CELLS // onehot.size)
    if n_cols > step:  # so a batch's arrays stay near 128 KB each
        batches = [
            _oracle_best_cuts(values[i : i + step], onehot, min_leaf, criterion)
            for i in range(0, n_cols, step)
        ]
        return tuple(np.concatenate(parts) for parts in zip(*batches))
    order = np.argsort(values, axis=1, kind="stable")  # NaN sorts last
    rows = np.arange(n_cols)
    v = values[rows[:, None], order]
    sides = np.empty((2, n_cols, n, onehot.shape[1]))  # class weights left and right of each cut
    prefix = np.take(onehot, order, axis=0, out=sides[0])
    # a cut after sorted position i leaves i + 1 rows on the left
    first, stop = min_leaf - 1, n - min_leaf
    if np.isnan(v[:, -1]).any():
        missing = np.isnan(v)
        present = n - missing.sum(axis=1)
        stop = (present - min_leaf)[:, None]
        # a column too sparse to cut keeps its missing rows, so its totals are not all 0
        missing[present < 2 * min_leaf] = False
        prefix[missing] = 0.0  # a missing row moves no prefix
    np.cumsum(prefix, axis=1, out=prefix)
    total = prefix[:, -1]
    np.subtract(total[:, None], prefix, out=sides[1])
    h_all = criterion.impurity(total)
    split_gains = h_all[:, None] - criterion.children(
        sides[:, :, :-1], total.sum(axis=1)[:, None]
    )
    valid = v[:, 1:] != v[:, :-1]
    valid[:, :first] = False
    valid &= np.arange(n - 1) < stop
    valid[h_all == 0.0] = False
    split_gains = np.where(valid, split_gains, -np.inf)
    top = split_gains.argmax(axis=1)
    best = split_gains.max(axis=1)
    near = (split_gains + tree._MARGIN >= best[:, None]).sum(axis=1) > 1
    for j in np.flatnonzero(near & (best > tree._MARGIN)):  # replay the scan on near-ties
        cuts = np.flatnonzero(valid[j])
        top[j] = cuts[tree.select(split_gains[j, cuts])]
        best[j] = split_gains[j, top[j]]
    return np.where(best > tree._MARGIN, best, -np.inf), v[rows, top], v[rows, top + 1]


def _oracle_categorical_split(values, labels, weights, n_classes, min_leaf, criterion):
    """Gain of one child per category, or None if a child is too small."""
    cats, inverse = np.unique(values, return_inverse=True)
    if cats.size < 2 or (np.bincount(inverse) < min_leaf).any():
        return None
    counts = np.zeros((cats.size, n_classes))
    np.add.at(counts, (inverse, labels), weights)
    sizes = counts.sum(axis=1)
    total = counts.sum(axis=0)
    n = total.sum()
    impurity = criterion.impurity(np.vstack([counts, total]))  # the node's is last
    children = sum((sizes[c] / n) * impurity[c] for c in range(cats.size))
    return impurity[-1] - children


def _oracle_grow(
    x, y, w, n_classes, features, *, criterion, categorical=(), min_leaf=1, min_node=1
) -> dict:
    """One tree over the rows of ``x`` with labels ``y`` and positive weights ``w``.

    A node with fewer than ``min_node`` rows or a single class is a leaf.
    Otherwise ``features()`` gives its candidate columns in scan order, and
    each column's best split (one child per category for ``categorical``
    columns) competes under :func:`select`.  Nodes expand depth-first, left
    child first, so a ``features`` that draws at random draws in pre-order.
    """
    is_categorical = np.zeros(x.shape[1], dtype=bool)
    is_categorical[list(categorical)] = True
    onehot = np.zeros((x.shape[0], n_classes))  # each row's weight in its class's column
    onehot[np.arange(x.shape[0]), y] = w
    root: dict = {}
    stack = [(root, np.arange(x.shape[0]))]
    while stack:
        node, idx = stack.pop()
        labels, weights = y[idx], w[idx]
        counts = np.bincount(labels, weights=weights, minlength=n_classes)
        dist = (counts / counts.sum()).tolist()
        k = None
        if idx.size >= min_node and not np.all(labels == labels[0]):
            feats = np.asarray(features(), dtype=np.intp)
            cat = is_categorical[feats]
            gains = np.full(feats.size, -np.inf)
            if not cat.all():
                gains[~cat], lo, hi = _oracle_best_cuts(
                    x.T[feats[~cat, None], idx], onehot[idx], min_leaf, criterion
                )
            for j in np.flatnonzero(cat):
                col = x[idx, feats[j]]
                present = ~np.isnan(col)
                if np.count_nonzero(present) >= 2 * min_leaf:
                    gain = _oracle_categorical_split(
                        col[present], labels[present], weights[present], n_classes, min_leaf,
                        criterion,
                    )
                    if gain is not None:
                        gains[j] = gain
            k = tree.select(gains)
        if k is None:
            node["p"] = dist
            continue
        f = int(feats[k])
        col = x[idx, f]
        missing = np.isnan(col)
        if cat[k]:
            groups = {int(c): idx[~missing & (col == c)] for c in np.unique(col[~missing])}
            if missing.any():
                largest = max(groups, key=lambda c: (len(groups[c]), -c))
                groups[largest] = np.concatenate([groups[largest], idx[missing]])
            children = {c: {} for c in sorted(groups)}
            node.update(f=f, c=children, p=dist)
            stack += [(children[c], groups[c]) for c in reversed(children)]
            continue
        j = k - np.count_nonzero(cat[:k])  # the winner's row among the numeric columns
        threshold = tree._threshold(lo[j], hi[j])
        left = ~missing & (col < threshold)
        right = ~missing & ~left
        default_left = weights[left].sum() >= weights[right].sum()
        if missing.any():
            if default_left:
                left |= missing
            else:
                right |= missing
        node.update(f=f, t=threshold, d=0 if default_left else 1, l={}, r={})
        stack += [(node["r"], idx[right]), (node["l"], idx[left])]
    return root


# --- the base tree ------------------------------------------------------------------


def _tree_scores(train, test):
    return np.vstack([s for _, s in fit_predict(TREE, train, test)])


def _oracle_scores(train, test):
    root = _tree_fit(train)
    return np.vstack([_tree_predict_row(root, row) for row in test.rows])


def _assert_tree_matches(ds):
    idx = np.arange(ds.n_rows)
    for train, test in (
        (replace(ds, rows=ds.rows[idx % 3 != 0]), replace(ds, rows=ds.rows[idx % 3 == 0])),
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
    train = replace(ds, rows=ds.rows[train_idx])
    assert np.array_equal(_tree_scores(train, test), _oracle_scores(train, test))
    assert np.array_equal(_tree_scores(train, ds), _oracle_scores(train, ds))


def test_base_tree_matches_oracle_on_mini_corpus(mini_datasets):
    for ds in mini_datasets:
        _assert_tree_matches(ds)


# --- the meta-forest tree ----------------------------------------------------------------


def _oracle_forest_trees(db, n_trees, seed, grow_one=None):
    """The per-tree loop of ``train_forest`` around a one-tree oracle grower.

    ``grow_one(x, y, w, rng, n_candidates, n_classes)`` defaults to the recursive grower.
    """
    grow_one = grow_one or _grow_tree
    x, y, w = feature_matrix(db)
    n_rows, n_features = x.shape
    n_candidates = min(n_features, math.ceil(math.sqrt(n_features)))
    prob = w / w.sum()
    trees = []
    for tree_seed in np.random.SeedSequence(seed).spawn(n_trees):
        rng = np.random.default_rng(tree_seed)
        sample = rng.choice(n_rows, size=n_rows, replace=True, p=prob)
        trees.append(
            grow_one(x[sample], y[sample], w[sample], rng, n_candidates, len(RESPONSE_CLASSES))
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

    [ours] = tree.grow(
        x, y, w, 3, [(np.arange(n), draw)], min_node=MIN_NODE_SIZE, criterion=tree.GINI
    )
    assert ours == _grow_tree(x, y, w, oracle_rng, 3, 3)


@pytest.mark.parametrize(
    "labels", [(np.arange(6000) // 2) % 2, (np.arange(6000) % 3 == 0).astype(int)]
)
def test_deep_gini_tree_grows_without_recursion_limit(labels):
    # thousands of levels deep; the recursive grower raised RecursionError here
    n = labels.size
    x = np.arange(n, dtype=float)[:, None]
    rng = np.random.default_rng(0)
    [root] = tree.grow(
        x, labels, np.ones(n), 3, [(np.arange(n), lambda: rng.choice(1, size=1, replace=False))],
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


def _search_inputs(x, y, w, n_classes):
    """``xt`` and ``onehot`` as ``grow`` builds them: columns as rows, one padding row after."""
    xt = np.full((x.shape[1], x.shape[0] + 1), np.nan)
    xt[:, :-1] = x.T
    onehot = np.zeros((x.shape[0] + 1, n_classes))
    onehot[np.arange(x.shape[0]), y] = w
    return xt, onehot


def _node_split(block, labels, weights, n_classes, min_leaf, criterion):
    """(column, gain, threshold) of the batched search, as ``grow`` takes it."""
    xt, onehot = _search_inputs(block.T, labels, weights, n_classes)
    rows = [np.arange(labels.size)] * block.shape[0]
    gains, lo, hi = tree._search(xt, onehot, rows, np.arange(block.shape[0]), min_leaf, criterion)
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
def test_batched_node_search_matches_oracle_on_nodes_searched_in_several_batches(
    n_classes, monkeypatch
):
    # 2500 rows of 3 or 9 classes put 2 pairs or 1 in a chunk of tree._BATCH_CELLS
    batches = []
    best_cuts = tree._best_cuts

    def counting_best_cuts(values, *args):
        batches.append(values.shape[0])
        return best_cuts(values, *args)

    monkeypatch.setattr(tree, "_best_cuts", counting_best_cuts)
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
            assert len(batches) >= 3 and sum(batches) == 7
            batches.clear()


@pytest.mark.parametrize("n_classes", [3, 9])
@pytest.mark.parametrize("name", ["entropy", "gini"])
def test_pair_search_matches_one_best_cuts_call_per_pair(n_classes, name):
    # shuffled pairs of 2-3000 rows, so chunks pad, scatter back and, with 9
    # classes, hold a pair over tree._BATCH_CELLS alone
    rng = np.random.default_rng([n_classes, len(name)])
    n = 3000
    y = rng.integers(0, n_classes, size=n)
    x = np.round(rng.normal(size=(n, 6)) + y[:, None] / n_classes, 1)
    x[:, 3] = x[:, 2]  # an exact copy ties every gain of column 2
    x[:, 4] = np.arange(n) // 7
    x[rng.random(x.shape) < 0.1] = np.nan
    x[rng.random(n) < 0.9, 5] = np.nan  # mostly missing
    xt, onehot = _search_inputs(x, y, 1.0 / rng.integers(1, 12, size=n), n_classes)
    sizes = np.unique(np.geomspace(2, n, 40).astype(int))
    rows = [
        rng.choice(n, size=size, replace=bool(k % 2)) for k, size in enumerate(sizes)
        for _ in range(int(rng.integers(1, 4)))
    ] + [np.arange(n)]
    cols = rng.integers(0, x.shape[1], size=len(rows))
    shuffle = rng.permutation(len(rows))
    rows, cols = [rows[i] for i in shuffle], cols[shuffle]
    if n_classes == 9:
        assert n * n_classes > tree._BATCH_CELLS  # the pair of all rows goes alone
    criterion = getattr(tree, name.upper())
    for min_leaf in (1, 2):
        ours = tree._search(xt, onehot, rows, cols, min_leaf, criterion)
        expected = np.column_stack([
            tree._best_cuts(xt[[c]][:, r], r[None, :], onehot, min_leaf, criterion)
            for r, c in zip(rows, cols)
        ])
        cut = np.isfinite(expected[0])  # a pair without a cut has no values around it
        assert ours[0].tobytes() == expected[0].tobytes()
        assert ours[:, cut].tobytes() == expected[:, cut].tobytes()
        assert cut.sum() > len(rows) // 2


def _fuzzed_block(rng, n_classes, min_leaf):
    """``_best_cuts`` inputs: pairs of bootstrap rows over fuzzed columns, NaN-padded."""
    n_rows = int(rng.integers(4, 40))
    y = rng.integers(0, n_classes, size=n_rows)
    w = rng.integers(1, 4, size=n_rows) if rng.random() < 0.5 else 1.0 / rng.integers(1, 12, n_rows)
    _, onehot = _search_inputs(np.empty((n_rows, 0)), y, w, n_classes)
    n_pairs, width = int(rng.integers(1, 7)), int(rng.integers(2, 2 * n_rows))
    values = np.full((n_pairs, width), np.nan)  # padding: NaN on the row of no weight
    rows = np.full((n_pairs, width), n_rows)
    no_cut = rng.random() < 0.1  # every pair all-tie or pure: nothing to gather
    for i in range(n_pairs):
        size = int(rng.integers(1, width + 1))
        pool = np.arange(n_rows)
        if no_cut or rng.random() < 0.15:  # a pure pair
            pool = np.flatnonzero(y == y[rng.integers(0, n_rows)])
        rows[i, :size] = rng.choice(pool, size=size, replace=True)  # bootstrap repeats
        kind = rng.integers(0, 5)
        if no_cut or kind == 0:  # all tie
            column = np.full(n_rows, float(rng.integers(0, 3)))
        elif kind == 1:  # few distinct values
            column = rng.integers(0, 3, size=n_rows).astype(float)
        elif kind == 2:  # mostly missing
            column = np.where(rng.random(n_rows) < 0.8, np.nan, rng.normal(size=n_rows))
        else:
            column = np.round(rng.normal(size=n_rows), 1)
            column[rng.random(n_rows) < 0.2] = np.nan
        values[i, :size] = column[rows[i, :size]]
    return values, rows, onehot


def test_best_cuts_match_the_dense_oracle_on_fuzzed_blocks():
    rng = np.random.default_rng(25)
    seen: Counter = Counter()
    for trial in range(3000):
        n_classes = (2, 3, 9)[trial % 3]
        min_leaf = 1 + trial // 3 % 3
        criterion = (tree.ENTROPY, tree.GINI)[trial // 9 % 2]
        values, rows, onehot = _fuzzed_block(rng, n_classes, min_leaf)
        with np.errstate(all="raise"):
            ours = tree._best_cuts(values, rows, onehot, min_leaf, criterion)
        expected = np.array([
            np.concatenate(_oracle_best_cuts(values[[i]], onehot[r], min_leaf, criterion))
            for i, r in enumerate(rows)
        ]).T
        cut = np.isfinite(expected[0])  # a row without a cut has no values around it
        assert ours[0].tobytes() == expected[0].tobytes(), trial
        assert np.array(ours)[:, cut].tobytes() == expected[:, cut].tobytes(), trial
        seen["cut"] += cut.sum()
        seen["none"] += (~cut).sum()
        seen["empty"] += not cut.any()
    assert seen["cut"] > 2500 and seen["none"] > 5000 and seen["empty"] > 500, seen


def test_criterion_scores_only_the_candidate_cuts(tree_metadb, monkeypatch):
    # a bootstrap repeats rows and the metadb ties many features, so most sorted
    # positions of a block are no cut
    scored, positions = [], []

    def counting_children(sides, total):
        scored.append(sides.shape[1])
        return tree.GINI.children(sides, total)

    best_cuts = tree._best_cuts

    def counting_best_cuts(values, *args):
        positions.append(values.shape[0] * (values.shape[1] - 1))
        return best_cuts(values, *args)

    x, y, w = feature_matrix(tree_metadb)
    xt, onehot = _search_inputs(x, y, w, len(RESPONSE_CLASSES))
    rng = np.random.default_rng(7)
    rows, cols, candidates = [], [], 0
    for k in range(30):
        sample = rng.choice(y.size, size=y.size, replace=True, p=w / w.sum())
        node = sample[: int(rng.integers(5, y.size + 1))]  # a root or a smaller node
        if k % 5 == 0:  # a pure node has no cut
            node = node[y[node] == y[node[0]]]
        for c in np.sort(rng.choice(x.shape[1], size=11, replace=False)):
            rows.append(node)
            cols.append(c)
            present = ~np.isnan(x[node, c])
            v = np.sort(x[node[present], c])
            if np.unique(y[node[present]]).size > 1:
                candidates += np.count_nonzero(v[1:] != v[:-1])
    cols = np.array(cols)
    expected = tree._search(xt, onehot, rows, cols, 1, tree.GINI)
    monkeypatch.setattr(tree, "_best_cuts", counting_best_cuts)
    spy = tree.Criterion(tree.GINI.impurity, counting_children)
    ours = tree._search(xt, onehot, rows, cols, 1, spy)
    assert ours.tobytes() == expected.tobytes()
    assert sum(scored) == candidates > 0
    assert sum(scored) < sum(positions) / 4, (sum(scored), sum(positions))


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
        [root] = tree.grow(
            x, y, w, 3, [(np.arange(n), lambda: range(4))], criterion=criterion,
            categorical={3}, min_leaf=2,
        )
    assert "f" in root and root["f"] in (2, 3)


# --- lockstep growth ---------------------------------------------------------------------


def _shared_rows(rng, n_rows, n_classes):
    """Rows with NaN cells, categorical columns 0 and 1, and tie-heavy numeric columns."""
    x = np.round(rng.normal(size=(n_rows, 7)), 1)
    x[:, 0] = rng.integers(0, 4, size=n_rows)
    x[:, 1] = rng.integers(0, 2, size=n_rows)
    x[:, 3] = x[:, 2]  # an exact copy ties every gain of column 2
    x[:, 4] = np.arange(n_rows) // 3
    x[rng.random(x.shape) < 0.1] = np.nan
    signal = (np.nan_to_num(x[:, 2]) > 0).astype(int) + (x[:, 0] == 1)
    y = np.where(rng.random(n_rows) < 0.6, signal, rng.integers(0, n_classes, size=n_rows))
    w = np.ones(n_rows) if rng.random() < 0.5 else 1.0 / rng.integers(1, 12, size=n_rows)
    return x, y, w


def _tree_rows(rng, n_rows, n_trees, low, high):
    """Bootstrap samples (repeats, any order) and sorted subsets, as forests and folds use."""
    rows = []
    for t in range(n_trees):
        size = int(rng.integers(low, high))
        if t % 2:
            rows.append(rng.choice(n_rows, size=size, replace=True))
        else:
            rows.append(np.sort(rng.choice(n_rows, size=min(size, n_rows), replace=False)))
    return rows


def _lockstep_and_oracle(x, y, w, n_classes, tree_rows, seed, fixed=(), **kwargs):
    """Lockstep trees and one-tree oracle trees, each tree with its own generator.

    A tree numbered in ``fixed`` is given one sorted array of candidate
    columns for all its nodes, drawn once; the others draw four per node.
    """

    def features(t):
        rng = np.random.default_rng([seed, t])
        if t in fixed:
            size = int(rng.integers(3, x.shape[1] + 1))
            return np.sort(rng.choice(x.shape[1], size=size, replace=False))
        return lambda: np.sort(rng.choice(x.shape[1], size=4, replace=False))

    ours = tree.grow(
        x, y, w, n_classes, [(rows, features(t)) for t, rows in enumerate(tree_rows)], **kwargs
    )
    oracle = []
    for t, rows in enumerate(tree_rows):
        feats = features(t)
        draw = feats if callable(feats) else lambda feats=feats: feats
        oracle.append(_oracle_grow(x[rows], y[rows], w[rows], n_classes, draw, **kwargs))
    return ours, oracle


@pytest.mark.parametrize("name", ["entropy", "gini"])
@pytest.mark.parametrize("min_leaf", [1, 2])
@pytest.mark.parametrize("min_node", [1, 5])
def test_lockstep_trees_match_one_tree_oracle(name, min_leaf, min_node):
    rng = np.random.default_rng([min_leaf, min_node, len(name)])
    x, y, w = _shared_rows(rng, 300, 3)
    tree_rows = _tree_rows(rng, 300, 12, 5, 400)
    # every tree draws, every tree has fixed columns, then some of each in one call
    for fixed in ((), range(12), range(0, 12, 3)):
        ours, oracle = _lockstep_and_oracle(
            x, y, w, 3, tree_rows, min_leaf + 10 * min_node, fixed,
            criterion=getattr(tree, name.upper()), categorical=(0, 1), min_leaf=min_leaf,
            min_node=min_node,
        )
        assert ours == oracle
        assert any(map(_has_categorical_split, ours))


def _searched_depths(root, x, y, rows, min_node):
    """The depth of every node the grower searched, from its rows routed down numeric splits."""
    depths = []
    stack = [(root, rows, 0)]
    while stack:
        node, idx, depth = stack.pop()
        if idx.size >= min_node and np.unique(y[idx]).size > 1:
            depths.append(depth)
        if "f" in node:
            col = x[idx, node["f"]]
            left = np.where(np.isnan(col), node["d"] == 0, col < node["t"])
            stack += [(node["l"], idx[left], depth + 1), (node["r"], idx[~left], depth + 1)]
    return depths


@pytest.mark.parametrize("name", ["entropy", "gini"])
def test_fixed_candidate_tree_takes_one_step_per_level(name, monkeypatch):
    rng = np.random.default_rng(len(name))
    x, y, w = _shared_rows(rng, 300, 3)
    x = x[:, 2:]  # numeric columns only, so the rows can be routed here
    rows = np.sort(rng.choice(300, size=250, replace=False))
    steps = []  # nodes searched per step
    split_gains = tree._split_gains

    def counting_split_gains(xt, y, w, onehot, nodes, *args):
        steps.append(len(nodes))
        return split_gains(xt, y, w, onehot, nodes, *args)

    monkeypatch.setattr(tree, "_split_gains", counting_split_gains)
    kwargs = dict(criterion=getattr(tree, name.upper()), min_leaf=2, min_node=5)
    [fixed] = tree.grow(x, y, w, 3, [(rows, np.arange(x.shape[1]))], **kwargs)
    depths = _searched_depths(fixed, x, y, rows, 5)
    assert len(steps) == len(set(depths)) == max(depths) + 1
    assert sum(steps) == len(depths) and max(steps) > 1
    steps.clear()
    [drawing] = tree.grow(x, y, w, 3, [(rows, lambda: np.arange(x.shape[1]))], **kwargs)
    assert drawing == fixed
    assert steps == [1] * len(depths)


def test_threshold_between_values_whose_sum_overflows_is_finite():
    # the midpoint of 1e308 and 1.5e308 overflows when taken as (lo + hi) / 2
    x = np.array([[1e308], [1e308], [1.5e308], [1.5e308]])
    for features in (lambda: [0], np.array([0])):  # a drawing tree, then a fixed one
        [root] = tree.grow(
            x, np.array([0, 0, 1, 1]), np.ones(4), 2, [(np.arange(4), features)],
            criterion=tree.ENTROPY,
        )
        assert root["t"] == 1.25e308
        assert root["l"] == {"p": [1.0, 0.0]} and root["r"] == {"p": [0.0, 1.0]}


def test_midpoint_is_the_plain_midpoint_when_the_sum_is_finite():
    rng = np.random.default_rng(3)
    pairs = np.sort(rng.normal(size=(2000, 2)) * 10.0 ** rng.integers(-300, 300, size=(2000, 1)))
    for lo, hi in pairs:
        assert tree.midpoint(lo, hi) == float((lo + hi) / 2.0)


def _has_categorical_split(root):
    stack = [root]
    while stack:
        node = stack.pop()
        if "c" in node:
            return True
        stack += [node[side] for side in ("l", "r") if side in node]
    return False


@pytest.mark.parametrize("name", ["entropy", "gini"])
def test_lockstep_trees_match_oracle_across_chunks(name, monkeypatch):
    # 9 classes and 20-3000 rows per tree: one step's nodes differ by more than
    # twice in rows and hold more cells than one batch, so they go in several
    # chunks, and their categorical columns hold more rows than one batch
    rng = np.random.default_rng(len(name))
    x, y, w = _shared_rows(rng, 3000, 9)
    searched, padded, categorical = [], [], []
    search, best_cuts, categorical_gains = tree._search, tree._best_cuts, tree._categorical_gains

    def recording_search(xt, onehot, rows, cols, min_leaf, criterion):
        sizes = sorted(r.size for r in rows)
        cells = sum(r.size for r in rows) * onehot.shape[1]
        searched.append((sizes, cells))
        return search(xt, onehot, rows, cols, min_leaf, criterion)

    def recording_best_cuts(values, rows, onehot, min_leaf, criterion):
        lengths = (rows != x.shape[0]).sum(axis=1)  # each column's rows without padding
        if lengths.min() < values.shape[1]:
            padded.append((lengths.min(), lengths.max(), values.size * onehot.shape[1]))
        return best_cuts(values, rows, onehot, min_leaf, criterion)

    def recording_categorical_gains(xt, y, w, rows, *args):
        categorical.append(sum(r.size for r in rows))
        return categorical_gains(xt, y, w, rows, *args)

    monkeypatch.setattr(tree, "_search", recording_search)
    monkeypatch.setattr(tree, "_best_cuts", recording_best_cuts)
    monkeypatch.setattr(tree, "_categorical_gains", recording_categorical_gains)
    ours, oracle = _lockstep_and_oracle(
        x, y, w, 9, _tree_rows(rng, 3000, 12, 20, 3000), 5,
        criterion=getattr(tree, name.upper()), categorical=(0, 1), min_leaf=2, min_node=5,
    )
    assert ours == oracle
    assert any(len(sizes) > 1 and sizes[-1] > 2 * sizes[0] for sizes, _ in searched)
    assert any(len(sizes) > 1 and cells > tree._BATCH_CELLS for sizes, cells in searched)
    assert padded
    for shortest, longest, cells in padded:  # a chunk pads at most twice and fits one batch
        assert longest <= 2 * shortest and cells <= tree._BATCH_CELLS
    assert max(categorical) > tree._BATCH_CELLS


def test_lockstep_tree_cross_validation_matches_base_tree_oracle(mini_datasets):
    # the ten fold trees of a CV grow together over the dataset's rows
    extra = [
        random_dataset(seed, n_rows=150, n_continuous=3, n_categorical=2, missing_rate=0.1)
        for seed in range(3)
    ]
    for ds in [*mini_datasets, *extra]:
        fold_of_row = stratified_folds(ds, 10, 7)
        train_rows = [np.flatnonzero(fold_of_row != f) for f in range(10)]
        test_rows = [np.flatnonzero(fold_of_row == f) for f in range(10)]
        tests = [replace(ds, rows=ds.rows[rows]) for rows in test_rows]
        [scores] = classifiers._fold_scores(TREE, [ds], train_rows, test_rows)
        assert len(scores) == 10
        for rows, test, ours in zip(train_rows, tests, scores):
            assert np.array_equal(ours, _oracle_scores(replace(ds, rows=ds.rows[rows]), test))


def _one_tree_forest_oracle(x, y, w, rng, n_candidates, n_classes):
    def draw():
        return np.sort(rng.choice(x.shape[1], size=n_candidates, replace=False))

    return _oracle_grow(x, y, w, n_classes, draw, criterion=tree.GINI, min_node=MIN_NODE_SIZE)


@pytest.mark.parametrize("seed", [1, 7, 42])
def test_lockstep_forest_matches_one_tree_oracle(tree_metadb, seed):
    # the forest passes its bootstrap rows of one shared matrix, not a copy per tree
    expected = _oracle_forest_trees(tree_metadb, 10, seed, _one_tree_forest_oracle)
    assert train_forest(tree_metadb, 10, seed=seed).trees == expected
