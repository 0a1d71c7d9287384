"""Decision-tree core of the base tree learner, the meta-forest and MDL cuts.

One grower builds both learners' trees from an explicit stack, so depth is
unbounded.  Nodes are dicts, which the forest also persists: a leaf is
``{"p": class distribution}``; a numeric split is ``{"f": feature, "t":
threshold, "d": 0 or 1, "l": left, "r": right}``, where rows with a value
below ``t`` go left and a missing value goes left when ``d`` is 0; a
categorical split is ``{"f": feature, "c": {category: child}, "p": ...}``,
whose ``p`` answers for a missing or unseen category.

A node searches all its numeric candidate columns in one batch: one stable
sort of its (columns x rows) block, one (columns x rows x classes) prefix
sum of class weights, and one matrix of gains from the criterion, so the
NumPy calls per node do not grow with the number of columns.  Each column's
cut is chosen under :func:`select`, then the columns compete under it too.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

import numpy as np

#: a gain must beat the running best by more than this to replace it
_MARGIN = 1e-12


def entropy(counts: np.ndarray) -> float:
    """Shannon entropy in bits of a class-count vector; 0 when it is empty."""
    total = counts.sum()
    if total == 0:
        return 0.0
    p = counts[counts > 0] / total
    return float(-(p * np.log2(p)).sum())


#: NumPy sums fewer than this many terms left to right and longer ones pairwise
_SEQUENTIAL_SUM_TERMS = 8


def _sum_left_to_right(a: np.ndarray) -> np.ndarray:
    out = 0.0 + a[..., 0]  # NumPy's sums start from 0.0 too
    for c in range(1, a.shape[-1]):
        out += a[..., c]
    return out


def _class_sums(a: np.ndarray) -> np.ndarray:
    """``a.sum(axis=-1)`` bit for bit, for fewer than eight classes without its overhead."""
    if a.shape[-1] >= _SEQUENTIAL_SUM_TERMS:
        return a.sum(axis=-1)
    return _sum_left_to_right(a)


def entropies(counts: np.ndarray) -> np.ndarray:
    """:func:`entropy` of every row of a nonzero count matrix, bit for bit.

    The terms of a row are added left to right, as NumPy adds a sum of fewer
    than eight terms; a row with eight or more nonzero classes goes through
    :func:`entropy` itself, whose sum NumPy groups pairwise.
    """
    present = counts > 0
    p = counts / counts.sum(axis=1, keepdims=True)
    terms = p * np.log2(np.where(present, p, 1.0))  # absent classes add an exact 0.0
    out = -_sum_left_to_right(terms)
    if counts.shape[1] >= _SEQUENTIAL_SUM_TERMS:
        for i in np.flatnonzero(present.sum(axis=1) >= _SEQUENTIAL_SUM_TERMS):
            out[i] = entropy(counts[i])
    return out


def ginis(counts: np.ndarray) -> np.ndarray:
    """Gini impurity of every row of a nonzero (weighted) class-count matrix."""
    p = counts / counts.sum(axis=1, keepdims=True)
    return 1.0 - (p * p).sum(axis=1)


def _xlog2(x: np.ndarray) -> np.ndarray:
    out = np.where(x > 0, x, 1.0)
    np.log2(out, out=out)  # in place: one temporary where a batch would hold three
    return np.multiply(x, out, out=out)


def _entropy_children(sides, total):
    # from count identities, so no per-position entropy call
    w = _xlog2(_class_sums(sides))
    x = _class_sums(_xlog2(sides))
    return (w[0] - x[0] + w[1] - x[1]) / total


def _gini_children(sides, total):
    w = _class_sums(sides)
    part = (w - _class_sums(sides * sides) / np.maximum(w, 1e-300)) / total
    return part[0] + part[1]


class Criterion(NamedTuple):
    impurity: Callable  # (class-weight rows) -> impurity per row
    children: Callable  # (left and right class weights per cut, total) -> weighted child impurity


ENTROPY = Criterion(entropies, _entropy_children)
GINI = Criterion(ginis, _gini_children)


def select(gains: np.ndarray) -> int | None:
    """Index of the split to take among candidate gains in scan order, or None.

    Scanning with a running best that starts at 0, a gain replaces the best
    when it is larger by more than 1e-12, so near-ties go to the earlier
    candidate; the last replacement wins.  When the first maximum clears
    every other gain by that margin it is the answer; otherwise the scan is
    replayed over the gains above all earlier ones, the only ones that can
    replace the best.
    """
    if gains.size == 0:
        return None
    top = int(np.argmax(gains))
    if not gains[top] > _MARGIN:
        return None
    if np.count_nonzero(gains + _MARGIN >= gains[top]) == 1:
        return top
    best_gain, best = 0.0, None
    for r in np.flatnonzero(gains > np.maximum.accumulate(np.append(0.0, gains))[:-1]):
        if gains[r] > best_gain + _MARGIN:
            best_gain, best = gains[r], int(r)
    return best


#: cells (columns x rows x classes) one batch holds; a larger node's columns go in several
_BATCH_CELLS = 2**14


def _best_cuts(values, onehot, min_leaf, criterion):
    """Best binary cut of every column of a node, all columns at once.

    ``values`` holds the node's numeric candidate columns as rows and
    ``onehot`` each node row's weight in the column of its class.  A column's
    cuts lie between adjacent distinct sorted present values and leave at
    least ``min_leaf`` rows on each side, and :func:`select` picks among them
    in sorted order.  Returns per column the gain of its cut (-inf when it
    has none) and the two adjacent sorted values the cut lies between.
    """
    n_cols, n = values.shape
    step = max(1, _BATCH_CELLS // onehot.size)
    if n_cols > step:  # so a batch's arrays stay near 128 KB each
        batches = [
            _best_cuts(values[i : i + step], onehot, min_leaf, criterion)
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
    near = (split_gains + _MARGIN >= best[:, None]).sum(axis=1) > 1
    for j in np.flatnonzero(near & (best > _MARGIN)):  # replay the scan on near-ties
        cuts = np.flatnonzero(valid[j])
        top[j] = cuts[select(split_gains[j, cuts])]
        best[j] = split_gains[j, top[j]]
    return np.where(best > _MARGIN, best, -np.inf), v[rows, top], v[rows, top + 1]


def _threshold(lo: float, hi: float) -> float:
    """The midpoint of two adjacent sorted values, or ``hi`` if it rounds down onto ``lo``."""
    mid = float((lo + hi) / 2.0)
    return float(hi) if mid <= lo else mid


def _categorical_split(values, labels, weights, n_classes, min_leaf, criterion):
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


def grow(
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
                gains[~cat], lo, hi = _best_cuts(
                    x.T[feats[~cat, None], idx], onehot[idx], min_leaf, criterion
                )
            for j in np.flatnonzero(cat):
                col = x[idx, feats[j]]
                present = ~np.isnan(col)
                if np.count_nonzero(present) >= 2 * min_leaf:
                    gain = _categorical_split(
                        col[present], labels[present], weights[present], n_classes, min_leaf,
                        criterion,
                    )
                    if gain is not None:
                        gains[j] = gain
            k = select(gains)
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
        threshold = _threshold(lo[j], hi[j])
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


def leaf(node: dict, row) -> dict:
    """The node whose distribution ``p`` answers for one feature row."""
    while "f" in node:
        value = row[node["f"]]
        if "c" in node:
            if math.isnan(value) or int(value) not in node["c"]:
                return node
            node = node["c"][int(value)]
        elif math.isnan(value):
            node = node["l"] if node["d"] == 0 else node["r"]
        elif value < node["t"]:
            node = node["l"]
        else:
            node = node["r"]
    return node
