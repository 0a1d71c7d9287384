"""Decision-tree core of the base tree learner, the meta-forest and MDL cuts.

One grower builds both learners' trees from an explicit stack, so depth is
unbounded.  Nodes are dicts, which the forest also persists: a leaf is
``{"p": class distribution}``; a numeric split is ``{"f": feature, "t":
threshold, "d": 0 or 1, "l": left, "r": right}``, where rows with a value
below ``t`` go left and a missing value goes left when ``d`` is 0; a
categorical split is ``{"f": feature, "c": {category: child}, "p": ...}``,
whose ``p`` answers for a missing or unseen category.
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


def entropies(counts: np.ndarray) -> np.ndarray:
    """:func:`entropy` of every row of a nonzero count matrix, bit for bit.

    The terms of a row are added left to right, as NumPy adds a sum of fewer
    than eight terms; a row with eight or more nonzero classes goes through
    :func:`entropy` itself, whose sum NumPy groups pairwise.
    """
    present = counts > 0
    p = counts / counts.sum(axis=1, keepdims=True)
    terms = np.zeros_like(p)
    terms[present] = p[present] * np.log2(p[present])
    sums = np.zeros(len(counts))
    for c in range(counts.shape[1]):
        sums += terms[:, c]  # absent classes add an exact 0.0
    out = -sums
    for i in np.flatnonzero(present.sum(axis=1) >= _SEQUENTIAL_SUM_TERMS):
        out[i] = entropy(counts[i])
    return out


def gini(counts: np.ndarray) -> float:
    """Gini impurity of a (weighted) class-count vector; 0 when it is empty."""
    total = counts.sum()
    if total <= 0:
        return 0.0
    p = counts / total
    return float(1.0 - (p * p).sum())


def _xlog2(x: np.ndarray) -> np.ndarray:
    safe = np.where(x > 0, x, 1.0)
    return x * np.log2(safe)


def _entropy_children(left, right, wl, wr, total):
    # from count identities, so no per-position entropy call
    return (
        _xlog2(wl) - _xlog2(left).sum(axis=1) + _xlog2(wr) - _xlog2(right).sum(axis=1)
    ) / total


def _gini_children(left, right, wl, wr, total):
    return (wl - (left * left).sum(axis=1) / np.maximum(wl, 1e-300)) / total + (
        wr - (right * right).sum(axis=1) / np.maximum(wr, 1e-300)
    ) / total


class Criterion(NamedTuple):
    impurity: Callable  # (class weights) -> float
    children: Callable  # (left, right, wl, wr, total) -> weighted child impurity per cut


ENTROPY = Criterion(entropy, _entropy_children)
GINI = Criterion(gini, _gini_children)


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


def best_threshold(values, labels, weights, n_classes, min_leaf, criterion):
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


def _categorical_split(values, labels, weights, n_classes, min_leaf, criterion):
    """(gain, None) of one child per category, or None if a child is too small."""
    cats, inverse = np.unique(values, return_inverse=True)
    if cats.size < 2 or (np.bincount(inverse) < min_leaf).any():
        return None
    counts = np.zeros((cats.size, n_classes))
    np.add.at(counts, (inverse, labels), weights)
    sizes = counts.sum(axis=1)
    total = counts.sum(axis=0)
    n = total.sum()
    children = sum((sizes[c] / n) * criterion.impurity(counts[c]) for c in range(cats.size))
    return criterion.impurity(total) - children, None


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
    root: dict = {}
    stack = [(root, np.arange(x.shape[0]))]
    while stack:
        node, idx = stack.pop()
        labels, weights = y[idx], w[idx]
        counts = np.bincount(labels, weights=weights, minlength=n_classes)
        dist = (counts / counts.sum()).tolist()
        found = []  # (gain, threshold or None, feature)
        if idx.size >= min_node and not np.all(labels == labels[0]):
            for f in features():
                col = x[idx, f]
                present = ~np.isnan(col)
                if np.count_nonzero(present) < 2 * min_leaf:
                    continue
                search = _categorical_split if f in categorical else best_threshold
                cand = search(
                    col[present], labels[present], weights[present], n_classes, min_leaf, criterion
                )
                if cand is not None:
                    found.append((*cand, int(f)))
        k = select(np.array([gain for gain, _, _ in found]))
        if k is None:
            node["p"] = dist
            continue
        _, threshold, f = found[k]
        col = x[idx, f]
        missing = np.isnan(col)
        if threshold is None:
            groups = {int(c): idx[~missing & (col == c)] for c in np.unique(col[~missing])}
            if missing.any():
                largest = max(groups, key=lambda c: (len(groups[c]), -c))
                groups[largest] = np.concatenate([groups[largest], idx[missing]])
            children = {c: {} for c in sorted(groups)}
            node.update(f=f, c=children, p=dist)
            stack += [(children[c], groups[c]) for c in reversed(children)]
            continue
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
