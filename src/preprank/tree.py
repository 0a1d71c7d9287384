"""Decision-tree core of the base tree learner, the meta-forest and MDL cuts.

One grower builds both learners' trees, each from its own explicit stack,
so depth is unbounded.  Nodes are dicts, which the forest also persists: a
leaf is ``{"p": class distribution}``; a numeric split is ``{"f": feature,
"t": threshold, "d": 0 or 1, "l": left, "r": right}``, where rows with a
value below ``t`` go left and a missing value goes left when ``d`` is 0; a
categorical split is ``{"f": feature, "c": {category: child}, "p": ...}``,
whose ``p`` answers for a missing or unseen category.

Many independent trees over shared rows (the fold trees of a
cross-validation, the trees of a forest) grow in lockstep, and each step
searches the nodes it takes from all trees together.  A tree whose
candidate columns are fixed (a base tree) gives a step every node it has
pending, a whole level; a tree that draws its candidates (a forest tree)
gives one node, so its draws stay in pre-order.  A step searches each
distinct (node rows, candidate column) pair once, since nodes of different
trees can hold the same rows.  Its numeric pairs go in size order, one batch per
chunk of at most ``_BATCH_CELLS`` cells, each padded to the chunk's widest with
missing values of no weight: one sort of its 64-bit keys (a cell's rank in its
column, ranked once per grow, over its position), one prefix sum of class weights,
missing rows last, and one call of the criterion on its candidate cuts alone, so
the NumPy calls per step do not grow with the number of nodes or columns.
Its categorical pairs share one table of class counts per batch.  Each pair's
cut is chosen under :func:`_select_rows`, then each node's columns compete under it.
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


#: cells (pairs x widest rows x classes) of one chunk of numeric pairs, and rows of
#: one batch of categorical pairs; a pair over it goes alone, more go in several
_BATCH_CELLS = 2**14


def _ranks(xt: np.ndarray) -> np.ndarray:
    """Each cell's dense rank in its row of ``xt`` (0.0 and -0.0 tie), shifted 32 bits up.

    Missing cells hold the top rank, the row length; the low 32 bits are left for block positions.
    """
    ranks = np.full(xt.shape, xt.shape[1] << 32, dtype=np.int64)
    for f, present in enumerate(~np.isnan(xt)):
        ranks[f, present] = np.unique(xt[f, present], return_inverse=True)[1] << 32
    return ranks


def _sort_block(ranks, cols, rows):
    """Each block row's ``rows`` in stable order of their values in ``cols[i]``, and the ranks."""
    keys = np.take(ranks, rows + (cols * ranks.shape[1])[:, None])
    keys |= np.arange(rows.size).reshape(rows.shape)  # positions below the ranks: a stable sort
    keys.sort(axis=1)
    return np.take(rows, keys & 0xFFFFFFFF), keys >> 32


def _best_cuts(xt, ranks, cols, rows, onehot, min_leaf, criterion):
    """Best binary cut of every row of a block, all rows at once.

    Block row ``i`` holds column ``cols[i]`` over one node's ``rows[i]``,
    indices into the columns of ``xt`` and ``ranks`` and the rows of
    ``onehot`` (each row's weight in the column of its class).  Padding
    points at the padding row: it ranks with missing cells and has no
    weight.  A column's cuts lie between adjacent distinct sorted present
    values and leave at least ``min_leaf`` rows on each side, and
    :func:`_select_rows` picks among them in sorted order.  Returns per row the
    gain of its cut (-inf when it has none) and the two adjacent sorted
    values the cut lies between.  The criterion sees the candidate cuts
    alone, most sorted positions being repeats, ties or padding.
    """
    n_cols, n = rows.shape
    sorted_rows, rank = _sort_block(ranks, cols, rows)
    prefix = np.take(onehot, sorted_rows, axis=0)
    # a cut after sorted position i leaves i + 1 rows on the left
    first, stop = min_leaf - 1, n - min_leaf
    total = np.cumsum(prefix, axis=1, out=prefix)[:, -1]
    if (rank[:, -1] == ranks.shape[1]).any():
        present = np.count_nonzero(rank != ranks.shape[1], axis=1)
        stop = (present - min_leaf)[:, None]
        # missing rows sort last, so a block row's total is its prefix at its last present one;
        # a column too sparse to cut keeps its missing rows, so its totals are not all 0
        total = prefix[np.arange(n_cols), np.where(present < 2 * min_leaf, n, present) - 1]
    h_all = criterion.impurity(total)
    valid = rank[:, 1:] != rank[:, :-1]
    valid[:, :first] = False
    valid &= np.arange(n - 1) < stop
    valid[h_all == 0.0] = False
    cut = np.flatnonzero(valid)  # flat into (rows x n - 1); row r's cuts sit r further in prefix
    pair = cut // (n - 1)
    sides = np.empty((2, cut.size, onehot.shape[1]))  # class weights left and right of each cut
    # every index is in range; "clip" only skips the bounds checks
    np.take(prefix.reshape(-1, onehot.shape[1]), cut + pair, axis=0, out=sides[0], mode="clip")
    np.take(total, pair, axis=0, out=sides[1], mode="clip")
    np.subtract(sides[1], sides[0], out=sides[1])
    children = criterion.children(sides, np.take(total.sum(axis=1), pair, mode="clip"))
    split_gains = np.full((n_cols, n - 1), -np.inf)
    np.put(split_gains, cut, np.take(h_all, pair, mode="clip") - children, mode="clip")
    top, r = _select_rows(split_gains), np.arange(n_cols)
    lo, hi = xt[cols, sorted_rows[r, top]], xt[cols, sorted_rows[r, top + 1]]
    return np.where(top >= 0, split_gains[r, top], -np.inf), lo, hi


def _select_rows(gains: np.ndarray) -> np.ndarray:
    """The split to take in every row of a gain matrix, candidates in scan order; -1 for none.

    Scanning a row with a running best that starts at 0, a gain replaces the
    best when it is larger by more than 1e-12, so near-ties go to the earlier
    candidate; the last replacement wins.  When a row's first maximum clears
    every other gain by the margin it is the answer; otherwise the scan is
    replayed over the gains above all earlier ones, the only ones that can
    replace the best.  A row's -inf entries are never chosen and never
    change the choice.
    """
    top = gains.argmax(axis=1)
    best = gains.max(axis=1)
    near = (gains + _MARGIN >= best[:, None]).sum(axis=1) > 1
    for j in np.flatnonzero(near & (best > _MARGIN)):  # replay the scan on near-ties
        row, best_gain = gains[j], 0.0
        for r in np.flatnonzero(row > np.maximum.accumulate(np.append(0.0, row))[:-1]):
            if row[r] > best_gain + _MARGIN:
                best_gain, top[j] = row[r], r
    top[~(best > _MARGIN)] = -1
    return top


def _search(xt, ranks, onehot, rows, cols, min_leaf, criterion):
    """:func:`_best_cuts` of each pair of node rows and numeric column of ``xt``, pairs batched.

    The last row index of ``xt`` is padding.  Pairs go in order of row count, consecutive
    ones sharing a chunk while its pairs x widest rows x classes stay within
    ``_BATCH_CELLS`` (a pair over it goes alone), so a small level is one chunk; each
    pair's rows are padded to the chunk's widest.  Returns the (gains, low, high) rows of
    the pairs in their given order.
    """
    sizes = np.array([r.size for r in rows])
    order = np.argsort(sizes, kind="stable")
    sizes = sizes[order]
    found = np.empty((3, len(rows)))
    start = 0
    while start < sizes.size:
        ends = sizes[start : start + _BATCH_CELLS // sizes[start]]  # the most that can fit
        cells = np.arange(1, ends.size + 1) * ends * onehot.shape[1]  # rises with the end
        stop = start + max(1, np.count_nonzero(cells <= _BATCH_CELLS))
        chunk, lengths = order[start:stop], sizes[start:stop]
        block_rows = np.full((chunk.size, lengths[-1]), xt.shape[1] - 1)
        block_rows[np.arange(lengths[-1]) < lengths[:, None]] = np.concatenate(
            [rows[i] for i in chunk]
        )
        found[:, chunk] = _best_cuts(xt, ranks, cols[chunk], block_rows, onehot, min_leaf, criterion)
        start = stop
    return found


def _categorical_gains(xt, y, w, rows, cols, n_classes, min_leaf, criterion):
    """Gain of one child per category for each pair of node rows and column of ``xt``.

    Column values are category indices 0, 1, ...; missing rows stay out.  A
    pair has no split (gain -inf) with fewer than two categories or a
    category with fewer than ``min_leaf`` rows.  Every sum adds its terms in
    the order a count table of the pair alone would, so the gains do not
    depend on the batch.
    """
    n_pairs = len(rows)
    sizes = [r.size for r in rows]
    if n_pairs > 1 and sum(sizes) > _BATCH_CELLS:  # so a batch's arrays stay near 128 KB each
        half = n_pairs // 2
        return np.concatenate([
            _categorical_gains(xt, y, w, rows[:half], cols[:half], n_classes, min_leaf, criterion),
            _categorical_gains(xt, y, w, rows[half:], cols[half:], n_classes, min_leaf, criterion),
        ])
    members = np.concatenate(rows)
    values = xt[np.repeat(cols, sizes), members]
    present = ~np.isnan(values)
    members = members[present]
    cats = values[present].astype(np.intp)
    n_cats = int(cats.max(initial=0)) + 1
    cell = np.repeat(np.arange(n_pairs) * n_cats, sizes)[present] + cats
    in_cell = np.bincount(cell, minlength=n_pairs * n_cats).reshape(n_pairs, n_cats)
    seen = in_cell > 0
    ok = (seen.sum(axis=1) >= 2) & ~(seen & (in_cell < min_leaf)).any(axis=1)
    gains = np.full(n_pairs, -np.inf)
    if not ok.any():
        return gains
    counts = np.bincount(
        cell * n_classes + y[members], weights=w[members], minlength=in_cell.size * n_classes
    ).reshape(n_pairs, n_cats, n_classes)[ok]
    seen = seen[ok]
    total = _sum_left_to_right(np.moveaxis(counts, 1, -1))  # category after category
    share = _class_sums(counts) / _class_sums(total)[:, None]
    children = np.zeros(seen.shape)
    children[seen] = share[seen] * criterion.impurity(counts[seen])
    gains[ok] = criterion.impurity(total) - _sum_left_to_right(children)
    return gains


def _split_gains(xt, ranks, y, w, onehot, nodes, same, is_categorical, min_leaf, criterion):
    """Gain of every candidate column of every node, and the values around numeric cuts.

    ``nodes`` holds each node as (rows, candidate columns), and ``same``
    each node's index of the first node with its rows.  Each distinct (node
    rows, column) pair goes once to :func:`_search` or, for a categorical
    column, :func:`_categorical_gains`.  Returns three (nodes x most candidates) matrices: the gains, -inf where
    a column has no split or a node has fewer candidates, and for a numeric
    column the two adjacent sorted values its cut lies between.
    """
    widths = [feats.size for _, feats in nodes]
    node = np.repeat(np.arange(len(nodes)), widths)
    position = np.arange(node.size) - np.repeat(np.cumsum(widths) - widths, widths)
    feats = np.concatenate([feats for _, feats in nodes])
    _, pairs, inverse = np.unique(  # the pairs searched, and each pair's among them
        same[node] * xt.shape[0] + feats, return_index=True, return_inverse=True
    )
    node_of, cols = node[pairs], feats[pairs]
    cat = is_categorical[cols]
    found = np.full((3, cols.size), -np.inf)
    if not cat.all():
        rows = [nodes[i][0] for i in node_of[~cat].tolist()]
        found[:, ~cat] = _search(xt, ranks, onehot, rows, cols[~cat], min_leaf, criterion)
    if cat.any():
        rows = [nodes[i][0] for i in node_of[cat].tolist()]
        found[0, cat] = _categorical_gains(
            xt, y, w, rows, cols[cat], onehot.shape[1], min_leaf, criterion
        )
    gains = np.full((3, len(nodes), max(widths)), -np.inf)
    gains[:, node, position] = found[:, inverse]
    return gains


def _categories(xt, idx, f):
    """Node rows ``idx`` by category of column ``f``, missing ones joining the largest (lowest)."""
    col = xt[f, idx]
    missing = np.isnan(col)
    groups = {int(c): idx[~missing & (col == c)] for c in np.unique(col[~missing])}
    if missing.any():
        largest = max(groups, key=lambda c: (len(groups[c]), -c))
        groups[largest] = np.concatenate([groups[largest], idx[missing]])
    return groups


def _thresholds(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Each cut between adjacent sorted values ``lo`` < ``hi``: a value at or above it goes right.

    The cut is the midpoint, each value halved first where their sum
    overflows, or ``hi`` where the midpoint rounds down onto ``lo``.
    """
    with np.errstate(all="ignore"):  # an overflow gives inf and no warning
        mid = (lo + hi) / 2.0
        mid = np.where(np.isfinite(mid), mid, lo / 2.0 + hi / 2.0)
    return np.where(mid <= lo, hi, mid)


def _partition(xt, w, rows, cols, lo, hi):
    """(threshold, default branch, left rows, right rows) of each pair's cut, all pairs at once.

    A pair of node rows and numeric column of ``xt`` is cut at the :func:`_thresholds` of
    its ``lo`` and ``hi``; missing rows go to the heavier side, left on a tie.  Children
    keep their node's row order.
    """
    sizes = np.array([r.size for r in rows])
    members, pair = np.concatenate(rows), np.repeat(np.arange(sizes.size), sizes)
    thresholds = _thresholds(lo, hi)
    col = np.take(xt, np.repeat(np.multiply(cols, xt.shape[1]), sizes) + members)
    missing = np.isnan(col)
    right = ~missing & ~(col < np.repeat(thresholds, sizes))
    weights, side = w[members] * ~missing, 2 * pair + right
    # sides summed in row order; NumPy's sums of m < 2**46 rows differ by under 2.02 m 2**-53
    # of the node's total, so only sides within 2**-50 m of it can compare otherwise
    sums = np.bincount(side, weights, 2 * sizes.size).reshape(-1, 2)
    defaults = (sums[:, 0] < sums[:, 1]).astype(np.intp)
    starts = np.cumsum(sizes) - sizes
    for i in np.flatnonzero(np.abs(sums[:, 0] - sums[:, 1]) <= sizes * 2.0**-50 * sums.sum(1)):
        node = slice(starts[i], starts[i] + sizes[i])
        on_right, node_weights = right[node], weights[node]
        defaults[i] = node_weights[~on_right & ~missing[node]].sum() < node_weights[on_right].sum()
    side += missing & (defaults[pair] == 1)
    ends = np.cumsum(np.bincount(side, minlength=2 * sizes.size)).tolist()
    ordered = members[np.argsort(side, kind="stable")]
    # copies, so a child waiting on its tree's stack holds no other node's rows
    children = [ordered[a:b].copy() for a, b in zip([0, *ends], ends)]
    return list(zip(thresholds.tolist(), defaults.tolist(), children[0::2], children[1::2]))


def grow(
    x, y, w, n_classes, trees, *, criterion, categorical=(), min_leaf=1, min_node=1
) -> list[dict]:
    """Independent trees over the rows of ``x`` with labels ``y`` and positive weights ``w``.

    ``trees`` gives each tree as ``(rows, features)``: the indices of its
    training rows (repeats allowed) and either an index array of every
    node's candidate columns or a callable giving a node's.  A node with
    fewer than ``min_node`` rows or a single class is a leaf.  Otherwise its
    candidate columns, in scan order, each give their best split (one child
    per category for ``categorical`` columns, which hold category indices),
    and the splits compete under :func:`_select_rows`.

    The trees grow in lockstep: each step takes nodes of every unfinished
    tree and searches the candidate columns of all of them together
    (:func:`_split_gains`).  A tree with fixed columns gives a step all its
    pending nodes, one level; a tree with a callable gives the next node of
    its stack, left child first, so a ``features`` that draws at random
    draws in pre-order.  Either way a node's split depends on its own rows
    and columns alone, so the nodes of a step with the same rows share the
    search of each of their columns and the partition on the column they
    split.  Returns the roots in the order of ``trees``.
    """
    n, n_features = x.shape
    is_categorical = np.zeros(n_features, dtype=bool)
    is_categorical[list(categorical)] = True
    xt = np.full((n_features, n + 1), np.nan)  # columns as rows; row n pads short nodes
    xt[:, :n] = x.T
    ranks = _ranks(xt)
    onehot = np.zeros((n + 1, n_classes))  # each row's weight in its class's column
    onehot[np.arange(n), y] = w
    roots = [{} for _ in trees]
    stacks = [[(root, np.asarray(rows, dtype=np.intp))] for root, (rows, _) in zip(roots, trees)]
    fixed = [None if callable(f) else np.asarray(f, dtype=np.intp) for _, f in trees]
    live = list(range(len(trees)))
    while live:
        popped = []
        for t in live:
            if fixed[t] is None:
                popped.append((t, *stacks[t].pop()))
            else:  # the whole level
                popped += [(t, *pending) for pending in stacks[t]]
                stacks[t] = []
        sizes = [idx.size for _, _, idx in popped]
        members = np.concatenate([idx for _, _, idx in popped])
        counts = np.bincount(
            np.repeat(np.arange(len(popped)) * n_classes, sizes) + y[members],
            weights=w[members], minlength=len(popped) * n_classes,
        ).reshape(-1, n_classes)
        dists = (counts / counts.sum(axis=1, keepdims=True)).tolist()
        mixed = np.count_nonzero(counts, axis=1) > 1
        searched = []  # (tree, node, rows, distribution, candidate columns)
        for (t, node, idx), dist, size, split in zip(popped, dists, sizes, mixed):
            if size >= min_node and split:
                feats = fixed[t] if fixed[t] is not None else trees[t][1]()
                searched.append((t, node, idx, dist, np.asarray(feats, dtype=np.intp)))
            else:
                node["p"] = dist
        if searched:
            # each node's first node with its rows, found by the hash of their bytes: a dict
            # of the bytes themselves would hold a copy of every node's rows at once
            first, same = {}, []
            for i, (_, _, idx, _, _) in enumerate(searched):
                j = first.setdefault(hash(rows := idx.tobytes()), i)
                same.append(j if j == i or rows == searched[j][2].tobytes() else i)
            gains, lo, hi = _split_gains(
                xt, ranks, y, w, onehot, [(s[2], s[4]) for s in searched], np.array(same),
                is_categorical, min_leaf, criterion,
            )
            top = _select_rows(gains).tolist()
            # (first node with the rows, numeric column) -> a node with them and the column's place
            numeric = {(same[i], int(searched[i][4][k])): (i, k) for i, k in enumerate(top)
                       if k >= 0 and not is_categorical[searched[i][4][k]]}
            parts = {}  # (first node with the rows, column) -> the split of those rows
            if numeric:  # numeric splits all at once
                i, k = np.array(list(numeric.values())).T
                parts = dict(zip(numeric, _partition(
                    xt, w, [searched[j][2] for j in i], [f for _, f in numeric], lo[i, k], hi[i, k]
                )))
            for i, k in enumerate(top):
                t, node, idx, dist, feats = searched[i]
                if k < 0:
                    node["p"] = dist
                    continue
                f = int(feats[k])
                if (key := (same[i], f)) not in parts:  # a categorical split
                    parts[key] = _categories(xt, idx, f)
                part = parts[key]
                if is_categorical[f]:
                    children = {c: {} for c in sorted(part)}
                    node.update(f=f, c=children, p=dist)
                    stacks[t] += [(children[c], part[c]) for c in reversed(children)]
                else:
                    threshold, default, left, right = part
                    node.update(f=f, t=threshold, d=default, l={}, r={})
                    stacks[t] += [(node["r"], right), (node["l"], left)]
        live = [t for t in live if stacks[t]]
    return roots


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


def mdl_cuts(values: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Fayyad and Irani's recursive MDL cuts of a column with integer ``labels``, ascending.

    A segment of the sorted values, first the whole column, is cut at the
    boundary between two runs of equal values whose runs hold different
    sets of classes and whose information gain :func:`_select_rows` picks,
    if the gain pays for coding the cut; each side is then searched alike.
    Every segment ends at a boundary, so its runs are the column's, found
    once.  The cuts lie where :func:`_partition` puts them
    (:func:`_thresholds`): a value at or above a cut belongs above it.
    """
    if values.size == 0:
        return np.empty(0)
    order = np.argsort(values, kind="stable")
    v = values[order]
    n_classes = int(labels.max()) + 1
    onehot = np.zeros((v.size, n_classes))
    onehot[np.arange(v.size), labels[order]] = 1.0
    prefix = np.vstack([np.zeros(n_classes), np.cumsum(onehot, axis=0)])
    bounds = 1 + np.flatnonzero(v[1:] != v[:-1])
    edges = np.concatenate(([0], bounds, [v.size]))
    in_run = (prefix[edges[1:]] - prefix[edges[:-1]]) > 0  # classes of each run
    candidates = bounds[(in_run[:-1] != in_run[1:]).any(axis=1)]
    found, stack = [], [(0, v.size)]
    while stack:
        lo, hi = stack.pop()
        pos = candidates[np.searchsorted(candidates, lo, "right") : np.searchsorted(candidates, hi)]
        total = prefix[hi] - prefix[lo]
        h_all = entropy(total)
        if pos.size == 0 or h_all == 0.0:
            continue
        n = hi - lo
        left = prefix[pos] - prefix[lo]
        right = total - left
        h_left, h_right = entropies(left), entropies(right)
        gains = h_all - (left.sum(axis=1) / n) * h_left - (right.sum(axis=1) / n) * h_right
        best = int(_select_rows(gains[None])[0])
        if best < 0:
            continue
        # the MDL criterion: the gain must pay for coding the cut
        k, k1, k2 = (int((counts > 0).sum()) for counts in (total, left[best], right[best]))
        delta = math.log2(3**k - 2) - (k * h_all - k1 * h_left[best] - k2 * h_right[best])
        if gains[best] > (math.log2(n - 1) + delta) / n:
            found.append(pos[best])
            stack += [(pos[best], hi), (lo, pos[best])]
    cut = np.sort(np.array(found, dtype=np.intp))
    return _thresholds(v[cut - 1], v[cut])
