"""Base classification algorithms and their k-fold cross-validated measures.

Four learners ship: an information-gain decision tree, Gaussian/Laplace naive
Bayes, k-nearest-neighbour with internally min-max normalized distances, and
L2-penalized multinomial logistic regression.  More can be plugged in through
:func:`register_learner`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize._lbfgsb import setulb
from scipy.stats import rankdata

from . import tree
from .dataset import Dataset, stratified_folds

MEASURES = ("acc", "prec", "rec", "auc")


@dataclass(frozen=True)
class ClassifierKind:
    """A base learner selector; ``k`` only matters for the ``knn`` family."""

    family: str
    k: int = 1

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be >= 1")

    @property
    def name(self) -> str:
        return f"knn:{self.k}" if self.family == "knn" else self.family


TREE = ClassifierKind("tree")
NAIVE_BAYES = ClassifierKind("nb")
LOGISTIC = ClassifierKind("logistic")


def knn(k: int = 1) -> ClassifierKind:
    return ClassifierKind("knn", k)


def parse_classifier(name: str) -> ClassifierKind:
    """Parse a canonical classifier name: ``tree``, ``nb``, ``knn:k``, ``logistic``."""
    name = name.strip()
    family, colon, k = name.partition(":")
    if family == "knn" and (not colon or k.isdecimal()):
        return ClassifierKind("knn", int(k) if colon else 1)
    if colon or name not in _LEARNERS:
        raise ValueError(f"unknown classifier {name!r}")
    return ClassifierKind(name)


@dataclass(frozen=True)
class PerformanceMeasures:
    """The four classification quality measures, each in [0, 1]."""

    accuracy: float
    precision: float
    recall: float
    auc: float

    def get(self, measure: str) -> float:
        try:
            field = {"acc": "accuracy", "prec": "precision", "rec": "recall", "auc": "auc"}[
                measure
            ]
        except KeyError:
            raise ValueError(f"unknown measure {measure!r}") from None
        return getattr(self, field)


class CallCounter:
    """Counts cross-validation runs, for cost assertions."""

    def __init__(self):
        self.value = 0

    def increment(self):
        self.value += 1

    def reset(self):
        self.value = 0


#: incremented on every cross_validate call
CV_RUNS = CallCounter()


# --- decision tree --------------------------------------------------------


def _learner_tree(kind, ds, train_rows, tests, seed):
    """Information-gain trees, one per fold, grown together over the rows of ``ds``.

    Leaves hold at least 2 rows; a categorical split has one child per category.
    """
    predictors = np.asarray(ds.predictor_indices)
    roots = tree.grow(
        ds.rows, ds.class_labels, np.ones(ds.n_rows), len(ds.class_attribute.categories),
        [(rows, lambda: predictors) for rows in train_rows],
        criterion=tree.ENTROPY, categorical=frozenset(ds.categorical_predictors), min_leaf=2,
    )
    for root, test in zip(roots, tests):
        yield np.vstack([tree.leaf(root, row)["p"] for row in test.rows])


# --- naive Bayes -----------------------------------------------------------

_NB_VAR_FLOOR = 1e-9


def _learner_nb(kind, train, test, seed):
    n_classes = len(train.class_attribute.categories)
    y = train.class_labels
    counts = np.bincount(y, minlength=n_classes).astype(float)
    log_prior = np.full(n_classes, -np.inf)
    observed = counts > 0
    log_prior[observed] = np.log(counts[observed] / counts.sum())

    cont = train.continuous_predictors
    cat = train.categorical_predictors
    gauss = {}
    for j in cont:
        col = train.column(j)
        for c in range(n_classes):
            vals = col[(y == c) & ~np.isnan(col)]
            if vals.size == 0:
                continue  # factor skipped for this class
            mean = float(vals.mean())
            var = float(np.var(vals, ddof=1)) if vals.size > 1 else 0.0
            gauss[(j, c)] = (mean, max(var, _NB_VAR_FLOOR))
    tables = {}
    for j in cat:
        col = train.column(j)
        k = len(train.attributes[j].categories)
        table = np.ones((n_classes, k))  # Laplace +1
        present = ~np.isnan(col)
        np.add.at(table, (y[present], col[present].astype(int)), 1.0)
        tables[j] = np.log(table / table.sum(axis=1, keepdims=True))

    scores = np.zeros((test.n_rows, n_classes))
    for i, row in enumerate(test.rows):
        logp = log_prior.copy()
        for j in cont:
            v = row[j]
            if math.isnan(v):
                continue
            for c in range(n_classes):
                params = gauss.get((j, c))
                if params is None:
                    continue
                mean, var = params
                logp[c] += -0.5 * math.log(2.0 * math.pi * var) - (v - mean) ** 2 / (
                    2.0 * var
                )
        for j in cat:
            v = row[j]
            if math.isnan(v):
                continue
            logp += tables[j][:, int(v)]
        shifted = np.exp(logp - logp[np.isfinite(logp)].max())
        shifted[~np.isfinite(shifted)] = 0.0
        scores[i] = shifted / shifted.sum()
    return scores


# --- k nearest neighbours ----------------------------------------------------


#: test rows per distance block; bounds the block's n_train-wide temporaries
_KNN_BLOCK_ROWS = 64


def _learner_knn(kind, train, test, seed):
    """Vote shares of the k nearest training rows.

    The squared distance adds, per predictor, the squared difference of
    values min-max normalized on the training column (0 when it is
    constant), or 0/1 for equal/different categories; a cell missing on
    either side adds 1.  The neighbours are the first k training rows by
    (distance, row index): every row closer than the k-th smallest distance,
    then rows at that distance in ascending row order, as a stable sort
    orders them.  Test rows are scored in blocks of ``_KNN_BLOCK_ROWS``.
    """
    n_classes = len(train.class_attribute.categories)
    y = train.class_labels
    k = min(kind.k, train.n_rows)
    columns = []  # (continuous?, train values, test values, train missing, test missing)
    for j in train.predictor_indices:
        tr = train.column(j)
        te = test.column(j)
        tr_missing, te_missing = np.isnan(tr), np.isnan(te)
        is_cont = train.attributes[j].is_continuous
        if is_cont:
            vals = tr[~tr_missing]
            if vals.size:
                lo, hi = vals.min(), vals.max()
                span = hi - lo
            else:
                lo, span = 0.0, 0.0
            if span > 0:
                tr = (tr - lo) / span
                te = (te - lo) / span
            else:
                tr = np.where(tr_missing, np.nan, 0.0)
                te = np.where(te_missing, np.nan, 0.0)
        columns.append((is_cont, tr, te, tr_missing, te_missing))
    scores = np.zeros((test.n_rows, n_classes))
    for start in range(0, test.n_rows, _KNN_BLOCK_ROWS):
        stop = min(start + _KNN_BLOCK_ROWS, test.n_rows)
        dist2 = np.zeros((stop - start, train.n_rows))
        for is_cont, tr, te, tr_missing, te_missing in columns:
            if is_cont:
                contrib = te[start:stop, None] - tr[None, :]
                contrib *= contrib
                contrib[te_missing[start:stop]] = 1.0
                contrib[:, tr_missing] = 1.0
                dist2 += contrib
            else:
                dist2 += te[start:stop, None] != tr[None, :]  # a missing cell differs too
        rows, neighbours = np.nonzero(_nearest(dist2, k))
        votes = np.bincount(
            rows * n_classes + y[neighbours], minlength=(stop - start) * n_classes
        )
        scores[start:stop] = votes.reshape(-1, n_classes) / k
    return scores


def _nearest(dist2: np.ndarray, k: int) -> np.ndarray:
    """Mask of the first k columns of each row by (distance, column index)."""
    kth = np.partition(dist2, k - 1, axis=1)[:, k - 1 : k]
    if np.isnan(kth).any():
        # a NaN distance (only from values overflowing the float range) sorts last
        order = np.argsort(dist2, axis=1, kind="stable")[:, :k]
        taken = np.zeros(dist2.shape, dtype=bool)
        np.put_along_axis(taken, order, True, axis=1)
        return taken
    closer = dist2 < kth
    tied = dist2 == kth
    wanted = k - closer.sum(axis=1)
    over = np.flatnonzero(tied.sum(axis=1) > wanted)  # rows with more ties than places
    tied[over] &= np.cumsum(tied[over], axis=1) <= wanted[over, None]
    return closer | tied


# --- logistic regression -----------------------------------------------------

_LOGISTIC_L2 = 1e-4


def _logistic_design(train: Dataset):
    """Column builders for the one-hot, imputed, standardized design matrix."""
    builders = []
    for j in train.predictor_indices:
        col = train.column(j)
        present = ~np.isnan(col)
        vals = col[present]
        if train.attributes[j].is_continuous:
            fill = float(vals.mean()) if vals.size else 0.0
            filled = np.where(present, col, fill)
            mean = float(filled.mean())
            std = float(filled.std(ddof=1)) if filled.size > 1 else 0.0
            builders.append(("num", j, fill, mean, std))
        else:
            if vals.size:
                counts = np.bincount(
                    vals.astype(int), minlength=len(train.attributes[j].categories)
                )
                fill = int(np.argmax(counts))
            else:
                fill = 0
            builders.append(("cat", j, fill, len(train.attributes[j].categories)))
    return builders


def _logistic_apply(builders, ds: Dataset, out=None) -> np.ndarray:
    """The design matrix of ``ds``, written into ``out`` when given."""
    cols = []
    for builder in builders:
        if builder[0] == "num":
            _, j, fill, mean, std = builder
            col = ds.column(j)
            filled = np.where(np.isnan(col), fill, col)
            cols.append((filled - mean) / std if std > 0 else np.zeros(ds.n_rows))
        else:
            _, j, fill, k = builder
            col = ds.column(j)
            filled = np.where(np.isnan(col), float(fill), col).astype(int)
            onehot = np.zeros((ds.n_rows, k))
            onehot[np.arange(ds.n_rows), filled] = 1.0
            cols.append(onehot)
    return np.concatenate([c if c.ndim == 2 else c[:, None] for c in cols], axis=1, out=out)


def _logistic_objective(x: np.ndarray, y: np.ndarray, n_classes: int):
    """``objective(params) -> (losses, gradients)`` of the ridge multinomial model, per fold.

    ``x`` stacks the folds' (n, d) designs and ``y`` their labels.  Row i of
    ``params`` holds fold i's (d, n_classes) weights row by row, then its
    n_classes intercepts; its loss is the mean log-loss over the rows of
    ``x[i]`` plus ``_LOGISTIC_L2 / 2`` times the squared weights.  A fold's
    loss and gradient are those of its 2-D arithmetic alone, bit for bit:
    stacked ``matmul`` makes one gemm per fold and each sum runs along the
    same axis.  Every call writes into the same buffers and returns them.
    """
    n_folds, n, d = x.shape
    n_weights = d * n_classes
    folds, rows = np.ogrid[:n_folds, :n]
    onehot = np.zeros((n_folds, n, n_classes))
    onehot[folds, rows, y] = 1.0
    xt = x.transpose(0, 2, 1)
    proba = np.empty((n_folds, n, n_classes))
    squares = np.empty((n_folds, n_weights))
    losses = np.empty(n_folds)
    gradients = np.empty((n_folds, n_weights + n_classes))
    grad_w = gradients[:, :n_weights].reshape(n_folds, d, n_classes)
    grad_b = gradients[:, n_weights:]

    def objective(params):
        flat_w = params[:, :n_weights]
        w = flat_w.reshape(n_folds, d, n_classes)
        np.matmul(x, w, out=proba)
        np.add(proba, params[:, None, n_weights:], out=proba)
        top = proba[:, :, 0].copy()
        for c in range(1, n_classes):  # row maxima, exact in any order
            np.maximum(top, proba[:, :, c], out=top)
        np.subtract(proba, top[:, :, None], out=proba)
        np.exp(proba, out=proba)
        np.divide(proba, np.add.reduce(proba, axis=2, keepdims=True), out=proba)
        picked = np.maximum(proba[folds, rows, y], 1e-300)
        np.add.reduce(np.log(picked, out=picked), axis=1, out=losses)
        np.divide(losses, -n, out=losses)  # -(sum / n), bit for bit
        np.multiply(flat_w, flat_w, out=squares)
        np.add(losses, 0.5 * _LOGISTIC_L2 * np.add.reduce(squares, axis=1), out=losses)
        np.subtract(proba, onehot, out=proba)  # n times the loss gradient per logit
        np.divide(proba, n, out=proba)
        np.matmul(xt, proba, out=grad_w)
        np.add(grad_w, _LOGISTIC_L2 * w, out=grad_w)
        np.add.reduce(proba, axis=1, out=grad_b)
        return losses, gradients

    return objective


# L-BFGS-B settings: those of ``scipy.optimize.minimize(method="L-BFGS-B")``
# with options maxiter=1000, gtol=1e-6 and ftol=1e-14
_LBFGSB_MEMORY = 10
_LBFGSB_FACTR = 1e-14 / np.finfo(float).eps
_LBFGSB_PGTOL = 1e-6
_LBFGSB_MAX_LINE_SEARCH = 20
_LBFGSB_MAX_ITERATIONS = 1000
_LBFGSB_MAX_EVALUATIONS = 15000
# setulb's task codes
_FG, _NEW_X, _STOP = 3, 1, 5


def _lbfgsb(objective, n_folds: int, n_params: int):
    """Minimize each fold's loss from zeros by L-BFGS-B, the folds in lockstep.

    ``objective(params) -> (losses, gradients)`` evaluates every fold, row
    i being fold i's.  Each fold runs the unbounded L-BFGS-B of Zhu et al.
    (1997, Algorithm 778) through SciPy's ``setulb`` with its own
    workspaces, in the loop of ``scipy.optimize``'s ``_minimize_lbfgsb``
    with the same settings, so its point is ``minimize``'s, bit for bit.  A
    fold stops on convergence or a warning, after ``_LBFGSB_MAX_ITERATIONS``
    iterations, or at the end of the first iteration past
    ``_LBFGSB_MAX_EVALUATIONS`` evaluations (``minimize`` would not count
    one at the point evaluated last; L-BFGS-B never asks for it).  Each step
    runs every running fold's ``setulb`` until it asks for f and g, then
    evaluates all folds.  Returns the points and each fold's evaluations.
    """
    m, n = _LBFGSB_MEMORY, n_params
    params = np.zeros((n_folds, n))  # setulb moves fold i's point, row i, in place
    losses, gradients = np.zeros(n_folds), np.zeros((n_folds, n))
    bound = np.zeros(n)  # unused: every bound type is 0, unbounded
    bound_type = np.zeros(n, dtype=np.int32)
    workspaces = [  # per fold: wa, iwa, task, ln_task, lsave, isave, dsave
        (np.zeros(2 * m * n + 5 * n + 11 * m * m + 8 * m), np.zeros(3 * n, dtype=np.int32),
         *(np.zeros(k, dtype=np.int32) for k in (2, 2, 4, 44)), np.zeros(29))
        for _ in range(n_folds)
    ]
    iterations, evaluations = [0] * n_folds, np.zeros(n_folds, dtype=int)

    def asks_for_fg(i):
        wa, iwa, task, ln_task, lsave, isave, dsave = workspaces[i]
        while True:
            setulb(
                m, params[i], bound, bound, bound_type, losses[i], gradients[i],
                _LBFGSB_FACTR, _LBFGSB_PGTOL, wa, iwa, task, lsave, isave, dsave,
                _LBFGSB_MAX_LINE_SEARCH, ln_task,
            )
            if task[0] != _NEW_X:
                return task[0] == _FG
            iterations[i] += 1
            if iterations[i] >= _LBFGSB_MAX_ITERATIONS:
                task[:] = _STOP, 504  # iteration limit
            elif evaluations[i] > _LBFGSB_MAX_EVALUATIONS:
                task[:] = _STOP, 502  # evaluation limit

    running = range(n_folds)
    while running := [i for i in running if asks_for_fg(i)]:
        losses, gradients = objective(params)
        evaluations[running] += 1
    return params, evaluations


#: design cells (folds x rows x columns) of one stack of folds; a fold over it goes alone
_LOGISTIC_BATCH_CELLS = 2**18


def _learner_logistic(kind, ds, train_rows, tests, seed):
    """Ridge multinomial logistic regression, solved for folds together.

    Folds whose design matrices have the same shape go in stacks of at most
    ``_LOGISTIC_BATCH_CELLS`` cells, each solved by one :func:`_lbfgsb` run.
    """
    n_classes = len(ds.class_attribute.categories)
    builders = [_logistic_design(ds.subset(rows)) for rows in train_rows]
    shapes = {}
    for i, (rows, fold_builders) in enumerate(zip(train_rows, builders)):
        d = sum(1 if b[0] == "num" else b[3] for b in fold_builders)
        shapes.setdefault((len(rows), d), []).append(i)
    params = {}
    for (n, d), folds in shapes.items():
        step = max(1, _LOGISTIC_BATCH_CELLS // (n * d))
        for chunk in (folds[i : i + step] for i in range(0, len(folds), step)):
            x = np.empty((len(chunk), n, d))
            for slot, i in zip(x, chunk):
                _logistic_apply(builders[i], ds.subset(train_rows[i]), out=slot)
            y = ds.class_labels[np.array([train_rows[i] for i in chunk])]
            objective = _logistic_objective(x, y, n_classes)
            params.update(zip(chunk, _lbfgsb(objective, len(chunk), (d + 1) * n_classes)[0]))
            del x, objective  # so the next stack is not allocated beside this one
    for i, test in enumerate(tests):
        w = params[i][:-n_classes].reshape(-1, n_classes)
        logits = _logistic_apply(builders[i], test) @ w + params[i][-n_classes:]
        logits -= logits.max(axis=1, keepdims=True)
        exp = np.exp(logits)
        yield exp / exp.sum(axis=1, keepdims=True)


# --- dispatch and cross-validation -------------------------------------------


def _one_fold_at_a_time(fn):
    """The learner protocol around ``fn(kind, train, test, seed) -> scores``.

    A learner takes ``(kind, ds, train_rows, tests, seed)``: per fold the
    indices of its training rows in ``ds`` and its test dataset, ``tests``
    an iterable read once.  It yields each fold's (n_test, n_classes) class
    scores in fold order.  This one trains ``fn`` on one fold at a time.
    """

    def learner(kind, ds, train_rows, tests, seed):
        for rows, test in zip(train_rows, tests):
            yield fn(kind, ds.subset(rows), test, seed)

    return learner


_LEARNERS = {
    "tree": _learner_tree,
    "nb": _one_fold_at_a_time(_learner_nb),
    "knn": _one_fold_at_a_time(_learner_knn),
    "logistic": _learner_logistic,
}


def register_learner(family: str, fn) -> None:
    """Register a learner callable ``fn(kind, train, test, seed) -> scores``.

    ``scores`` must be an (n_test, n_classes) array of class scores.
    """
    _LEARNERS[family] = _one_fold_at_a_time(fn)


def learner_families() -> tuple[str, ...]:
    """Every learner family with a registered learner, in registration order."""
    return tuple(_LEARNERS)


def _fold_scores(kind: ClassifierKind, ds: Dataset, train_rows, tests, seed: int):
    """Each fold's class scores from the learner of ``kind``; see :func:`_one_fold_at_a_time`."""
    learner = _LEARNERS.get(kind.family)
    if learner is None:
        raise ValueError(f"no learner registered for {kind.family!r}")
    if any(len(rows) == 0 for rows in train_rows):
        raise ValueError("empty training split")
    for scores in learner(kind, ds, train_rows, tests, seed):
        yield np.asarray(scores, dtype=float)


def fit_predict(kind: ClassifierKind, train: Dataset, test: Dataset, seed: int):
    """Train on ``train`` and score ``test``; returns [(class index, scores), ...].

    The predicted class is the argmax of the score vector, ties going to the
    lowest class index.  Deterministic given the seed.
    """
    if train.attributes != test.attributes or train.class_index != test.class_index:
        raise ValueError("train and test datasets have different schemas")
    [scores] = _fold_scores(kind, train, [np.arange(train.n_rows)], [test], seed)
    preds = scores.argmax(axis=1)
    return [(int(p), scores[i]) for i, p in enumerate(preds)]


def cross_validate(
    kind: ClassifierKind, ds: Dataset, k: int = 10, *, seed: int
) -> PerformanceMeasures:
    """Stratified k-fold cross-validation with predictions pooled across folds."""
    CV_RUNS.increment()
    assignment = stratified_folds(ds, k, seed)
    fold_of_row = np.asarray(assignment.fold_of_row)
    train_rows = [np.flatnonzero(fold_of_row != f) for f in range(k)]
    test_rows = [np.flatnonzero(fold_of_row == f) for f in range(k)]
    tests = (ds.subset(rows) for rows in test_rows)  # one test copy at a time
    preds = np.empty(ds.n_rows, dtype=int)
    scores = np.zeros((ds.n_rows, len(ds.class_attribute.categories)))
    for test_idx, fold_scores in zip(test_rows, _fold_scores(kind, ds, train_rows, tests, seed)):
        preds[test_idx] = fold_scores.argmax(axis=1)
        scores[test_idx] = fold_scores
    return _pooled_measures(ds.class_labels, preds, scores)


def _pooled_measures(true, preds, scores) -> PerformanceMeasures:
    n = true.size
    n_classes = scores.shape[1]
    accuracy = float((preds == true).mean())

    # macro averages; per-class terms with an empty denominator are dropped
    recalls = []
    precisions = []
    for c in range(n_classes):
        true_c = true == c
        pred_c = preds == c
        if true_c.any():
            recalls.append(float((pred_c & true_c).sum() / true_c.sum()))
        if pred_c.any():
            precisions.append(float((pred_c & true_c).sum() / pred_c.sum()))
    recall = float(np.mean(recalls)) if recalls else 0.0
    precision = float(np.mean(precisions)) if precisions else 0.0

    # class-frequency-weighted one-vs-rest rank AUC
    aucs = []
    weights = []
    for c in range(n_classes):
        pos = true == c
        n_pos = int(pos.sum())
        if n_pos == 0 or n_pos == n:
            continue
        ranks = rankdata(scores[:, c])
        r_pos = ranks[pos].sum()
        auc_c = (r_pos - n_pos * (n_pos + 1) / 2.0) / (n_pos * (n - n_pos))
        aucs.append(auc_c)
        weights.append(n_pos)
    if aucs:
        auc = float(np.average(aucs, weights=weights))
    else:
        auc = 0.5  # single observed class: ranking quality is undefined
    return PerformanceMeasures(accuracy, precision, recall, auc)
