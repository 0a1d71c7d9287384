"""Base classification algorithms and their k-fold cross-validated measures.

Four learners ship: an information-gain decision tree, Gaussian/Laplace naive
Bayes, k-nearest-neighbour with internally min-max normalized distances, and
L2-penalized multinomial logistic regression.
"""

from __future__ import annotations

import importlib.util
import math
import sys
from collections import Counter
from dataclasses import astuple, dataclass, replace
from functools import cache, partial
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder

import numpy as np

from . import tree
from .dataset import Dataset, column_key, stratified_folds

MEASURES = ("acc", "prec", "rec", "auc")

#: the learner families, one learner each
FAMILIES = ("tree", "nb", "knn", "logistic")


@dataclass(frozen=True)
class ClassifierKind:
    """A base learner selector; ``k`` only matters for the ``knn`` family."""

    family: str
    k: int = 1

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown classifier family {self.family!r}")
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
    if colon:
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
        if measure not in MEASURES:
            raise ValueError(f"unknown measure {measure!r}")
        return astuple(self)[MEASURES.index(measure)]  # the fields in MEASURES order


class CallCounter:
    """Counts units of work, for cost assertions."""

    def __init__(self):
        self.value = 0

    def increment(self):
        self.value += 1

    def reset(self):
        self.value = 0


#: incremented once per dataset that cross_validate measures
CV_RUNS = CallCounter()

#: incremented once per (fold, predictor column) result that nb, kNN or logistic computes
COLUMN_FOLDS = CallCounter()

#: cells that the shared results of one cross_validate call hold together
_SHARED_CELLS = 2**20


def _column_ids(datasets) -> list[dict]:
    """Each dataset's ``{predictor: id}``, equal ids for equal :func:`column_key` columns."""
    keys = {}
    return [
        {j: keys.setdefault(column_key(ds, j), len(keys)) for j in ds.predictor_indices}
        for ds in datasets
    ]


class _Shared:
    """One fold's results per (distinct column, scope), each kept only for later readers.

    The datasets share rows and labels.  A result is kept, within ``_SHARED_CELLS``, until
    the last of ``readers[column]`` (dataset, predictor) slots holding its column reads it,
    so a column that one slot holds is never kept.
    """

    def __init__(self, ids, readers):
        self.ids, self.readers = ids, readers
        self.cache, self.reads, self.cells = {}, {}, 0

    def get(self, a, j, scope, fn, *args):
        """``fn(*args)``: the result in ``scope`` for column ``j`` of dataset ``a``."""
        key = (self.ids[a][j], scope)
        reads = self.reads[key] = self.reads.get(key, 0) + 1
        later = reads < self.readers[key[0]]
        if key in self.cache:
            value, cells = self.cache[key] if later else self.cache.pop(key)
            self.cells -= 0 if later else cells
            return value
        value = fn(*args)
        parts = value if isinstance(value, tuple) else (value,)
        cells = sum(getattr(v, "size", 1) for v in parts)
        if later and self.cells + cells <= _SHARED_CELLS:
            self.cache[key], self.cells = (value, cells), self.cells + cells
        return value


def _fold_by_fold(score, datasets, train_rows, test_rows):
    """Each dataset's fold results ``score(ds, train, test, y, column)``, fold by fold."""
    ids, labels, results = _column_ids(datasets), datasets[0].class_labels, [[] for _ in datasets]
    readers = Counter(c for ds_ids in ids for c in ds_ids.values())
    for train, test in zip(train_rows, test_rows):
        shared = _Shared(ids, readers)
        for a, ds in enumerate(datasets):
            results[a].append(score(ds, train, test, labels[train], partial(shared.get, a)))
    return results


# --- decision tree --------------------------------------------------------


#: cells (rows x stacked columns) of datasets whose fold trees grow together
_TREE_BATCH_CELLS = 2**18


def _learner_tree(datasets, train_rows, test_rows):
    """Information-gain trees; the fold trees of several datasets grow together.

    Consecutive datasets of at most ``_TREE_BATCH_CELLS`` cells (one over it
    alone) share a :func:`tree.grow` over their distinct predictor columns,
    each stacked once, and each fold tree takes its dataset's predictors
    among them as fixed candidates, so it grows a level per step.  Leaves
    hold at least 2 rows; a categorical split has one child per category.
    """
    ids, groups = iter(_column_ids(datasets)), [[]]  # each dataset's column ids, in turn
    for ds in datasets:
        if groups[-1] and sum(d.rows.size for d in groups[-1]) + ds.rows.size > _TREE_BATCH_CELLS:
            groups.append([])
        groups[-1].append(ds)
    for group in groups:
        stacked, trees = {}, []  # each distinct column's id -> (index in x, dataset, column)
        for ds in group:
            predictors = np.array([
                stacked.setdefault(c, (len(stacked), ds, j))[0] for j, c in next(ids).items()
            ])
            trees += [(rows, predictors) for rows in train_rows]  # its own columns
        x = np.column_stack([ds.rows[:, j] for _, ds, j in stacked.values()])
        categorical = [i for i, ds, j in stacked.values() if ds.attributes[j].is_categorical]
        roots = tree.grow(  # every dataset has the rows and class column of the last
            x, ds.class_labels, np.ones(ds.n_rows), len(ds.class_attribute.categories), trees,
            criterion=tree.ENTROPY, categorical=categorical, min_leaf=2,
        )
        tests = [x[rows] for rows in test_rows] * len(group)
        scores = [np.vstack([tree.leaf(r, t)["p"] for t in test]) for r, test in zip(roots, tests)]
        yield from (scores[i : i + len(test_rows)] for i in range(0, len(scores), len(test_rows)))


# --- naive Bayes -----------------------------------------------------------

_NB_VAR_FLOOR = 1e-9


def _nb_column(ds, j, train_rows, test_rows, y):
    """Predictor ``j``'s fold addend to the test rows' class log-likelihoods, 0.0 for no factor.

    A categorical predictor's Laplace table is one (class, category) count of its training
    cells plus 1.  Adding 0.0 is exact: a log-likelihood, a log prior plus factors, is never
    -0.0.
    """
    COLUMN_FOLDS.increment()
    col, v = ds.rows[train_rows, j], ds.rows[test_rows, j]
    present, n_classes = ~np.isnan(v), len(ds.class_attribute.categories)
    addend = np.zeros((len(v), n_classes))
    if ds.attributes[j].is_categorical:
        n_categories, known = len(ds.attributes[j].categories), ~np.isnan(col)
        counts = np.bincount(y[known] * n_categories + col[known].astype(int),
                             minlength=n_classes * n_categories)
        table = 1.0 + counts.reshape(n_classes, n_categories)
        log_table = np.log(table / table.sum(axis=1, keepdims=True))
        addend[present] = log_table[:, v[present].astype(int)].T
        return addend
    for c in range(n_classes):
        vals = col[(y == c) & ~np.isnan(col)]
        if vals.size:
            mean = float(vals.mean())
            var = max(float(np.var(vals, ddof=1)) if vals.size > 1 else 0.0, _NB_VAR_FLOOR)
            d = v[present] - mean
            # libm pow, rounding as Python's ``**`` does; an exponent of scalar 2 squares
            square = np.float_power(d, np.full_like(d, 2.0))
            addend[present, c] = -0.5 * math.log(2.0 * math.pi * var) - square / (2.0 * var)
    return addend


def _nb_fold(ds, train_rows, test_rows, y, column):
    """Naive Bayes class posteriors of ``ds``'s ``test_rows``, trained on its ``train_rows``.

    Continuous predictors are Gaussian, categorical ones Laplace-smoothed.  A
    missing cell adds no factor, nor does a continuous predictor to a class
    with no value of it in training; a class absent from training gets
    posterior 0.  Each test row adds its factors to the log prior in
    predictor order, continuous predictors first.
    """
    with np.errstate(divide="ignore"):  # a class absent from training: -inf
        log_prior = np.log(np.bincount(y, minlength=len(ds.class_attribute.categories)) / len(y))
    logp = np.tile(log_prior, (len(test_rows), 1))
    for j in ds.continuous_predictors + ds.categorical_predictors:
        logp += column(j, "nb", _nb_column, ds, j, train_rows, test_rows, y)
    finite = np.isfinite(logp)
    if not finite.any(axis=1).all():
        raise ValueError("a test row has no finite class log-likelihood")
    shifted = np.exp(logp - logp.max(axis=1, keepdims=True, where=finite, initial=-np.inf))
    shifted[~np.isfinite(shifted)] = 0.0
    return shifted / shifted.sum(axis=1, keepdims=True)


# --- k nearest neighbours ----------------------------------------------------


#: distances (test rows x training rows) per block, at least one test row; bounds its temporaries
_KNN_BLOCK_CELLS = 2**16


def _knn_column(ds, j, train_rows, test_rows):
    """Predictor ``j``'s (continuous?, train values, test values, their NaN masks) in a fold."""
    COLUMN_FOLDS.increment()
    tr, te = ds.rows[train_rows, j], ds.rows[test_rows, j]
    tr_missing, te_missing = np.isnan(tr), np.isnan(te)
    if is_cont := ds.attributes[j].is_continuous:
        vals = tr[~tr_missing]
        lo, span = (vals.min(), vals.max() - vals.min()) if vals.size else (0.0, 0.0)
        if span > 0:
            tr, te = (tr - lo) / span, (te - lo) / span
        else:
            tr, te = np.where(tr_missing, np.nan, 0.0), np.where(te_missing, np.nan, 0.0)
    return is_cont, tr, te, tr_missing, te_missing


def _knn_distances(column, start, stop):
    """A :func:`_knn_column`'s addend to the squared distances of test rows ``start:stop``."""
    is_cont, tr, te, tr_missing, te_missing = column
    if not is_cont:
        return te[start:stop, None] != tr[None, :]  # a missing cell differs too
    contrib = te[start:stop, None] - tr[None, :]
    contrib *= contrib
    if te_missing[start:stop].any():
        contrib[te_missing[start:stop]] = 1.0
    if tr_missing.any():
        contrib[:, tr_missing] = 1.0
    return contrib


def _knn_fold(kind, ds, train, test, y, column):
    """Votes of the k nearest of ``ds``'s ``train`` rows for each of its ``test`` rows.

    The squared distance adds, per predictor, the squared difference of
    values min-max normalized on the training column (0 when it is
    constant), or 0/1 for equal/different categories; a cell missing on
    either side adds 1.  The neighbours are the first k training rows by
    (distance, row index): every row closer than the k-th smallest distance,
    then rows at that distance in ascending row order, as a stable sort
    orders them.  A block of test rows holds at most ``_KNN_BLOCK_CELLS``
    distances, or one test row.
    """
    n_classes, n_test, k = len(ds.class_attribute.categories), len(test), min(kind.k, len(y))
    columns = [column(j, "knn", _knn_column, ds, j, train, test) for j in ds.predictor_indices]
    votes = np.zeros((n_test, n_classes), dtype=np.min_scalar_type(k))  # small counts
    step = max(1, _KNN_BLOCK_CELLS // len(y))
    for start in range(0, n_test, step):
        stop = min(start + step, n_test)
        dist2 = np.zeros((stop - start, len(y)))
        for j, col in zip(ds.predictor_indices, columns):
            dist2 += column(j, start, _knn_distances, col, start, stop)
        rows, neighbours = np.nonzero(_nearest(dist2, k))
        votes[start:stop] = np.bincount(
            rows * n_classes + y[neighbours], minlength=(stop - start) * n_classes
        ).reshape(-1, n_classes)
    return votes


def _learner_knn(kind, datasets, train_rows, test_rows):
    """Vote shares of :func:`_knn_fold`, each dataset's made once the catalog is scored."""
    for folds in _fold_by_fold(partial(_knn_fold, kind), datasets, train_rows, test_rows):
        yield [votes / min(kind.k, len(rows)) for votes, rows in zip(folds, train_rows)]


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


def _logistic_design(ds: Dataset, j, rows) -> tuple:
    """The builder of predictor ``j``'s imputed, standardized or one-hot columns on ``rows``."""
    COLUMN_FOLDS.increment()
    col = ds.rows[rows, j]
    present = ~np.isnan(col)
    vals = col[present]
    if ds.attributes[j].is_continuous:
        fill = float(vals.mean()) if vals.size else 0.0
        filled = np.where(present, col, fill)
        std = float(filled.std(ddof=1)) if filled.size > 1 else 0.0
        return "num", fill, float(filled.mean()), std
    k = len(ds.attributes[j].categories)
    return "cat", int(np.argmax(np.bincount(vals.astype(int), minlength=k))) if vals.size else 0, k


def _logistic_apply(builder, ds: Dataset, j, rows) -> np.ndarray:
    """Predictor ``j``'s (n, width) design block of ``ds``'s ``rows``, by its builder."""
    col = ds.rows[rows, j]
    if builder[0] == "num":
        _, fill, mean, std = builder
        filled = np.where(np.isnan(col), fill, col)
        return ((filled - mean) / std if std > 0 else np.zeros(len(rows)))[:, None]
    _, fill, k = builder
    filled = np.where(np.isnan(col), float(fill), col).astype(int)
    onehot = np.zeros((len(rows), k))
    onehot[np.arange(len(rows)), filled] = 1.0
    return onehot


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
    own = np.arange(n_folds * n).reshape(n_folds, n) * n_classes + y  # each row's class, flat
    xt = x.transpose(0, 2, 1)
    proba = np.empty((n_folds, n, n_classes))
    flat_proba = proba.reshape(-1)
    picked = np.empty((n_folds, n))
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
        np.divide(proba, tree._class_sums(proba)[:, :, None], out=proba)
        np.take(flat_proba, own, out=picked, mode="clip")  # all in range; "raise" would buffer
        np.maximum(picked, 1e-300, out=picked)
        np.add.reduce(np.log(picked, out=picked), axis=1, out=losses)
        np.divide(losses, -n, out=losses)  # -(sum / n), bit for bit
        np.multiply(flat_w, flat_w, out=squares)
        np.add(losses, 0.5 * _LOGISTIC_L2 * np.add.reduce(squares, axis=1), out=losses)
        flat_proba[own] -= 1.0  # n times the loss gradient per logit
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


def _extension_spec(directory: str, name: str):  # extension module ``name``'s file there, or None
    return FileFinder(directory, (ExtensionFileLoader, EXTENSION_SUFFIXES)).find_spec(name)


@cache
def _setulb():
    """SciPy's L-BFGS-B routine ``setulb``, loaded when a logistic fit first needs it.

    ``import scipy.optimize`` costs about 0.55 s and 40 MB; unless it is loaded already,
    only its ``_lbfgsb`` extension file is loaded, located without importing SciPy.
    """
    name, scipy = "scipy.optimize._lbfgsb", importlib.util.find_spec("scipy")
    optimize = scipy and f"{scipy.submodule_search_locations[0]}/optimize"
    if name in sys.modules or not (spec := optimize and _extension_spec(optimize, name)):
        return importlib.import_module(name).setulb  # loaded, no file (zipped SciPy), no SciPy
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.modules.pop(name, None)  # where a single-phase extension registers itself
    return module.setulb


def _lbfgsb(x: np.ndarray, y: np.ndarray, n_classes: int):
    """Minimize each fold's loss from zeros by L-BFGS-B, the folds in lockstep.

    ``x`` and ``y`` stack the folds' designs and labels as
    :func:`_logistic_objective` takes them.  Each fold runs the unbounded
    L-BFGS-B of Zhu et al. (1997, Algorithm 778) through SciPy's ``setulb``
    with its own workspaces, in the loop of ``scipy.optimize``'s
    ``_minimize_lbfgsb`` with the same settings, so its point is
    ``minimize``'s, bit for bit.  A fold stops on convergence or a warning,
    after ``_LBFGSB_MAX_ITERATIONS`` iterations, or at the end of the first
    iteration past ``_LBFGSB_MAX_EVALUATIONS`` evaluations (``minimize``
    would not count one at the point evaluated last; L-BFGS-B never asks for
    it).  Each step runs every running fold's ``setulb`` until it asks for f
    and g, then evaluates the objective's folds; once at most half of those
    still run, the objective is rebuilt over the running folds' designs.
    Returns the points and each fold's evaluations.
    """
    n_folds = len(x)
    m, n = _LBFGSB_MEMORY, (x.shape[2] + 1) * n_classes
    params = np.zeros((n_folds, n))  # setulb moves fold i's point, row i, in place
    bound = np.zeros(n)  # unused: every bound type is 0, unbounded
    bound_type = np.zeros(n, dtype=np.int32)
    workspaces = [  # per fold: wa, iwa, task, ln_task, lsave, isave, dsave
        (np.zeros(2 * m * n + 5 * n + 11 * m * m + 8 * m), np.zeros(3 * n, dtype=np.int32),
         *(np.zeros(k, dtype=np.int32) for k in (2, 2, 4, 44)), np.zeros(29))
        for _ in range(n_folds)
    ]
    iterations, evaluations = [0] * n_folds, np.zeros(n_folds, dtype=int)
    stack = np.arange(n_folds)  # the folds the objective evaluates, in its row order
    at = stack.copy()  # fold i's row of the objective's losses and gradients
    objective = _logistic_objective(x, y, n_classes)
    losses, gradients = np.zeros(n_folds), np.zeros((n_folds, n))
    setulb = _setulb()

    def asks_for_fg(i):
        wa, iwa, task, ln_task, lsave, isave, dsave = workspaces[i]
        point, loss, gradient = params[i], losses[at[i]], gradients[at[i]]
        while True:
            setulb(
                m, point, bound, bound, bound_type, loss, gradient, _LBFGSB_FACTR, _LBFGSB_PGTOL,
                wa, iwa, task, lsave, isave, dsave, _LBFGSB_MAX_LINE_SEARCH, ln_task,
            )
            if (code := task[0]) != _NEW_X:
                return code == _FG
            iterations[i] += 1
            if iterations[i] >= _LBFGSB_MAX_ITERATIONS:
                task[:] = _STOP, 504  # iteration limit
            elif evaluations[i] > _LBFGSB_MAX_EVALUATIONS:
                task[:] = _STOP, 502  # evaluation limit

    running = range(n_folds)
    while running := [i for i in running if asks_for_fg(i)]:
        if 2 * len(running) <= len(stack):  # stopped folds leave the stack
            stack = np.array(running)
            at[stack] = np.arange(len(stack))
            objective = _logistic_objective(x[stack], y[stack], n_classes)
        losses, gradients = objective(params[stack])
        evaluations[running] += 1
    return params, evaluations


#: design cells (folds x rows x columns) of one stack of folds; a fold over it goes alone
_LOGISTIC_BATCH_CELLS = 2**18


def _learner_logistic(datasets, train_rows, test_rows):
    """Ridge multinomial logistic regression, the folds of all datasets solved together.

    The training folds of every dataset go, by the shape of their design
    matrices, into stacks of at most ``_LOGISTIC_BATCH_CELLS`` cells, each
    solved by one :func:`_lbfgsb` run; a fold's fit does not depend on the
    folds it is stacked with.  The datasets share each distinct column's fold
    builder; each design block is built where it is read.  Yields each
    dataset's fold scores in order.
    """
    labels, n_classes = datasets[0].class_labels, len(datasets[0].class_attribute.categories)
    ids = _column_ids(datasets)
    columns = {c: (ds, j) for ds, ds_ids in zip(datasets, ids) for j, c in ds_ids.items()}
    made = {  # one builder per (fold, distinct column), from any of its equal columns
        (i, c): _logistic_design(ds, j, rows)
        for i, rows in enumerate(train_rows) for c, (ds, j) in columns.items()
    }

    def design(a, i, rows):
        return [_logistic_apply(made[i, c], datasets[a], j, rows) for j, c in ids[a].items()]

    shapes = {}
    for a, ds_ids in enumerate(ids):
        for i, rows in enumerate(train_rows):
            d = sum(1 if made[i, c][0] == "num" else made[i, c][2] for c in ds_ids.values())
            shapes.setdefault((len(rows), d), []).append((a, i))
    params = {}
    for (n, d), folds in shapes.items():
        step = max(1, _LOGISTIC_BATCH_CELLS // (n * d))
        for chunk in (folds[i : i + step] for i in range(0, len(folds), step)):
            x = np.empty((len(chunk), n, d))
            for slot, (a, i) in zip(x, chunk):
                np.concatenate(design(a, i, train_rows[i]), axis=1, out=slot)
            y = labels[np.array([train_rows[i] for _, i in chunk])]
            params.update(zip(chunk, _lbfgsb(x, y, n_classes)[0]))
            del x  # so the next stack is not allocated beside this one
    for a, ds in enumerate(datasets):
        scores = []
        for i, rows in enumerate(test_rows):
            w, b = params[a, i][:-n_classes].reshape(-1, n_classes), params[a, i][-n_classes:]
            logits = np.concatenate(design(a, i, rows), axis=1) @ w + b
            logits -= logits.max(axis=1, keepdims=True)
            exp = np.exp(logits)
            scores.append(exp / exp.sum(axis=1, keepdims=True))
        yield scores


# --- dispatch and cross-validation -------------------------------------------


def _fold_scores(kind: ClassifierKind, datasets, train_rows, test_rows):
    """Each dataset's list of fold scores from ``kind``'s learner.

    ``datasets`` share their rows and class column; ``train_rows`` and
    ``test_rows`` hold each fold's row indices.  A fold's scores are an
    (n_test, n_classes) array of class scores.
    """
    if any(len(rows) == 0 for rows in train_rows):
        raise ValueError("empty training split")
    learners = {
        "tree": _learner_tree,
        "nb": partial(_fold_by_fold, _nb_fold),
        "knn": partial(_learner_knn, kind),
        "logistic": _learner_logistic,
    }
    return learners[kind.family](datasets, train_rows, test_rows)


def fit_predict(kind: ClassifierKind, train: Dataset, test: Dataset):
    """Train on ``train`` and score ``test``; returns [(class index, scores), ...].

    The predicted class is the argmax of the score vector, ties going to the
    lowest class index.
    """
    if train.attributes != test.attributes or train.class_index != test.class_index:
        raise ValueError("train and test datasets have different schemas")
    both, n = replace(train, rows=np.vstack([train.rows, test.rows])), train.n_rows
    [[scores]] = _fold_scores(kind, [both], [np.arange(n)], [np.arange(n, both.n_rows)])
    return [(int(p), row) for p, row in zip(scores.argmax(axis=1), scores)]


def cross_validate(
    kind: ClassifierKind, datasets, k: int = 10, *, seed: int
) -> list[PerformanceMeasures]:
    """Stratified k-fold cross-validation with predictions pooled across folds.

    ``datasets`` holds a dataset, then versions of it with its rows and class
    column, all measured on the first's folds: one result and ``CV_RUNS`` each.
    """
    datasets = list(datasets)
    if not datasets:
        raise ValueError("a cross-validation needs at least one dataset")
    first, y = datasets[0], datasets[0].class_labels
    for i, ds in enumerate(datasets):
        if ds.class_attribute != first.class_attribute or not np.array_equal(ds.class_labels, y):
            raise ValueError(f"dataset {i} ({ds.name!r}) has other rows or class than the first")
        CV_RUNS.increment()
    fold_of_row = stratified_folds(first, k, seed)
    train_rows = [np.flatnonzero(fold_of_row != f) for f in range(k)]
    test_rows = [np.flatnonzero(fold_of_row == f) for f in range(k)]
    order = np.argsort(np.concatenate(test_rows))  # the folds' test rows back in row order
    return [
        _pooled_measures(y, np.vstack(folds)[order])
        for folds in _fold_scores(kind, datasets, train_rows, test_rows)
    ]


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks of ``values``, ties sharing their mean rank, all NaN if one is NaN.

    Equal to ``scipy.stats.rankdata(values)``: the ranks are exact half-integers.
    """
    if np.isnan(values).any():
        return np.full(values.size, np.nan)
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    ends = np.r_[starts[1:], values.size]
    ranks = np.empty(values.size)
    ranks[order] = np.repeat((starts + ends + 1) / 2, ends - starts)
    return ranks


def _pooled_measures(true, scores) -> PerformanceMeasures:
    """The measures of pooled class scores, the first argmax being the prediction.

    Precision and recall are macro averages over the classes predicted,
    respectively present; the AUC is the one-vs-rest rank AUC of each class
    with both positive and negative rows, weighted by its row count (0.5
    when there is none).
    """
    n, n_classes = scores.shape
    preds = scores.argmax(axis=1)
    hits = preds == true
    accuracy = float(hits.mean())
    n_true, n_pred, n_hit = (
        np.bincount(labels, minlength=n_classes) for labels in (true, preds, true[hits])
    )
    recall = float(np.mean(n_hit[n_true > 0] / n_true[n_true > 0])) if n_true.any() else 0.0
    precision = float(np.mean(n_hit[n_pred > 0] / n_pred[n_pred > 0])) if n_pred.any() else 0.0

    aucs, weights = [], []
    for c in np.flatnonzero((n_true > 0) & (n_true < n)):
        n_pos = int(n_true[c])
        r_pos = _average_ranks(scores[:, c])[true == c].sum()
        aucs.append((r_pos - n_pos * (n_pos + 1) / 2.0) / (n_pos * (n - n_pos)))
        weights.append(n_pos)
    auc = float(np.average(aucs, weights=weights)) if aucs else 0.5
    return PerformanceMeasures(accuracy, precision, recall, auc)
