import importlib
import math
import os
import subprocess
import sys
import tracemalloc
from collections import Counter
from dataclasses import astuple, replace
from functools import partial
from importlib.machinery import EXTENSION_SUFFIXES
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import minimize
from scipy.optimize._lbfgsb import setulb
from scipy.stats import rankdata

import preprank.classifiers as classifiers_mod
from preprank.classifiers import (
    LOGISTIC,
    NAIVE_BAYES,
    TREE,
    COLUMN_FOLDS,
    CV_RUNS,
    ClassifierKind,
    PerformanceMeasures,
    cross_validate,
    fit_predict,
    knn,
    parse_classifier,
)
from conftest import categorical_columns, distinct_columns
from preprank import tree
from preprank.dataset import Attribute, Dataset, stratified_folds
from preprank.synthetic import mini_corpus, random_dataset
from preprank.transforms import TransformationSpec, apply, enumerate_applicable


def small_dataset(rows, n_classes=2, kinds=("continuous",)):
    attrs = []
    for i, kind in enumerate(kinds):
        if kind == "continuous":
            attrs.append(Attribute(f"x{i}", "continuous"))
        else:
            attrs.append(Attribute(f"g{i}", "categorical", ("a", "b")))
    attrs.append(Attribute("class", "categorical", tuple(f"c{i}" for i in range(n_classes))))
    return Dataset("t", tuple(attrs), len(attrs) - 1, np.asarray(rows, dtype=float))


def test_parse_classifier_names():
    assert parse_classifier("tree") == TREE
    assert parse_classifier("knn:5") == ClassifierKind("knn", 5)
    assert parse_classifier("knn") == knn(1)
    assert parse_classifier("knn:3").name == "knn:3"
    for name in ("svm", "knn5", "knnx", "knn:", "knn:abc", "knn:-1", "tree:3"):
        with pytest.raises(ValueError, match="unknown classifier"):
            parse_classifier(name)
    with pytest.raises(ValueError):
        ClassifierKind("knn", 0)


def test_1nn_zero_distance_wins():
    train = small_dataset([[1.0, 0], [5.0, 1], [9.0, 0]])
    test = small_dataset([[5.0, 0]])  # identical to train row 1
    [(pred, scores)] = fit_predict(knn(1), train, test)
    assert pred == 1
    assert scores[1] == 1.0


def test_knn_distance_ties_take_lowest_row_index():
    train = small_dataset([[0.0, 0], [2.0, 1]])
    test = small_dataset([[1.0, 0]])  # equidistant from both
    [(pred, _)] = fit_predict(knn(1), train, test)
    assert pred == 0


def test_tree_perfectly_separable():
    ds = random_dataset(5, n_rows=40, n_continuous=1, n_categorical=0, class_sep=50.0)
    train = replace(ds, rows=ds.rows[:30])
    test = replace(ds, rows=ds.rows[30:40])
    out = fit_predict(TREE, train, test)
    assert [p for p, _ in out] == list(test.class_labels)


def test_naive_bayes_hand_posteriors():
    train = small_dataset(
        [[1.0, 0, 0], [2.0, 0, 0], [3.0, 1, 1], [5.0, 1, 1]],
        kinds=("continuous", "categorical"),
    )
    test = small_dataset([[2.5, 0, 0]], kinds=("continuous", "categorical"))
    [(pred, scores)] = fit_predict(NAIVE_BAYES, train, test)

    def gauss(x, mean, var):
        return math.exp(-((x - mean) ** 2) / (2 * var)) / math.sqrt(2 * math.pi * var)

    # class 0: x ~ N(1.5, 0.5), P(a|0) = (2+1)/(2+2); class 1: x ~ N(4, 2), P(a|1) = 1/4
    like0 = 0.5 * gauss(2.5, 1.5, 0.5) * 0.75
    like1 = 0.5 * gauss(2.5, 4.0, 2.0) * 0.25
    assert pred == 0
    assert scores[0] == pytest.approx(like0 / (like0 + like1), rel=1e-9)
    assert scores[1] == pytest.approx(like1 / (like0 + like1), rel=1e-9)


def test_naive_bayes_skips_missing_factors():
    train = small_dataset(
        [[1.0, 0, 0], [2.0, 0, 0], [3.0, 1, 1], [5.0, 1, 1]],
        kinds=("continuous", "categorical"),
    )
    test = small_dataset([[np.nan, 0, 0]], kinds=("continuous", "categorical"))
    [(pred, scores)] = fit_predict(NAIVE_BAYES, train, test)
    # only prior and the categorical factor remain
    assert scores[0] == pytest.approx(0.75, rel=1e-9)


def test_logistic_learns_separable_data():
    ds = random_dataset(6, n_rows=60, n_continuous=2, n_categorical=0, class_sep=6.0)
    [pm] = cross_validate(LOGISTIC, [ds], 10, seed=1)
    assert pm.accuracy > 0.9


def test_schema_mismatch_rejected():
    a = small_dataset([[1.0, 0], [2.0, 1]])
    b = small_dataset([[1.0, 0, 0], [2.0, 1, 1]], kinds=("continuous", "categorical"))
    with pytest.raises(ValueError):
        fit_predict(TREE, a, b)


def _pooled_scores(fn, ds, seed, k=10):
    """Row-ordered scores of ``fn(train, test)`` on each of ``ds``'s stratified folds."""
    fold_of_row = stratified_folds(ds, k, seed)
    scores = np.zeros((ds.n_rows, len(ds.class_attribute.categories)))
    for f in range(k):
        rows = np.flatnonzero(fold_of_row == f)
        scores[rows] = fn(
            replace(ds, rows=ds.rows[fold_of_row != f]), replace(ds, rows=ds.rows[rows])
        )
    return scores


def test_trivial_measures_of_a_majority_scorer():
    def majority_learner(train, test):
        counts = np.bincount(
            train.class_labels, minlength=len(train.class_attribute.categories)
        )
        winner = int(np.argmax(counts))
        scores = np.zeros((test.n_rows, counts.size))
        scores[:, winner] = 1.0
        return scores

    ds = random_dataset(9, n_rows=40, n_continuous=1, n_classes=2)
    # force an exactly balanced binary dataset
    rows = np.array(ds.rows)
    rows[:, ds.class_index] = np.arange(40) % 2
    balanced = Dataset(ds.name, ds.attributes, ds.class_index, rows)
    scores = _pooled_scores(majority_learner, balanced, 0)
    pm = classifiers_mod._pooled_measures(balanced.class_labels, scores)
    assert pm.accuracy == 0.5
    assert pm.recall == 0.5  # macro: 1.0 for the predicted class, 0.0 for the other
    assert pm.auc == 0.5  # constant scores rank everything equally


def test_perfect_classifier_all_ones():
    def oracle_learner(train, test):
        n_classes = len(train.class_attribute.categories)
        scores = np.zeros((test.n_rows, n_classes))
        scores[np.arange(test.n_rows), test.class_labels] = 1.0
        return scores

    ds = random_dataset(10, n_rows=30, n_continuous=2, n_classes=3)
    scores = _pooled_scores(oracle_learner, ds, 0)
    pm = classifiers_mod._pooled_measures(ds.class_labels, scores)
    assert pm == PerformanceMeasures(1.0, 1.0, 1.0, 1.0)


def test_four_families_and_no_other():
    assert classifiers_mod.FAMILIES == ("tree", "nb", "knn", "logistic")
    assert [parse_classifier(f).family for f in classifiers_mod.FAMILIES] == list(
        classifiers_mod.FAMILIES
    )
    for family in ("majority", "oracle", "knn:1", ""):
        with pytest.raises(ValueError, match="unknown classifier family"):
            ClassifierKind(family)


def test_cross_validate_matches_brute_force_1nn():
    ds = random_dataset(11, n_rows=30, n_continuous=2, n_categorical=1, n_classes=2)
    [pm] = cross_validate(knn(1), [ds], 10, seed=3)

    # independent recomputation: explicit fold loop and a from-scratch 1-NN
    folds = stratified_folds(ds, 10, 3)
    correct = 0
    for f in range(10):
        test_idx = np.flatnonzero(folds == f)
        train_idx = np.flatnonzero(folds != f)
        for i in test_idx:
            best = None
            for t in train_idx:
                d = 0.0
                for j in ds.predictor_indices:
                    a, b = ds.rows[i, j], ds.rows[t, j]
                    if math.isnan(a) or math.isnan(b):
                        d += 1.0
                    elif ds.attributes[j].is_continuous:
                        col = ds.rows[train_idx, j]
                        col = col[~np.isnan(col)]
                        span = col.max() - col.min()
                        if span > 0:
                            d += ((a - col.min()) / span - (b - col.min()) / span) ** 2
                    else:
                        d += float(a != b)
                if best is None or d < best[0]:
                    best = (d, t)
            if ds.class_labels[best[1]] == ds.class_labels[i]:
                correct += 1
    assert pm.accuracy == pytest.approx(correct / ds.n_rows, abs=1e-12)


def test_determinism():
    ds = random_dataset(12, n_rows=50, n_continuous=3, n_categorical=1, missing_rate=0.1)
    for kind in (TREE, NAIVE_BAYES, knn(3), LOGISTIC):
        assert cross_validate(kind, [ds], 10, seed=7)[0] == cross_validate(kind, [ds], 10, seed=7)[0]


def test_tree_invariant_under_scaling():
    ds = random_dataset(13, n_rows=60, n_continuous=3, n_categorical=1, missing_rate=0.05)
    [base] = cross_validate(TREE, [ds], 10, seed=5)
    for kind in ("normalize", "standardize"):
        scaled = apply(TransformationSpec(kind, "global"), ds)
        assert cross_validate(TREE, [scaled], 10, seed=5)[0] == base


def test_knn_invariant_under_external_normalization():
    ds = random_dataset(14, n_rows=60, n_continuous=3, n_categorical=1)
    [base] = cross_validate(knn(1), [ds], 10, seed=5)
    scaled = apply(TransformationSpec("normalize", "global"), ds)
    assert cross_validate(knn(1), [scaled], 10, seed=5)[0] == base


def test_random_scorer_auc_near_half():
    def random_learner(train, test):
        rng = np.random.default_rng(99 + test.n_rows)
        raw = rng.random((test.n_rows, len(train.class_attribute.categories)))
        return raw / raw.sum(axis=1, keepdims=True)

    ds = random_dataset(15, n_rows=1000, n_continuous=1, n_classes=2)
    rows = np.array(ds.rows)
    rows[:, ds.class_index] = np.arange(1000) % 2
    balanced = Dataset(ds.name, ds.attributes, ds.class_index, rows)
    scores = _pooled_scores(random_learner, balanced, 99)
    pm = classifiers_mod._pooled_measures(balanced.class_labels, scores)
    assert pm.auc == pytest.approx(0.5, abs=0.05)


def test_cv_run_counter():
    ds = random_dataset(16, n_rows=20, n_continuous=1)
    CV_RUNS.reset()
    cross_validate(TREE, [ds], 5, seed=0)
    cross_validate(TREE, [ds], 5, seed=1)
    assert CV_RUNS.value == 2
    versions = [apply(spec, ds) for spec in enumerate_applicable(ds)]
    cross_validate(TREE, [ds, *versions], 5, seed=0)
    assert CV_RUNS.value == 3 + len(versions)  # one run per dataset measured


def test_k_larger_than_rows_rejected():
    ds = random_dataset(17, n_rows=8)
    with pytest.raises(ValueError):
        cross_validate(TREE, [ds], 9, seed=0)


def test_measure_lookup():
    pm = PerformanceMeasures(0.1, 0.2, 0.3, 0.4)
    assert [pm.get(m) for m in ("acc", "prec", "rec", "auc")] == [0.1, 0.2, 0.3, 0.4]
    with pytest.raises(ValueError):
        pm.get("f1")


def test_deep_tree_grows_without_recursion_limit():
    # every pair of rows flips the class, so the tree is thousands of levels deep
    n = 6000
    rows = np.column_stack([np.arange(n, dtype=float), (np.arange(n) // 2) % 2])
    ds = small_dataset(rows)
    output = fit_predict(TREE, ds, ds)
    assert [p for p, _ in output] == list(ds.class_labels)


# --- kNN against the full stable sort it replaced ------------------------------


def _argsort_knn(kind, train, test):
    """The dense, fully sorted kNN that the blocked one replaced, verbatim."""
    n_classes = len(train.class_attribute.categories)
    y = train.class_labels
    k = min(kind.k, train.n_rows)
    dist2 = np.zeros((test.n_rows, train.n_rows))
    for j in train.predictor_indices:
        tr = train.column(j)
        te = test.column(j)
        if train.attributes[j].is_continuous:
            present = ~np.isnan(tr)
            vals = tr[present]
            if vals.size:
                lo, hi = vals.min(), vals.max()
                span = hi - lo
            else:
                lo, span = 0.0, 0.0
            if span > 0:
                ntr = (tr - lo) / span
                nte = (te - lo) / span
            else:
                ntr = np.where(np.isnan(tr), np.nan, 0.0)
                nte = np.where(np.isnan(te), np.nan, 0.0)
            contrib = (nte[:, None] - ntr[None, :]) ** 2
        else:
            contrib = (te[:, None] != tr[None, :]).astype(float)
        either_missing = np.isnan(te)[:, None] | np.isnan(tr)[None, :]
        contrib = np.where(either_missing, 1.0, contrib)
        dist2 += contrib
    order = np.argsort(dist2, axis=1, kind="stable")  # equal distances: lowest row first
    neighbours = order[:, :k]
    scores = np.zeros((test.n_rows, n_classes))
    for i in range(test.n_rows):
        votes = np.bincount(y[neighbours[i]], minlength=n_classes)
        scores[i] = votes / votes.sum()
    return scores


def _knn_split(seed, n_rows, missing_rate=0.0, coarse=False, **shape):
    ds = random_dataset(seed, n_rows=n_rows, missing_rate=missing_rate, **shape)
    if coarse:  # few distinct values: many test rows have tied distances
        rows = np.array(ds.rows)
        rows[:, list(ds.continuous_predictors)] = np.round(
            rows[:, list(ds.continuous_predictors)]
        )
        ds = Dataset(ds.name, ds.attributes, ds.class_index, rows)
    order = np.random.default_rng(seed).permutation(ds.n_rows)
    cut = ds.n_rows // 3
    return (
        replace(ds, rows=ds.rows[np.sort(order[cut:])]),
        replace(ds, rows=ds.rows[np.sort(order[:cut])]),
    )


def _as_fold(train, test):
    """``train`` and ``test`` stacked into one dataset, with each one's row indices in it."""
    both = replace(train, rows=np.vstack([train.rows, test.rows]))
    return both, np.arange(train.n_rows), np.arange(train.n_rows, both.n_rows)


def _one_fold(kind, ds, train_rows, test_rows):
    """``kind``'s scores of one fold of one dataset, from the catalog learner."""
    [[scores]] = classifiers_mod._fold_scores(kind, [ds], [train_rows], [test_rows])
    return scores


KNN_CASES = [
    dict(seed=1, n_rows=60, n_continuous=2, n_categorical=1),
    dict(seed=2, n_rows=90, n_continuous=3, n_categorical=2, coarse=True),
    dict(seed=3, n_rows=90, n_continuous=0, n_categorical=3, n_classes=3),
    dict(seed=4, n_rows=120, n_continuous=3, n_categorical=2, missing_rate=0.2),
    dict(seed=5, n_rows=120, n_continuous=2, n_categorical=1, missing_rate=0.5, coarse=True),
    dict(seed=6, n_rows=900, n_continuous=3, n_categorical=2, n_classes=4, coarse=True),
]


@pytest.mark.parametrize("k", [1, 2, 3, 5])
@pytest.mark.parametrize("case", KNN_CASES)
def test_knn_matches_full_stable_sort(case, k):
    train, test = _knn_split(**case)
    expected = _argsort_knn(knn(k), train, test)
    assert np.array_equal(_one_fold(knn(k), *_as_fold(train, test)), expected)


def test_knn_case_spans_several_blocks():
    train, test = _knn_split(**KNN_CASES[-1])
    assert test.n_rows > 2 * (classifiers_mod._KNN_BLOCK_CELLS // train.n_rows)


def test_knn_overflowing_values_match_full_stable_sort():
    # a column spanning more than the float range normalizes to NaN distances
    rng = np.random.default_rng(0)
    values = rng.choice([-1e308, 1e308, 0.0, 5e307], size=(30, 2))
    rows = np.column_stack([values, rng.integers(0, 2, 30)])
    train, test = small_dataset(rows[:20], kinds=("continuous",) * 2), small_dataset(
        rows[20:], kinds=("continuous",) * 2
    )
    with np.errstate(all="ignore"):
        for k in (1, 2, 3, 5):
            expected = _argsort_knn(knn(k), train, test)
            found = _one_fold(knn(k), *_as_fold(train, test))
            assert np.array_equal(found, expected)


@pytest.mark.parametrize("k", [1, 3])
def test_knn_block_size_does_not_change_scores(monkeypatch, k):
    train, test = _knn_split(**KNN_CASES[4])
    monkeypatch.setattr(classifiers_mod, "_KNN_BLOCK_CELLS", 1)  # one test row per block
    one_row = _one_fold(knn(k), *_as_fold(train, test))
    monkeypatch.setattr(classifiers_mod, "_KNN_BLOCK_CELLS", test.n_rows * train.n_rows)
    one_block = _one_fold(knn(k), *_as_fold(train, test))
    assert np.array_equal(one_row, one_block)


@pytest.mark.parametrize("k", [1, 3])
def test_knn_blocks_without_missing_cells_match_full_stable_sort(monkeypatch, k):
    # no training cell is missing, and of the six-row test blocks only the first two hold
    # missing cells: all but the first row of one, the first row alone of the other
    train, test = _knn_split(**KNN_CASES[-1])
    rows = np.array(test.rows)
    rows[1:7, 0] = rows[2, 3] = np.nan  # continuous cells and a categorical one
    test = replace(test, rows=rows)
    assert not np.isnan(train.rows).any() and not np.isnan(test.rows[7:]).any()
    monkeypatch.setattr(classifiers_mod, "_KNN_BLOCK_CELLS", 6 * train.n_rows)
    expected = _argsort_knn(knn(k), train, test)
    assert np.array_equal(_one_fold(knn(k), *_as_fold(train, test)), expected)


# --- the L-BFGS-B driver against scipy.optimize.minimize ------------------------
#
# ``classifiers._lbfgsb`` calls SciPy's private ``setulb`` directly; these tests
# are the first to fail if a SciPy release changes it.


def _minimize_objective(x, y, n_classes):
    """The objective that ``_learner_logistic`` handed to ``minimize``, unchanged."""
    n, d = x.shape
    onehot = np.zeros((n, n_classes))
    onehot[np.arange(n), y] = 1.0

    def objective(flat):
        w = flat[: d * n_classes].reshape(d, n_classes)
        b = flat[d * n_classes :]
        logits = x @ w + b
        logits -= logits.max(axis=1, keepdims=True)
        exp = np.exp(logits)
        proba = exp / exp.sum(axis=1, keepdims=True)
        loss = -np.mean(np.log(np.maximum(proba[np.arange(n), y], 1e-300)))
        loss += 0.5 * classifiers_mod._LOGISTIC_L2 * float((w * w).sum())
        grad_logits = (proba - onehot) / n
        grad_w = x.T @ grad_logits + classifiers_mod._LOGISTIC_L2 * w
        grad_b = grad_logits.sum(axis=0)
        return loss, np.concatenate([grad_w.ravel(), grad_b])

    return objective


def _copy_design(ds, rows):
    """Oracle: the column builders of ``ds``'s whole design on ``rows``, as one list."""
    builders = []
    for j in ds.predictor_indices:
        col = ds.rows[rows, j]
        present = ~np.isnan(col)
        vals = col[present]
        if ds.attributes[j].is_continuous:
            fill = float(vals.mean()) if vals.size else 0.0
            filled = np.where(present, col, fill)
            mean = float(filled.mean())
            std = float(filled.std(ddof=1)) if filled.size > 1 else 0.0
            builders.append(("num", j, fill, mean, std))
        else:
            if vals.size:
                counts = np.bincount(vals.astype(int), minlength=len(ds.attributes[j].categories))
                fill = int(np.argmax(counts))
            else:
                fill = 0
            builders.append(("cat", j, fill, len(ds.attributes[j].categories)))
    return builders


def _copy_apply(builders, ds, rows, out=None):
    """Oracle: the design matrix of ``ds``'s ``rows`` by :func:`_copy_design`'s builders."""
    cols = []
    for builder in builders:
        col = ds.rows[rows, builder[1]]
        if builder[0] == "num":
            _, _, fill, mean, std = builder
            filled = np.where(np.isnan(col), fill, col)
            cols.append((filled - mean) / std if std > 0 else np.zeros(len(rows)))
        else:
            _, _, fill, k = builder
            filled = np.where(np.isnan(col), float(fill), col).astype(int)
            onehot = np.zeros((len(rows), k))
            onehot[np.arange(len(rows)), filled] = 1.0
            cols.append(onehot)
    return np.concatenate([c if c.ndim == 2 else c[:, None] for c in cols], axis=1, out=out)


def _logistic_problem(train):
    """The design matrix, labels and class count of a logistic fit on ``train``."""
    rows = np.arange(train.n_rows)
    x = _copy_apply(_copy_design(train, rows), train, rows)
    return x, train.class_labels, len(train.class_attribute.categories)


def _minimize(x, y, n_classes):
    """``minimize``'s L-BFGS-B fit of one fold, with the driver's settings."""
    return minimize(
        _minimize_objective(x, y, n_classes), np.zeros((x.shape[1] + 1) * n_classes),
        jac=True, method="L-BFGS-B",
        options={
            "maxiter": classifiers_mod._LBFGSB_MAX_ITERATIONS, "gtol": 1e-6, "ftol": 1e-14,
        },
    )


def _assert_driver_matches_minimize(problems, expected=None):
    """One lockstep driver run over ``problems``, (x, y, n_classes) folds of one shape.

    Each fold's point equals ``minimize``'s bit for bit (``expected``, else
    computed here), after as many evaluations of that fold.
    """
    xs, ys, classes = zip(*problems)
    found, evaluations = classifiers_mod._lbfgsb(np.stack(xs), np.stack(ys), classes[0])
    expected = expected or [_minimize(*problem) for problem in problems]
    assert len(found) == len(evaluations) == len(expected) == len(problems)
    for point, count, result in zip(found, evaluations, expected):
        assert np.array_equal(point, result.x)
        assert count == result.nfev
    return expected


def _discretized(ds):
    """``ds`` after its all-attributes (else its one) ``discretize_unsup``, or None."""
    specs = [s for s in enumerate_applicable(ds) if s.kind == "discretize_unsup"]
    return apply(specs[-1], ds) if specs else None


def _fold_problems(ds, seed=42):
    """The logistic problem of each of ``ds``'s 10 CV folds, in fold order."""
    fold_of_row = stratified_folds(ds, 10, seed)
    return [
        _logistic_problem(replace(ds, rows=ds.rows[fold_of_row != fold])) for fold in range(10)
    ]


@pytest.fixture(scope="module")
def mini_corpus_folds(mini_datasets):
    """Each mini dataset and discretized mini dataset with its folds' problems and fits."""
    datasets = list(mini_datasets)
    datasets += [t for t in map(_discretized, mini_datasets) if t is not None]
    assert len(datasets) > len(mini_datasets)
    return [
        (ds, problems, [_minimize(*problem) for problem in problems])
        for ds, problems in ((ds, _fold_problems(ds)) for ds in datasets)
    ]


def _shape_groups(problems):
    """Fold indices grouped by design shape, as ``_learner_logistic`` stacks them."""
    groups = {}
    for i, (x, _, _) in enumerate(problems):
        groups.setdefault(x.shape, []).append(i)
    return list(groups.values())


def test_lbfgsb_matches_minimize_on_every_mini_corpus_fold(mini_corpus_folds):
    widest = 0
    for _, problems, expected in mini_corpus_folds:
        for problem, result in zip(problems, expected):
            x, _, n_classes = problem
            widest = max(widest, (x.shape[1] + 1) * n_classes)
            _assert_driver_matches_minimize([problem], [result])
    assert widest == 122  # the one-hot designs of the discretized datasets


def test_lbfgsb_lockstep_matches_minimize_on_every_mini_corpus_cv(mini_corpus_folds):
    stop_apart = 0
    for _, problems, expected in mini_corpus_folds:
        for group in _shape_groups(problems):
            _assert_driver_matches_minimize(
                [problems[i] for i in group], [expected[i] for i in group]
            )
            stop_apart += len({expected[i].nit for i in group}) > 1
    assert stop_apart > 0  # folds of one group stop at different iterations


def test_logistic_learner_scores_match_minimize_fits(mini_corpus_folds):
    for ds, _, expected in mini_corpus_folds:
        _assert_learner_matches_minimize(ds, 42, expected)


def _minimize_scores(builders, test, params):
    """The class scores of ``test``: softmax of its design times the weights, plus intercepts."""
    n_classes = len(test.class_attribute.categories)
    xt = _copy_apply(builders, test, np.arange(test.n_rows))
    d = xt.shape[1]
    logits = xt @ params[: d * n_classes].reshape(d, n_classes) + params[d * n_classes :]
    logits -= logits.max(axis=1, keepdims=True)
    exp = np.exp(logits)
    return exp / exp.sum(axis=1, keepdims=True)


def _assert_learner_matches_minimize(ds, seed, expected):
    """The logistic learner scores each CV fold as ``minimize``'s fit of it does."""
    fold_of_row = stratified_folds(ds, 10, seed)
    train_rows = [np.flatnonzero(fold_of_row != f) for f in range(10)]
    test_rows = [np.flatnonzero(fold_of_row == f) for f in range(10)]
    tests = [replace(ds, rows=ds.rows[rows]) for rows in test_rows]
    [found] = classifiers_mod._fold_scores(LOGISTIC, [ds], train_rows, test_rows)
    assert len(found) == len(expected) == 10
    for rows, test, scores, result in zip(train_rows, tests, found, expected):
        train = replace(ds, rows=ds.rows[rows])
        builders = _copy_design(train, np.arange(train.n_rows))
        assert np.array_equal(scores, _minimize_scores(builders, test, result.x))


def test_logistic_folds_of_two_shapes_match_minimize_fits():
    # 95 rows make training folds of 85 and 86 rows: two stacks of one CV
    ds = random_dataset(13, n_rows=95, n_continuous=2, n_categorical=2, n_classes=3)
    problems = _fold_problems(ds, seed=3)
    groups = _shape_groups(problems)
    assert len(groups) == 2
    expected = [_minimize(*problem) for problem in problems]
    for group in groups:
        _assert_driver_matches_minimize(
            [problems[i] for i in group], [expected[i] for i in group]
        )
    _assert_learner_matches_minimize(ds, 3, expected)


def test_lbfgsb_matches_minimize_when_a_class_is_missing():
    rng = np.random.default_rng(3)
    values = rng.normal(size=(30, 2))
    labels = np.arange(30) % 2  # class c2 never occurs in training
    train = small_dataset(np.column_stack([values, labels]), 3, ("continuous",) * 2)
    _assert_driver_matches_minimize([_logistic_problem(train)])


def test_lbfgsb_matches_minimize_with_constant_and_missing_columns():
    rng = np.random.default_rng(5)
    n = 40
    rows = np.column_stack([
        rng.normal(size=n),
        np.full(n, 3.0),  # constant: a zero design column
        np.full(n, np.nan),  # all missing: a zero design column
        np.where(rng.random(n) < 0.3, np.nan, rng.integers(0, 2, n)),
        rng.integers(0, 3, n),
    ])
    train = small_dataset(rows, 3, ("continuous", "continuous", "continuous", "categorical"))
    x, y, n_classes = _logistic_problem(train)
    assert not x[:, 1].any() and not x[:, 2].any()
    _assert_driver_matches_minimize([(x, y, n_classes)])


def test_lbfgsb_iteration_cap_stops_where_minimize_stops(mini_datasets, monkeypatch):
    monkeypatch.setattr(classifiers_mod, "_LBFGSB_MAX_ITERATIONS", 3)
    x, y, n_classes = _logistic_problem(mini_datasets[0])
    [result] = _assert_driver_matches_minimize([(x, y, n_classes)])
    assert result.nit == 3 and result.status == 1
    assert "ITERATIONS REACHED LIMIT" in result.message


def test_lbfgsb_iteration_cap_stops_every_fold_of_a_group(mini_datasets, monkeypatch):
    monkeypatch.setattr(classifiers_mod, "_LBFGSB_MAX_ITERATIONS", 3)
    problems = _fold_problems(_discretized(mini_datasets[1]))
    for group in _shape_groups(problems):
        expected = _assert_driver_matches_minimize([problems[i] for i in group])
        for result in expected:
            assert result.nit == 3 and result.status == 1
            assert "ITERATIONS REACHED LIMIT" in result.message


def test_logistic_objective_matches_minimize_objective_bit_for_bit(mini_datasets):
    rng = np.random.default_rng(11)
    problems = [
        _logistic_problem(ds)
        for ds in (mini_datasets[0], mini_datasets[5], _discretized(mini_datasets[1]))
    ]
    # nine classes: each row's class sum is NumPy's pairwise one
    problems.append((rng.normal(size=(45, 4)), np.arange(45) % 9, 9))
    for x, y, n_classes in problems:
        new = classifiers_mod._logistic_objective(x[None], y[None], n_classes)
        old = _minimize_objective(x, y, n_classes)
        for scale in (0.0, 1e-3, 1.0, 50.0, 1e4):  # 1e4 drives probabilities to the 1e-300 floor
            for _ in range(5):
                params = rng.normal(scale=scale, size=(x.shape[1] + 1) * n_classes)
                [loss], [gradient] = new(params[None])
                expected_loss, expected_gradient = old(params.copy())
                assert loss == expected_loss
                assert np.array_equal(gradient, expected_gradient)


@pytest.mark.parametrize(
    "n_folds, n, d, n_classes", [(10, 90, 60, 2), (10, 85, 7, 3), (5, 86, 7, 3), (2, 3600, 40, 3)]
)
def test_stacked_matmul_equals_matmul_per_fold(n_folds, n, d, n_classes):
    # the logistic objective's exactness rests on stacked matmul making one gemm per fold
    rng = np.random.default_rng(n * d)
    x = rng.normal(size=(n_folds, n, d))
    params = rng.normal(size=(n_folds, (d + 1) * n_classes))
    w = params[:, : d * n_classes].reshape(n_folds, d, n_classes)
    logits = np.matmul(x, w)
    grad_w = np.empty((n_folds, (d + 1) * n_classes))[:, : d * n_classes].reshape(w.shape)
    np.matmul(x.transpose(0, 2, 1), logits, out=grad_w)
    for i in range(n_folds):
        assert np.array_equal(logits[i], x[i] @ params[i, : d * n_classes].reshape(d, n_classes))
        assert np.array_equal(grad_w[i], x[i].T @ logits[i].copy())


def test_logistic_cv_holds_one_fold_design_at_a_time(monkeypatch):
    # the ten 3600 x 120 fold designs are not stacked together
    rng = np.random.default_rng(0)
    n, n_cols, n_cats = 4000, 8, 15
    labels = rng.integers(0, 3, n)
    cols = [
        np.where(rng.random(n) < 0.5, labels * 4, rng.integers(0, n_cats, n))
        for _ in range(n_cols)
    ]
    cats = tuple(f"v{v}" for v in range(n_cats))
    attrs = tuple(Attribute(f"g{j}", "categorical", cats) for j in range(n_cols))
    attrs += (Attribute("class", "categorical", ("a", "b", "c")),)
    ds = Dataset("wide", attrs, n_cols, np.column_stack([*cols, labels]).astype(float))
    fold_design_bytes = 3600 * n_cols * n_cats * 8
    assert 3600 * n_cols * n_cats > classifiers_mod._LOGISTIC_BATCH_CELLS  # each fold alone
    monkeypatch.setattr(classifiers_mod, "_LBFGSB_MAX_ITERATIONS", 2)  # the peak comes first
    tracemalloc.start()
    try:
        cross_validate(LOGISTIC, [ds], 10, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one fold's design, its columns while they are copied in, and small arrays
    assert peak < 4 * fold_design_bytes


# --- logistic fold stacks across a catalog, against the one-dataset learner --------


def _subset_design(train):
    return _copy_design(train, np.arange(train.n_rows))


def _subset_apply(builders, ds, out=None):
    return _copy_apply(builders, ds, np.arange(ds.n_rows), out=out)


def _every_fold_lbfgsb(objective, n_folds, n_params):
    """Oracle: the lockstep driver whose every step evaluates every fold, stopped or not."""
    m, n = classifiers_mod._LBFGSB_MEMORY, n_params
    params = np.zeros((n_folds, n))
    losses, gradients = np.zeros(n_folds), np.zeros((n_folds, n))
    bound = np.zeros(n)
    bound_type = np.zeros(n, dtype=np.int32)
    workspaces = [
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
                classifiers_mod._LBFGSB_FACTR, classifiers_mod._LBFGSB_PGTOL, wa, iwa, task,
                lsave, isave, dsave, classifiers_mod._LBFGSB_MAX_LINE_SEARCH, ln_task,
            )
            if task[0] != classifiers_mod._NEW_X:
                return task[0] == classifiers_mod._FG
            iterations[i] += 1
            if iterations[i] >= classifiers_mod._LBFGSB_MAX_ITERATIONS:
                task[:] = classifiers_mod._STOP, 504
            elif evaluations[i] > classifiers_mod._LBFGSB_MAX_EVALUATIONS:
                task[:] = classifiers_mod._STOP, 502

    running = range(n_folds)
    while running := [i for i in running if asks_for_fg(i)]:
        losses, gradients = objective(params)
        evaluations[running] += 1
    return params, evaluations


def _one_dataset_logistic(datasets, train_rows, test_rows):
    """Oracle: the logistic learner that stacked only one dataset's same-shape folds.

    It trains on a copy of each fold's rows.
    """
    for ds in datasets:
        n_classes = len(ds.class_attribute.categories)
        builders = [_subset_design(replace(ds, rows=ds.rows[rows])) for rows in train_rows]
        shapes = {}
        for i, (rows, fold_builders) in enumerate(zip(train_rows, builders)):
            d = sum(1 if b[0] == "num" else b[3] for b in fold_builders)
            shapes.setdefault((len(rows), d), []).append(i)
        params = {}
        for (n, d), folds in shapes.items():
            step = max(1, classifiers_mod._LOGISTIC_BATCH_CELLS // (n * d))
            for chunk in (folds[i : i + step] for i in range(0, len(folds), step)):
                x = np.empty((len(chunk), n, d))
                for slot, i in zip(x, chunk):
                    _subset_apply(builders[i], replace(ds, rows=ds.rows[train_rows[i]]), out=slot)
                y = ds.class_labels[np.array([train_rows[i] for i in chunk])]
                objective = classifiers_mod._logistic_objective(x, y, n_classes)
                fits, _ = _every_fold_lbfgsb(objective, len(chunk), (d + 1) * n_classes)
                params.update(zip(chunk, fits))
                del x, objective
        scores = []
        for i, rows in enumerate(test_rows):
            w = params[i][:-n_classes].reshape(-1, n_classes)
            test = replace(ds, rows=ds.rows[rows])
            logits = _subset_apply(builders[i], test) @ w + params[i][-n_classes:]
            logits -= logits.max(axis=1, keepdims=True)
            exp = np.exp(logits)
            scores.append(exp / exp.sum(axis=1, keepdims=True))
        yield scores


def _rankdata_pooled_measures(true, scores) -> PerformanceMeasures:
    """Oracle: the pooled measures with per-class masks and ``scipy.stats.rankdata``."""
    preds = scores.argmax(axis=1)
    n = true.size
    n_classes = scores.shape[1]
    accuracy = float((preds == true).mean())
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
    auc = float(np.average(aucs, weights=weights)) if aucs else 0.5
    return PerformanceMeasures(accuracy, precision, recall, auc)


def _spy_stacks(monkeypatch):
    """The fold count of every ``_lbfgsb`` stack from here on."""
    sizes, real = [], classifiers_mod._lbfgsb

    def spy(x, y, n_classes):
        sizes.append(len(x))
        return real(x, y, n_classes)

    monkeypatch.setattr(classifiers_mod, "_lbfgsb", spy)
    return sizes


def _catalog_cv(kind, datasets, seed, k=10):
    """The fold scores and measures of one catalog ``cross_validate``, from one run."""
    found, real = [], classifiers_mod._fold_scores

    def spy(*args):
        for folds in real(*args):
            found.append(folds)
            yield folds

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(classifiers_mod, "_fold_scores", spy)
        measures = cross_validate(kind, datasets, k, seed=seed)
    assert len(found) == len(measures) == len(datasets)
    return found, measures


@pytest.mark.parametrize("seed", [7, 11])
def test_catalog_logistic_cv_matches_one_dataset_oracle_on_mini_corpus(
    mini_datasets, seed, monkeypatch
):
    stacks = _spy_stacks(monkeypatch)
    for ds in mini_datasets:
        catalog = _with_versions(ds)
        found, measures = _catalog_cv(LOGISTIC, catalog, seed)
        fold_of_row = stratified_folds(ds, 10, seed)
        train_rows = [np.flatnonzero(fold_of_row != f) for f in range(10)]
        test_rows = [np.flatnonzero(fold_of_row == f) for f in range(10)]
        order = np.argsort(np.concatenate(test_rows))
        for member, folds, pm in zip(catalog, found, measures):
            [oracle] = _one_dataset_logistic([member], train_rows, test_rows)
            assert len(folds) == len(oracle) == 10
            for ours, theirs in zip(folds, oracle):
                assert ours.dtype == theirs.dtype and ours.tobytes() == theirs.tobytes()
            assert pm == _rankdata_pooled_measures(member.class_labels, np.vstack(oracle)[order])
    # one dataset has at most 10 folds of a shape, so a larger stack mixes datasets
    assert max(stacks) > 10


def test_logistic_stacks_of_one_fold_give_the_same_scores(mini_datasets, monkeypatch):
    for ds in mini_datasets[:4]:
        catalog = _with_versions(ds)
        expected, measures = _catalog_cv(LOGISTIC, catalog, 7)
        fold_of_row = stratified_folds(ds, 10, 7)
        n = min(np.count_nonzero(fold_of_row != f) for f in range(10))
        d = min(_subset_apply(_subset_design(member), member).shape[1] for member in catalog)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(classifiers_mod, "_LOGISTIC_BATCH_CELLS", n * d)  # one fold's cells
            stacks = _spy_stacks(mp)
            found, found_measures = _catalog_cv(LOGISTIC, catalog, 7)
        assert set(stacks) == {1} and len(stacks) == 10 * len(catalog)
        assert found_measures == measures
        for ours, theirs in zip(found, expected):
            assert [a.tobytes() for a in ours] == [a.tobytes() for a in theirs]


def test_stopped_folds_leave_the_stack(mini_corpus_folds, monkeypatch):
    evaluated, real = [], classifiers_mod._logistic_objective

    def spy(x, y, n_classes):
        objective = real(x, y, n_classes)

        def counted(params):
            evaluated.append(len(params))
            return objective(params)

        return counted

    monkeypatch.setattr(classifiers_mod, "_logistic_objective", spy)
    all_folds_every_step = fewer = 0
    for _, problems, expected in mini_corpus_folds:
        for group in _shape_groups(problems):
            nfev = [expected[i].nfev for i in group]
            if len(set(nfev)) == 1:
                continue
            evaluated.clear()
            _assert_driver_matches_minimize(
                [problems[i] for i in group], [expected[i] for i in group]
            )
            assert sum(nfev) <= sum(evaluated) <= len(group) * max(nfev)
            all_folds_every_step += len(group) * max(nfev)
            fewer += len(group) * max(nfev) - sum(evaluated)
    assert fewer > 0 and all_folds_every_step > 0


# --- a dataset and its operator versions in one cross-validation ------------------


def _one_dataset_tree_cv(ds, seed, k=10):
    """Oracle: the fold scores and measures of ``ds`` cross-validated alone.

    One ``tree.grow`` takes the dataset's own k fold trees, over its own
    rows, and each fold's test rows are a subset of the dataset.
    """
    fold_of_row = stratified_folds(ds, k, seed)
    train_rows = [np.flatnonzero(fold_of_row != f) for f in range(k)]
    test_rows = [np.flatnonzero(fold_of_row == f) for f in range(k)]
    predictors = np.asarray(ds.predictor_indices)
    roots = tree.grow(
        ds.rows, ds.class_labels, np.ones(ds.n_rows), len(ds.class_attribute.categories),
        [(rows, lambda: predictors) for rows in train_rows],
        criterion=tree.ENTROPY, categorical=frozenset(ds.categorical_predictors), min_leaf=2,
    )
    folds = [
        np.vstack([tree.leaf(root, row)["p"] for row in ds.rows[rows]])
        for root, rows in zip(roots, test_rows)
    ]
    scores = np.zeros((ds.n_rows, len(ds.class_attribute.categories)))
    for rows, fold_scores in zip(test_rows, folds):
        scores[rows] = fold_scores
    return folds, classifiers_mod._pooled_measures(ds.class_labels, scores)


def _with_versions(ds):
    return [ds, *(apply(spec, ds) for spec in enumerate_applicable(ds))]


def _assert_catalog_matches_oracle(datasets, seed, k=10):
    """Every fold score array and every measure equal the oracle's, byte for byte."""
    fold_of_row = stratified_folds(datasets[0], k, seed)
    train_rows = [np.flatnonzero(fold_of_row != f) for f in range(k)]
    test_rows = [np.flatnonzero(fold_of_row == f) for f in range(k)]
    found = list(classifiers_mod._fold_scores(TREE, datasets, train_rows, test_rows))
    measures = cross_validate(TREE, datasets, k, seed=seed)
    assert len(found) == len(measures) == len(datasets)
    for ds, folds, pm in zip(datasets, found, measures):
        oracle_folds, oracle_pm = _one_dataset_tree_cv(ds, seed, k)
        assert len(folds) == k
        for ours, theirs in zip(folds, oracle_folds):
            assert ours.dtype == theirs.dtype and ours.tobytes() == theirs.tobytes()
        assert pm == oracle_pm


@pytest.mark.parametrize("seed", [7, 11])
def test_catalog_tree_cv_matches_one_dataset_oracle_on_mini_corpus(mini_datasets, seed):
    for ds in mini_datasets:
        _assert_catalog_matches_oracle(_with_versions(ds), seed)


@st.composite
def _fuzz_datasets(draw):
    """20-60 rows with missing cells, constant and all-missing columns, one-category attributes."""
    n = draw(st.integers(20, 60))
    attrs, cols = [], []
    for j in range(draw(st.integers(1, 5))):
        if draw(st.booleans()):
            attrs.append(Attribute(f"a{j}", "continuous"))
            cell = st.floats(-1e3, 1e3, allow_nan=False)
        else:
            k = draw(st.integers(1, 3))
            attrs.append(Attribute(f"a{j}", "categorical", tuple(f"v{i}" for i in range(k))))
            cell = st.integers(0, k - 1).map(float)
        shape = draw(st.sampled_from(["free", "constant", "missing"]))
        if shape == "missing":
            cols.append([math.nan] * n)
        elif shape == "constant":
            cols.append([draw(cell)] * n)
        else:
            cols.append(draw(st.lists(cell | st.just(math.nan), min_size=n, max_size=n)))
    attrs.append(Attribute("class", "categorical", ("c0", "c1", "c2")))
    cols.append(draw(st.lists(st.integers(0, 2).map(float), min_size=n, max_size=n)))
    return Dataset("fuzz", tuple(attrs), len(attrs) - 1, np.array(cols).T)


@settings(max_examples=40, deadline=None)
@given(_fuzz_datasets(), st.integers(0, 1000))
def test_catalog_tree_cv_matches_one_dataset_oracle_on_fuzzed_datasets(ds, seed):
    _assert_catalog_matches_oracle(_with_versions(ds), seed)


@pytest.mark.parametrize("cells", ["one", "two"])
def test_tree_batch_budget_does_not_change_scores(mini_datasets, monkeypatch, cells):
    datasets = _with_versions(mini_datasets[15])
    widest = max(ds.rows.size for ds in datasets)
    expected = cross_validate(TREE, datasets, 10, seed=7)
    # one: every dataset grows alone; two: at most two datasets grow together
    monkeypatch.setattr(classifiers_mod, "_TREE_BATCH_CELLS", 1 if cells == "one" else 2 * widest)
    assert cross_validate(TREE, datasets, 10, seed=7) == expected
    _assert_catalog_matches_oracle(datasets, 7)


def test_tree_batches_stay_within_the_cells_budget(monkeypatch):
    base = random_dataset(21, n_rows=120, n_continuous=4, n_categorical=0, missing_rate=0.05)
    cats = Attribute("g", "categorical", tuple(f"v{i}" for i in range(12)))
    ds = Dataset(
        "wide", (*base.attributes[:-1], cats, base.class_attribute), 5,
        np.column_stack([base.rows[:, :-1], np.arange(120) % 12, base.class_labels]),
    )
    datasets = _with_versions(ds)
    budget = 15 * ds.n_rows  # two 6-column datasets fit, not three
    assert any(v.rows.size > budget for v in datasets)  # the one-hot version of g
    grown = []
    real_grow = tree.grow

    def recording_grow(x, y, w, n_classes, trees, **kwargs):
        grown.append((x.shape, len(trees) // 10))
        return real_grow(x, y, w, n_classes, trees, **kwargs)

    monkeypatch.setattr(classifiers_mod, "_TREE_BATCH_CELLS", budget)
    monkeypatch.setattr(tree, "grow", recording_grow)
    cross_validate(TREE, datasets, 10, seed=7)
    assert 1 < len(grown) < len(datasets)  # several groups, some of several datasets
    assert [n for (n, _), _ in grown] == [ds.n_rows] * len(grown)
    over = [v for v in datasets if v.rows.size > budget]
    # a group over the budget is one dataset over it, stacking its distinct predictors
    assert all(
        n * m <= budget or (size == 1 and m in [len(distinct_columns([v])) for v in over])
        for (n, m), size in grown
    )
    assert sum(size for _, size in grown) == len(datasets)
    # every group stacks each of its distinct predictor columns exactly once
    start = 0
    for (_, m), size in grown:
        assert m == len(distinct_columns(datasets[start : start + size]))
        start += size
    monkeypatch.undo()
    monkeypatch.setattr(classifiers_mod, "_TREE_BATCH_CELLS", budget)
    _assert_catalog_matches_oracle(datasets, 7)


def test_catalog_cv_reads_its_iterable_once_and_equals_one_cv_per_dataset():
    ds = random_dataset(22, n_rows=40, n_continuous=2, n_categorical=1, missing_rate=0.1)
    datasets = _with_versions(ds)
    for kind in (TREE, NAIVE_BAYES, knn(1), LOGISTIC):
        measures = cross_validate(kind, iter(datasets), 10, seed=3)
        assert measures == [cross_validate(kind, [d], 10, seed=3)[0] for d in datasets]


def test_catalog_cv_rejects_datasets_with_other_rows_or_class_column():
    ds = random_dataset(23, n_rows=40, n_continuous=2, n_classes=2)
    shorter = replace(ds, name="shorter", rows=ds.rows[:39])
    rows = np.array(ds.rows)
    rows[:, ds.class_index] = 1 - rows[:, ds.class_index]
    flipped = Dataset("flipped", ds.attributes, ds.class_index, rows)
    attrs = list(ds.attributes)
    attrs[ds.class_index] = Attribute("class", "categorical", ("p", "q"))
    renamed_class = Dataset("renamed_class", tuple(attrs), ds.class_index, ds.rows)
    for odd in (shorter, flipped, renamed_class):
        for kind in (TREE, NAIVE_BAYES):
            with pytest.raises(ValueError, match=f"dataset 1 \\('{odd.name}'\\)"):
                cross_validate(kind, [ds, odd], 10, seed=0)


# --- naive Bayes against the per-row scorer it replaced ---------------------------


def _per_row_nb(train, test):
    """The naive Bayes learner that scored one test row at a time, verbatim."""
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
            gauss[(j, c)] = (mean, max(var, classifiers_mod._NB_VAR_FLOOR))
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


def _assert_nb_matches_per_row(ds, seed, k=10):
    """Every fold's scores equal the per-row scorer's, byte for byte; returns the folds."""
    fold_of_row = stratified_folds(ds, k, seed)
    folds = []
    for f in range(k):
        train_rows, test_rows = np.flatnonzero(fold_of_row != f), np.flatnonzero(fold_of_row == f)
        train = replace(ds, rows=ds.rows[train_rows])
        test = replace(ds, rows=ds.rows[test_rows])
        ours = _one_fold(NAIVE_BAYES, ds, train_rows, test_rows)
        theirs = _per_row_nb(train, test)
        assert ours.dtype == theirs.dtype and ours.tobytes() == theirs.tobytes()
        folds.append((train, test))
    return folds


@pytest.mark.parametrize("seed", [7, 11])
def test_nb_matches_per_row_scorer_on_mini_corpus(mini_datasets, seed):
    for ds in mini_datasets:
        for version in _with_versions(ds):
            _assert_nb_matches_per_row(version, seed)


@st.composite
def _fuzz_nb_datasets(draw):
    """``_fuzz_datasets`` whose class c2 occurs in one row only: one fold trains without it."""
    ds = draw(_fuzz_datasets())
    rows = np.array(ds.rows)
    labels = rows[:, ds.class_index]
    labels[labels == 2] = draw(st.integers(0, 1))
    labels[draw(st.integers(0, ds.n_rows - 1))] = 2
    return Dataset(ds.name, ds.attributes, ds.class_index, rows)


@settings(max_examples=60, deadline=None)
@given(_fuzz_nb_datasets(), st.integers(0, 1000))
def test_nb_matches_per_row_scorer_on_fuzzed_datasets(ds, seed):
    folds = _assert_nb_matches_per_row(ds, seed, k=5)
    # a fold whose training rows lack c2: its Gaussian factors are skipped, its prior -inf
    assert any(2 not in train.class_labels for train, _ in folds)


def _add_at_nb_column(ds, j, train_rows, test_rows, y):
    """Oracle: a categorical predictor's naive Bayes addend, its table filled by ``np.add.at``."""
    col, v = ds.rows[train_rows, j], ds.rows[test_rows, j]
    present, n_classes = ~np.isnan(v), len(ds.class_attribute.categories)
    addend = np.zeros((len(v), n_classes))
    table = np.ones((n_classes, len(ds.attributes[j].categories)))  # Laplace +1
    known = ~np.isnan(col)
    np.add.at(table, (y[known], col[known].astype(int)), 1.0)
    log_table = np.log(table / table.sum(axis=1, keepdims=True))
    addend[present] = log_table[:, v[present].astype(int)].T
    return addend


def _assert_nb_addend_matches_add_at(ds, j, train_rows, test_rows):
    y = ds.class_labels[train_rows]
    ours = classifiers_mod._nb_column(ds, j, train_rows, test_rows, y)
    theirs = _add_at_nb_column(ds, j, train_rows, test_rows, y)
    assert ours.dtype == theirs.dtype and ours.tobytes() == theirs.tobytes()


@pytest.mark.parametrize("seed", [7, 11])
def test_nb_categorical_addends_equal_the_add_at_oracle_on_mini_corpus(mini_datasets, seed):
    checked = 0
    for ds in mini_datasets:
        fold_of_row = stratified_folds(ds, 10, seed)
        for version in _with_versions(ds):
            for f in range(10):
                train, test = np.flatnonzero(fold_of_row != f), np.flatnonzero(fold_of_row == f)
                for j in version.categorical_predictors:
                    _assert_nb_addend_matches_add_at(version, j, train, test)
                    checked += 1
    assert checked > 5000


@settings(max_examples=300, deadline=None)
@given(categorical_columns(), st.data())
def test_nb_categorical_addends_equal_the_add_at_oracle_on_edge_columns(ds, data):
    trained = data.draw(st.lists(st.booleans(), min_size=ds.n_rows, max_size=ds.n_rows))
    trained[0] = True
    _assert_nb_addend_matches_add_at(ds, 0, np.flatnonzero(trained), np.arange(ds.n_rows))


def test_nb_rejects_a_test_row_that_no_class_can_score():
    train = small_dataset([[0.0, 0], [0.0, 0], [1.0, 1], [1.0, 1]])
    test = small_dataset([[1e300, 0]])  # its squared distance to both means overflows
    with np.errstate(over="ignore"):
        with pytest.raises(ValueError):
            _one_fold(NAIVE_BAYES, *_as_fold(train, test))
        with pytest.raises(ValueError):
            _per_row_nb(train, test)


# --- naive Bayes and kNN on row indices, against the learners on fold copies ------


def _copy_nb(train, test):
    """Oracle: the naive Bayes learner as it took a fold's train and test datasets."""
    n_classes = len(train.class_attribute.categories)
    y = train.class_labels
    counts = np.bincount(y, minlength=n_classes).astype(float)
    log_prior = np.full(n_classes, -np.inf)
    observed = counts > 0
    log_prior[observed] = np.log(counts[observed] / counts.sum())
    logp = np.tile(log_prior, (test.n_rows, 1))

    for j in train.continuous_predictors:
        col, v = train.column(j), test.column(j)
        present = ~np.isnan(v)
        for c in range(n_classes):
            vals = col[(y == c) & ~np.isnan(col)]
            if vals.size == 0:
                continue  # factor skipped for this class
            mean = float(vals.mean())
            var = max(
                float(np.var(vals, ddof=1)) if vals.size > 1 else 0.0,
                classifiers_mod._NB_VAR_FLOOR,
            )
            d = v[present] - mean
            # libm pow, rounding as Python's ``**`` does; an exponent of scalar 2 squares
            square = np.float_power(d, np.full_like(d, 2.0))
            logp[present, c] += -0.5 * math.log(2.0 * math.pi * var) - square / (2.0 * var)
    for j in train.categorical_predictors:
        col, v = train.column(j), test.column(j)
        table = np.ones((n_classes, len(train.attributes[j].categories)))  # Laplace +1
        known = ~np.isnan(col)
        np.add.at(table, (y[known], col[known].astype(int)), 1.0)
        log_table = np.log(table / table.sum(axis=1, keepdims=True))
        present = ~np.isnan(v)
        logp[present] += log_table[:, v[present].astype(int)].T

    finite = np.isfinite(logp)
    if not finite.any(axis=1).all():
        raise ValueError("a test row has no finite class log-likelihood")
    shifted = np.exp(logp - logp.max(axis=1, keepdims=True, where=finite, initial=-np.inf))
    shifted[~np.isfinite(shifted)] = 0.0
    return shifted / shifted.sum(axis=1, keepdims=True)


def _copy_knn(kind, train, test):
    """Oracle: the blocked kNN learner as it took a fold's train and test datasets."""
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
    block = max(1, classifiers_mod._KNN_BLOCK_CELLS // train.n_rows)
    scores = np.zeros((test.n_rows, n_classes))
    for start in range(0, test.n_rows, block):
        stop = min(start + block, test.n_rows)
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
        rows, neighbours = np.nonzero(classifiers_mod._nearest(dist2, k))
        votes = np.bincount(
            rows * n_classes + y[neighbours], minlength=(stop - start) * n_classes
        )
        scores[start:stop] = votes.reshape(-1, n_classes) / k
    return scores


def _copy_fold_scores(kind, datasets, train_rows, test_rows):
    """Oracle: each dataset's fold scores from the learner on copies of each fold's rows."""
    fn = _copy_nb if kind.family == "nb" else partial(_copy_knn, kind)
    for ds in datasets:
        yield [
            fn(replace(ds, rows=ds.rows[a]), replace(ds, rows=ds.rows[b]))
            for a, b in zip(train_rows, test_rows)
        ]


@pytest.mark.parametrize("seed", [7, 11])
def test_nb_and_knn_on_row_indices_match_fold_copy_oracle_on_mini_corpus(mini_datasets, seed):
    for ds in mini_datasets:
        catalog = _with_versions(ds)
        fold_of_row = stratified_folds(ds, 10, seed)
        train_rows = [np.flatnonzero(fold_of_row != f) for f in range(10)]
        test_rows = [np.flatnonzero(fold_of_row == f) for f in range(10)]
        order = np.argsort(np.concatenate(test_rows))
        for kind in (NAIVE_BAYES, knn(1), knn(3)):
            found, measures = _catalog_cv(kind, catalog, seed)  # the datasets share columns
            oracle = list(_copy_fold_scores(kind, catalog, train_rows, test_rows))
            assert len(found) == len(oracle) == len(catalog)
            for member, folds, oracle_folds, pm in zip(catalog, found, oracle, measures):
                assert len(folds) == len(oracle_folds) == 10
                for ours, theirs in zip(folds, oracle_folds):
                    assert ours.dtype == theirs.dtype and ours.shape == theirs.shape
                    assert ours.tobytes() == theirs.tobytes()
                y = member.class_labels
                assert pm == _rankdata_pooled_measures(y, np.vstack(oracle_folds)[order])


# --- pooled measures: average ranks without SciPy ---------------------------------


def test_average_ranks_equal_rankdata_on_tie_heavy_vectors():
    rng = np.random.default_rng(19)
    pool = np.array([-2.5, -1.0, -0.0, 0.0, 0.25, 1.0, 3.0, 1e300])
    cases = [
        np.array([0.5]), np.array([np.nan]), np.zeros(7), np.full(4, -1.0),
        np.array([-0.0, 0.0, -0.0, 0.0]), np.array([1.0, np.nan, 0.0, 1.0]),
    ]
    for _ in range(3000):
        values = rng.choice(pool[: rng.integers(1, pool.size + 1)], size=rng.integers(1, 60))
        if rng.random() < 0.05:
            values[rng.integers(values.size)] = np.nan
        cases.append(values)
    cases.append(np.column_stack([cases[-1], cases[-2][: cases[-1].size]])[:, 0])  # strided
    for values in cases:
        ours, theirs = classifiers_mod._average_ranks(values), rankdata(values)
        assert ours.dtype == theirs.dtype == np.float64 and ours.shape == theirs.shape
        if np.isnan(values).any():
            assert np.isnan(ours).all() and np.isnan(theirs).all()
        else:
            assert ours.tobytes() == theirs.tobytes()


def test_pooled_measures_equal_the_rankdata_oracle_on_fuzzed_scores():
    rng = np.random.default_rng(23)
    for _ in range(3000):
        n_classes, n = int(rng.integers(1, 5)), int(rng.integers(1, 80))
        present = rng.choice(n_classes, size=rng.integers(1, n_classes + 1), replace=False)
        true = rng.choice(present, size=n)
        scores = np.round(rng.random((n, n_classes)), int(rng.integers(0, 3)))  # many ties
        if rng.random() < 0.3:
            scores[:, rng.integers(n_classes)] = -1.0  # a class nothing predicts
        assert classifiers_mod._pooled_measures(true, scores) == _rankdata_pooled_measures(
            true, scores
        )


def test_import_leaves_scipy_stats_unloaded():
    code = "import preprank, preprank.cli, sys; print('scipy.stats' in sys.modules)"
    src = str(Path(classifiers_mod.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120,
        check=True,
    )
    assert done.stdout.strip() == "False"


def test_import_leaves_fetching_and_process_pools_unloaded():
    code = (
        "import preprank, preprank.cli, sys; "
        "print(*[m in sys.modules for m in ('urllib.request', 'concurrent.futures.process')])"
    )
    src = str(Path(classifiers_mod.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120,
        check=True,
    )
    assert done.stdout.split() == ["False", "False"]


_COLD_START_GUARD = """
import sys
from dataclasses import astuple

import preprank.cli
from preprank import classifiers, synthetic

heavy = ("scipy.optimize", "scipy.stats", "urllib.request", "concurrent.futures.process")
print([m for m in heavy if m in sys.modules])
dataset = synthetic.mini_corpus(7)[0]
[measures] = classifiers.cross_validate(classifiers.LOGISTIC, [dataset], seed=7)
print("scipy.optimize" in sys.modules)
print(repr(astuple(measures)))
"""


def test_cli_import_and_a_logistic_cv_leave_scipy_optimize_unloaded():
    src = str(Path(classifiers_mod.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run(
        [sys.executable, "-c", _COLD_START_GUARD], capture_output=True, text=True, env=env,
        timeout=120, check=True,
    )
    imported, optimize_loaded, measures = done.stdout.splitlines()
    assert imported == "[]"  # after ``import preprank.cli``
    assert optimize_loaded == "False"  # after a logistic CV, through the extension file alone
    # this process fits through ``scipy.optimize._lbfgsb``, imported at the top
    [expected] = cross_validate(LOGISTIC, mini_corpus(7)[:1], seed=7)
    assert measures == repr(astuple(expected))


# --- loading setulb without scipy.optimize --------------------------------------

_LBFGSB_MODULE = "scipy.optimize._lbfgsb"


@pytest.fixture
def fresh_setulb():
    """``classifiers._setulb`` looks ``setulb`` up again, in this test and after it."""
    classifiers_mod._setulb.cache_clear()
    yield
    classifiers_mod._setulb.cache_clear()


def test_setulb_is_the_loaded_scipy_optimize_one(fresh_setulb):
    assert classifiers_mod._setulb() is setulb


def test_setulb_loads_only_the_extension_file(monkeypatch, fresh_setulb):
    monkeypatch.delitem(sys.modules, _LBFGSB_MODULE)
    found = classifiers_mod._setulb()
    assert _LBFGSB_MODULE not in sys.modules
    assert found.__self__.__file__.endswith(tuple(EXTENSION_SUFFIXES))


def test_setulb_without_an_extension_file_imports_scipy_optimize(
    mini_datasets, monkeypatch, fresh_setulb
):
    problems = _fold_problems(mini_datasets[0])
    xs, ys, classes = zip(*(problems[i] for i in _shape_groups(problems)[0]))
    expected, _ = classifiers_mod._lbfgsb(np.stack(xs), np.stack(ys), classes[0])
    looked_up = []
    monkeypatch.setattr(classifiers_mod, "_extension_spec", lambda *args: looked_up.append(args))
    # the import below rebinds the package's attribute; it is restored after the test
    monkeypatch.setattr(sys.modules["scipy.optimize"], "_lbfgsb", sys.modules[_LBFGSB_MODULE])
    monkeypatch.delitem(sys.modules, _LBFGSB_MODULE)
    classifiers_mod._setulb.cache_clear()
    found = classifiers_mod._setulb()
    assert len(looked_up) == 1
    assert found is importlib.import_module(_LBFGSB_MODULE).setulb
    params, _ = classifiers_mod._lbfgsb(np.stack(xs), np.stack(ys), classes[0])
    assert params.tobytes() == expected.tobytes()


# --- catalog CVs share each distinct column's fold work ---------------------------

SHARING_KINDS = [NAIVE_BAYES, knn(1), knn(3), LOGISTIC]
#: the kinds that share fold results through ``_Shared``; logistic shares only its builders
FOLD_SHARING_KINDS = [NAIVE_BAYES, knn(1), knn(3)]


def _assert_catalog_equals_one_dataset_cvs(kind, datasets, seed, k=10):
    """Each dataset's fold scores and measures equal its one-dataset CV's, byte for byte."""
    found, measures = _catalog_cv(kind, datasets, seed, k)
    for ds, folds, pm in zip(datasets, found, measures):
        [alone], [alone_pm] = _catalog_cv(kind, [ds], seed, k)
        assert len(folds) == len(alone) == k
        for ours, theirs in zip(folds, alone):
            assert ours.dtype == theirs.dtype and ours.tobytes() == theirs.tobytes()
        assert pm == alone_pm
    return found


@pytest.mark.parametrize("k", [1, 3])
def test_catalog_knn_cv_in_blocks_equals_one_dataset_cvs(mini_datasets, monkeypatch, k):
    monkeypatch.setattr(classifiers_mod, "_KNN_BLOCK_CELLS", 200)  # 2-4 test rows per block
    for ds in mini_datasets[12:16]:
        _assert_catalog_equals_one_dataset_cvs(knn(k), _with_versions(ds), 7)


@st.composite
def _fuzz_catalogs(draw):
    """A fuzzed catalog: a dataset, its byte-equal copy, a version with a repeated column.

    Then the repeat with more NaN cells, and the dataset's operator versions.
    """
    ds = draw(_fuzz_datasets())
    j = draw(st.sampled_from(ds.predictor_indices))
    holes = np.array(draw(st.lists(st.booleans(), min_size=ds.n_rows, max_size=ds.n_rows)))
    rows = np.column_stack([ds.rows[:, :-1], ds.rows[:, j], ds.rows[:, -1]])
    copied = Dataset(
        "copied", (*ds.attributes[:-1], replace(ds.attributes[j], name="copy"), ds.class_attribute),
        ds.n_attributes, rows,
    )
    rows = np.array(rows)
    rows[holes, j] = np.nan
    holed = Dataset("holed", copied.attributes, copied.class_index, rows)
    return [ds, replace(ds, name="same"), copied, holed, *_with_versions(ds)[1:]]


@settings(max_examples=25, deadline=None)
@given(_fuzz_catalogs(), st.integers(0, 1000))
def test_catalog_cv_equals_one_dataset_cvs_on_fuzzed_catalogs(catalog, seed):
    for kind in (TREE, *SHARING_KINDS):
        found = _assert_catalog_equals_one_dataset_cvs(kind, catalog, seed, k=5)
        assert [a.tobytes() for a in found[1]] == [a.tobytes() for a in found[0]]  # the copy


def _tree_work(monkeypatch, datasets):
    """Work counts of a tree CV, each step's from the nodes it searches.

    (node, candidate) pairs and their distinct (node rows, column) pairs,
    against the pairs that reach the searches; split nodes and their
    distinct (node rows, chosen column) pairs, against the partitions run.
    """
    work = dict.fromkeys(
        ["pairs", "distinct", "searched", "splits", "distinct splits", "partitions"], 0
    )
    real = {name: getattr(tree, name) for name in
            ("_split_gains", "_search", "_categorical_gains", "_partition", "_categories")}
    depth = []  # _categorical_gains halves a large batch by calling itself

    def split_gains(xt, ranks, y, w, onehot, nodes, *args):
        gains = real["_split_gains"](xt, ranks, y, w, onehot, nodes, *args)
        keys = [rows.tobytes() for rows, _ in nodes]
        work["pairs"] += sum(feats.size for _, feats in nodes)
        work["distinct"] += len({(key, f) for key, (_, feats) in zip(keys, nodes) for f in feats})
        chosen = [(key, feats[k]) for key, (_, feats), k
                  in zip(keys, nodes, tree._select_rows(gains[0])) if k >= 0]
        work["splits"] += len(chosen)
        work["distinct splits"] += len(set(chosen))
        return gains

    def search(xt, ranks, onehot, rows, *args):
        work["searched"] += len(rows)
        return real["_search"](xt, ranks, onehot, rows, *args)

    def categorical_gains(xt, y, w, rows, *args):
        work["searched"] += 0 if depth else len(rows)
        depth.append(None)
        try:
            return real["_categorical_gains"](xt, y, w, rows, *args)
        finally:
            depth.pop()

    def partition(xt, w, rows, *args):  # a step's numeric pairs, split together
        work["partitions"] += len(rows)
        return real["_partition"](xt, w, rows, *args)

    def categories(*args):
        work["partitions"] += 1
        return real["_categories"](*args)

    with monkeypatch.context() as mp:
        for name, spy in [("_split_gains", split_gains), ("_search", search),
                          ("_categorical_gains", categorical_gains), ("_partition", partition),
                          ("_categories", categories)]:
            mp.setattr(tree, name, spy)
        cross_validate(TREE, datasets, 10, seed=7)
    return work


def test_tree_cv_searches_and_splits_each_distinct_node_once(mini_datasets, monkeypatch):
    catalog = _with_versions(mini_datasets[15])
    work = _tree_work(monkeypatch, catalog)
    assert 0 < work["searched"] == work["distinct"] < work["pairs"]
    assert 0 < work["partitions"] == work["distinct splits"] < work["splits"]
    # one dataset: its fold trees still meet on small nodes that no fold's test rows reach
    for ds in catalog[:3]:
        work = _tree_work(monkeypatch, [ds])
        assert 0 < work["searched"] == work["distinct"] <= work["pairs"]
        assert 0 < work["partitions"] == work["distinct splits"] <= work["splits"]


def test_tree_cv_keeps_nodes_apart_when_their_row_hashes_collide(mini_datasets, monkeypatch):
    # every node hashes alike, so only the byte comparison tells different rows apart
    catalog = _with_versions(mini_datasets[15])
    expected, expected_measures = _catalog_cv(TREE, catalog, 7)
    monkeypatch.setattr(tree, "hash", lambda rows: 0, raising=False)
    found, measures = _catalog_cv(TREE, catalog, 7)
    assert measures == expected_measures
    for ours, theirs in zip(found, expected):
        assert [a.tobytes() for a in ours] == [a.tobytes() for a in theirs]


@pytest.mark.parametrize("cells", [0, 300])
def test_shared_cells_budget_does_not_change_scores(mini_datasets, monkeypatch, cells):
    catalogs = [_with_versions(mini_datasets[i]) for i in (7, 15)]
    expected = {
        (kind, i): _catalog_cv(kind, catalog, 7)
        for kind in FOLD_SHARING_KINDS for i, catalog in enumerate(catalogs)
    }
    real_get, held = classifiers_mod._Shared.get, []

    def get(self, *args):
        value = real_get(self, *args)
        held.append(self.cells)
        return value

    monkeypatch.setattr(classifiers_mod, "_SHARED_CELLS", cells)
    monkeypatch.setattr(classifiers_mod._Shared, "get", get)
    for kind in FOLD_SHARING_KINDS:
        for i, catalog in enumerate(catalogs):
            COLUMN_FOLDS.reset()
            found, measures = _catalog_cv(kind, catalog, 7)
            want, want_measures = expected[kind, i]
            assert measures == want_measures
            for ours, theirs in zip(found, want):
                assert [a.tobytes() for a in ours] == [a.tobytes() for a in theirs]
            pairs = 10 * sum(len(ds.predictor_indices) for ds in catalog)
            assert COLUMN_FOLDS.value == pairs if cells == 0 else COLUMN_FOLDS.value < pairs
    assert max(held) <= cells and (cells == 0 or max(held) > 0)


@pytest.mark.parametrize("kind", FOLD_SHARING_KINDS, ids=lambda kind: kind.name)
def test_shared_results_are_kept_only_for_later_readers(mini_datasets, kind, monkeypatch):
    # each fold has its own _Shared, and a column's results are read in it once per
    # (dataset, predictor) slot holding the column
    catalog = _with_versions(mini_datasets[15])
    columns = [
        {j: (ds.attributes[j].kind, len(ds.attributes[j].categories), ds.column(j).tobytes())
         for j in ds.predictor_indices}
        for ds in catalog
    ]
    slots = Counter(c for ds_columns in columns for c in ds_columns.values())
    assert 1 in slots.values() and max(slots.values()) > 1
    real_get, reads, seen, readers_of = classifiers_mod._Shared.get, Counter(), Counter(), {}

    def get(self, a, j, scope, fn, *args):
        value = real_get(self, a, j, scope, fn, *args)
        key, readers = (self.ids[a][j], scope), slots[columns[a][j]]
        assert self.readers[key[0]] == readers
        readers_of[self, key] = readers
        reads[self, key] += 1
        assert reads[self, key] <= readers
        if readers == 1:
            seen["single"] += 1
            assert key not in self.cache  # no later reader: never stored
        elif reads[self, key] == readers:
            seen["last"] += 1
            assert key not in self.cache  # dropped at its last read
        seen["stored"] = max(seen["stored"], len(self.cache))
        return value

    monkeypatch.setattr(classifiers_mod._Shared, "get", get)
    cross_validate(kind, catalog, 10, seed=7)
    assert seen["single"] and seen["last"] and seen["stored"], seen
    assert reads == readers_of  # every slot read each of its fold's keys
    folds = list(dict.fromkeys(shared for shared, _ in reads))
    assert len(folds) == 10
    assert all(shared.cache == {} and shared.cells == 0 for shared in folds)


def test_a_one_dataset_cv_computes_a_repeated_column_once(mini_datasets):
    ds = mini_datasets[15]
    j = ds.predictor_indices[0]
    rows = np.column_stack([ds.rows[:, :-1], ds.rows[:, j], ds.rows[:, -1]])
    attrs = (*ds.attributes[:-1], replace(ds.attributes[j], name="copy"), ds.class_attribute)
    repeated = Dataset("repeated", attrs, ds.n_attributes, rows)
    fold_of_row = stratified_folds(repeated, 10, 7)
    train_rows = [np.flatnonzero(fold_of_row != f) for f in range(10)]
    test_rows = [np.flatnonzero(fold_of_row == f) for f in range(10)]
    _assert_catalog_matches_oracle([repeated], 7)
    oracles = {
        LOGISTIC: _one_dataset_logistic,
        **{kind: partial(_copy_fold_scores, kind) for kind in (NAIVE_BAYES, knn(1), knn(3))},
    }
    for kind, oracle in oracles.items():
        COLUMN_FOLDS.reset()
        [found], _ = _catalog_cv(kind, [repeated], 7)
        assert COLUMN_FOLDS.value == 10 * len(ds.predictor_indices)  # the copy adds none
        [expected] = oracle([repeated], train_rows, test_rows)
        assert [a.tobytes() for a in found] == [a.tobytes() for a in expected]


@pytest.mark.parametrize("kind", SHARING_KINDS, ids=lambda kind: kind.name)
def test_column_folds_count_each_distinct_column_once_per_fold(mini_datasets, kind):
    catalog = _with_versions(mini_datasets[15])
    COLUMN_FOLDS.reset()
    cross_validate(kind, catalog, 10, seed=7)
    assert COLUMN_FOLDS.value == 10 * len(distinct_columns(catalog))
    assert COLUMN_FOLDS.value < 10 * sum(len(ds.predictor_indices) for ds in catalog)
    for ds in catalog[:3]:
        COLUMN_FOLDS.reset()
        cross_validate(kind, [ds], 10, seed=7)
        assert COLUMN_FOLDS.value == 10 * len(ds.predictor_indices)


def test_catalog_logistic_cv_builds_each_design_block_where_it_reads_it():
    ds = random_dataset(
        2018, n_rows=500, n_continuous=10, n_categorical=5, n_classes=3, missing_rate=0.03
    )
    catalog = _with_versions(ds)
    assert len(catalog) == 35
    classifiers_mod._setulb()  # loaded before tracing
    tracemalloc.start()
    try:
        cross_validate(LOGISTIC, catalog, 10, seed=7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # no design block waits for a later reader: 4.8 MiB, against 8.9 MiB when they were kept
    assert peak < 6.5 * 2**20


@pytest.mark.parametrize("kind", [TREE, NAIVE_BAYES, knn(1), LOGISTIC], ids=lambda k: k.name)
def test_an_empty_catalog_is_refused(kind):
    CV_RUNS.reset()
    with pytest.raises(ValueError, match="at least one dataset"):
        cross_validate(kind, [], seed=1)
    assert CV_RUNS.value == 0

