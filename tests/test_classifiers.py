import math

import numpy as np
import pytest
from scipy.optimize import minimize

import preprank.classifiers as classifiers_mod
from preprank.classifiers import (
    LOGISTIC,
    NAIVE_BAYES,
    TREE,
    CV_RUNS,
    ClassifierKind,
    PerformanceMeasures,
    cross_validate,
    fit_predict,
    knn,
    parse_classifier,
    register_learner,
)
from preprank.dataset import Attribute, Dataset, stratified_folds
from preprank.synthetic import random_dataset
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
    [(pred, scores)] = fit_predict(knn(1), train, test, seed=0)
    assert pred == 1
    assert scores[1] == 1.0


def test_knn_distance_ties_take_lowest_row_index():
    train = small_dataset([[0.0, 0], [2.0, 1]])
    test = small_dataset([[1.0, 0]])  # equidistant from both
    [(pred, _)] = fit_predict(knn(1), train, test, seed=0)
    assert pred == 0


def test_tree_perfectly_separable():
    ds = random_dataset(5, n_rows=40, n_continuous=1, n_categorical=0, class_sep=50.0)
    train = ds.subset(range(0, 30))
    test = ds.subset(range(30, 40))
    out = fit_predict(TREE, train, test, seed=0)
    assert [p for p, _ in out] == list(test.class_labels)


def test_naive_bayes_hand_posteriors():
    train = small_dataset(
        [[1.0, 0, 0], [2.0, 0, 0], [3.0, 1, 1], [5.0, 1, 1]],
        kinds=("continuous", "categorical"),
    )
    test = small_dataset([[2.5, 0, 0]], kinds=("continuous", "categorical"))
    [(pred, scores)] = fit_predict(NAIVE_BAYES, train, test, seed=0)

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
    [(pred, scores)] = fit_predict(NAIVE_BAYES, train, test, seed=0)
    # only prior and the categorical factor remain
    assert scores[0] == pytest.approx(0.75, rel=1e-9)


def test_logistic_learns_separable_data():
    ds = random_dataset(6, n_rows=60, n_continuous=2, n_categorical=0, class_sep=6.0)
    pm = cross_validate(LOGISTIC, ds, 10, seed=1)
    assert pm.accuracy > 0.9


def test_schema_mismatch_rejected():
    a = small_dataset([[1.0, 0], [2.0, 1]])
    b = small_dataset([[1.0, 0, 0], [2.0, 1, 1]], kinds=("continuous", "categorical"))
    with pytest.raises(ValueError):
        fit_predict(TREE, a, b, seed=0)


def test_pluggable_learner_and_trivial_measures():
    def majority_learner(kind, train, test, seed):
        counts = np.bincount(
            train.class_labels, minlength=len(train.class_attribute.categories)
        )
        winner = int(np.argmax(counts))
        scores = np.zeros((test.n_rows, counts.size))
        scores[:, winner] = 1.0
        return scores

    register_learner("majority", majority_learner)
    ds = random_dataset(9, n_rows=40, n_continuous=1, n_classes=2)
    # force an exactly balanced binary dataset
    rows = np.array(ds.rows)
    rows[:, ds.class_index] = np.arange(40) % 2
    balanced = Dataset(ds.name, ds.attributes, ds.class_index, rows)
    pm = cross_validate(ClassifierKind("majority"), balanced, 10, seed=0)
    assert pm.accuracy == 0.5
    assert pm.recall == 0.5  # macro: 1.0 for the predicted class, 0.0 for the other
    assert pm.auc == 0.5  # constant scores rank everything equally


def test_perfect_classifier_all_ones():
    def oracle_learner(kind, train, test, seed):
        n_classes = len(train.class_attribute.categories)
        scores = np.zeros((test.n_rows, n_classes))
        scores[np.arange(test.n_rows), test.class_labels] = 1.0
        return scores

    register_learner("oracle", oracle_learner)
    ds = random_dataset(10, n_rows=30, n_continuous=2, n_classes=3)
    pm = cross_validate(ClassifierKind("oracle"), ds, 10, seed=0)
    assert pm == PerformanceMeasures(1.0, 1.0, 1.0, 1.0)


def test_cross_validate_matches_brute_force_1nn():
    ds = random_dataset(11, n_rows=30, n_continuous=2, n_categorical=1, n_classes=2)
    pm = cross_validate(knn(1), ds, 10, seed=3)

    # independent recomputation: explicit fold loop and a from-scratch 1-NN
    assignment = stratified_folds(ds, 10, 3)
    folds = np.asarray(assignment.fold_of_row)
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
        assert cross_validate(kind, ds, 10, seed=7) == cross_validate(kind, ds, 10, seed=7)


def test_tree_invariant_under_scaling():
    ds = random_dataset(13, n_rows=60, n_continuous=3, n_categorical=1, missing_rate=0.05)
    base = cross_validate(TREE, ds, 10, seed=5)
    for kind in ("normalize", "standardize"):
        scaled = apply(TransformationSpec(kind, "global"), ds)
        assert cross_validate(TREE, scaled, 10, seed=5) == base


def test_knn_invariant_under_external_normalization():
    ds = random_dataset(14, n_rows=60, n_continuous=3, n_categorical=1)
    base = cross_validate(knn(1), ds, 10, seed=5)
    scaled = apply(TransformationSpec("normalize", "global"), ds)
    assert cross_validate(knn(1), scaled, 10, seed=5) == base


def test_random_scorer_auc_near_half():
    def random_learner(kind, train, test, seed):
        rng = np.random.default_rng(seed + test.n_rows)
        raw = rng.random((test.n_rows, len(train.class_attribute.categories)))
        return raw / raw.sum(axis=1, keepdims=True)

    register_learner("coin", random_learner)
    ds = random_dataset(15, n_rows=1000, n_continuous=1, n_classes=2)
    rows = np.array(ds.rows)
    rows[:, ds.class_index] = np.arange(1000) % 2
    balanced = Dataset(ds.name, ds.attributes, ds.class_index, rows)
    pm = cross_validate(ClassifierKind("coin"), balanced, 10, seed=99)
    assert pm.auc == pytest.approx(0.5, abs=0.05)


def test_cv_run_counter():
    ds = random_dataset(16, n_rows=20, n_continuous=1)
    CV_RUNS.reset()
    cross_validate(TREE, ds, 5, seed=0)
    cross_validate(TREE, ds, 5, seed=1)
    assert CV_RUNS.value == 2


def test_k_larger_than_rows_rejected():
    ds = random_dataset(17, n_rows=8)
    with pytest.raises(ValueError):
        cross_validate(TREE, ds, 9, seed=0)


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
    output = fit_predict(TREE, ds, ds, 1)
    assert [p for p, _ in output] == list(ds.class_labels)


# --- kNN against the full stable sort it replaced ------------------------------


def _argsort_knn(kind, train, test, seed):
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
    return ds.subset(np.sort(order[cut:])), ds.subset(np.sort(order[:cut]))


KNN_CASES = [
    dict(seed=1, n_rows=60, n_continuous=2, n_categorical=1),
    dict(seed=2, n_rows=90, n_continuous=3, n_categorical=2, coarse=True),
    dict(seed=3, n_rows=90, n_continuous=0, n_categorical=3, n_classes=3),
    dict(seed=4, n_rows=120, n_continuous=3, n_categorical=2, missing_rate=0.2),
    dict(seed=5, n_rows=120, n_continuous=2, n_categorical=1, missing_rate=0.5, coarse=True),
    dict(seed=6, n_rows=600, n_continuous=3, n_categorical=2, n_classes=4, coarse=True),
]


@pytest.mark.parametrize("k", [1, 2, 3, 5])
@pytest.mark.parametrize("case", KNN_CASES)
def test_knn_matches_full_stable_sort(case, k):
    train, test = _knn_split(**case)
    expected = _argsort_knn(knn(k), train, test, 0)
    assert np.array_equal(classifiers_mod._learner_knn(knn(k), train, test, 0), expected)


def test_knn_case_spans_several_blocks():
    _, test = _knn_split(**KNN_CASES[-1])
    assert test.n_rows > 2 * classifiers_mod._KNN_BLOCK_ROWS


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
            expected = _argsort_knn(knn(k), train, test, 0)
            assert np.array_equal(classifiers_mod._learner_knn(knn(k), train, test, 0), expected)


@pytest.mark.parametrize("k", [1, 3])
def test_knn_block_size_does_not_change_scores(monkeypatch, k):
    train, test = _knn_split(**KNN_CASES[4])
    monkeypatch.setattr(classifiers_mod, "_KNN_BLOCK_ROWS", 1)
    one_row = classifiers_mod._learner_knn(knn(k), train, test, 0)
    monkeypatch.setattr(classifiers_mod, "_KNN_BLOCK_ROWS", test.n_rows)
    one_block = classifiers_mod._learner_knn(knn(k), train, test, 0)
    assert np.array_equal(one_row, one_block)


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


def _logistic_problem(train):
    """The design matrix, labels and class count of a logistic fit on ``train``."""
    x = classifiers_mod._logistic_apply(classifiers_mod._logistic_design(train), train)
    return x, train.class_labels, len(train.class_attribute.categories)


def _assert_driver_matches_minimize(x, y, n_classes):
    """The driver's point equals ``minimize``'s bit for bit, after as many evaluations."""
    n_params = (x.shape[1] + 1) * n_classes
    objective = classifiers_mod._logistic_objective(x, y, n_classes)
    evaluations = 0

    def counted(params):
        nonlocal evaluations
        evaluations += 1
        return objective(params)

    found = classifiers_mod._lbfgsb(counted, n_params)
    expected = minimize(
        _minimize_objective(x, y, n_classes), np.zeros(n_params), jac=True,
        method="L-BFGS-B",
        options={
            "maxiter": classifiers_mod._LBFGSB_MAX_ITERATIONS, "gtol": 1e-6, "ftol": 1e-14,
        },
    )
    assert np.array_equal(found, expected.x)
    assert evaluations == expected.nfev
    return expected


def _discretized(ds):
    """``ds`` after its all-attributes (else its one) ``discretize_unsup``, or None."""
    specs = [s for s in enumerate_applicable(ds) if s.kind == "discretize_unsup"]
    return apply(specs[-1], ds) if specs else None


def test_lbfgsb_matches_minimize_on_every_mini_corpus_fold(mini_datasets):
    datasets = list(mini_datasets)
    datasets += [t for t in map(_discretized, mini_datasets) if t is not None]
    widest = 0
    for ds in datasets:
        fold_of_row = np.asarray(stratified_folds(ds, 10, 42).fold_of_row)
        for fold in range(10):
            x, y, n_classes = _logistic_problem(ds.subset(np.flatnonzero(fold_of_row != fold)))
            widest = max(widest, (x.shape[1] + 1) * n_classes)
            _assert_driver_matches_minimize(x, y, n_classes)
    assert len(datasets) > len(mini_datasets)
    assert widest == 122  # the one-hot designs of the discretized datasets


def test_lbfgsb_matches_minimize_when_a_class_is_missing():
    rng = np.random.default_rng(3)
    values = rng.normal(size=(30, 2))
    labels = np.arange(30) % 2  # class c2 never occurs in training
    train = small_dataset(np.column_stack([values, labels]), 3, ("continuous",) * 2)
    _assert_driver_matches_minimize(*_logistic_problem(train))


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
    _assert_driver_matches_minimize(x, y, n_classes)


def test_lbfgsb_iteration_cap_stops_where_minimize_stops(mini_datasets, monkeypatch):
    monkeypatch.setattr(classifiers_mod, "_LBFGSB_MAX_ITERATIONS", 3)
    x, y, n_classes = _logistic_problem(mini_datasets[0])
    result = _assert_driver_matches_minimize(x, y, n_classes)
    assert result.nit == 3 and result.status == 1
    assert "ITERATIONS REACHED LIMIT" in result.message


def test_logistic_objective_matches_minimize_objective_bit_for_bit(mini_datasets):
    rng = np.random.default_rng(11)
    for ds in (mini_datasets[0], mini_datasets[5], _discretized(mini_datasets[1])):
        x, y, n_classes = _logistic_problem(ds)
        new = classifiers_mod._logistic_objective(x, y, n_classes)
        old = _minimize_objective(x, y, n_classes)
        for scale in (0.0, 1e-3, 1.0, 50.0, 1e4):  # 1e4 drives probabilities to the 1e-300 floor
            for _ in range(5):
                params = rng.normal(scale=scale, size=(x.shape[1] + 1) * n_classes)
                loss, gradient = new(params)
                expected_loss, expected_gradient = old(params.copy())
                assert loss == expected_loss
                assert np.array_equal(gradient, expected_gradient)
