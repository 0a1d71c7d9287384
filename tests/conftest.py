import math
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import strategies as st

import preprank.forest as forest_mod
from preprank.classifiers import LOGISTIC, TREE, knn
from preprank.dataset import Attribute, Dataset
from preprank.metadb import MetaDatabase, MetaInstance, build_metadb
from preprank.metafeatures import FEATURE_IDS, MODIFIABLE_IDS
from preprank.openml import load_corpus, read_manifest

ROOT = Path(__file__).resolve().parents[1]
CORPUS_DIR = ROOT / "corpus"
MINI_MANIFEST = CORPUS_DIR / "mini.manifest"

SEED = 42



def distinct_columns(catalog):
    """The (kind, category count, cell bytes) keys of every predictor column of a catalog."""
    return {
        (ds.attributes[j].kind, len(ds.attributes[j].categories), ds.column(j).tobytes())
        for ds in catalog
        for j in ds.predictor_indices
    }


@st.composite
def categorical_columns(draw):
    """A categorical predictor (column 0) and a class (column 1), with their edge cases.

    The predictor may be all missing, have one category, declare categories
    that never occur, or have up to 12; the class has up to 10 categories,
    some maybe never occurring.
    """
    n, k, n_classes = draw(st.integers(1, 40)), draw(st.integers(1, 12)), draw(st.integers(2, 10))
    used = draw(st.lists(st.integers(0, k - 1), min_size=1, max_size=k, unique=True))
    labels = draw(st.lists(st.integers(0, n_classes - 1), min_size=1, max_size=n_classes,
                           unique=True))
    cell = st.sampled_from(used).map(float)
    if draw(st.booleans()):
        cell = cell | st.just(math.nan)
    cells = [math.nan] * n if draw(st.integers(0, 4)) == 0 else draw(
        st.lists(cell, min_size=n, max_size=n))
    classes = draw(st.lists(st.sampled_from(labels), min_size=n, max_size=n))
    attrs = (
        Attribute("a", "categorical", tuple(f"v{i}" for i in range(k))),
        Attribute("class", "categorical", tuple(f"c{i}" for i in range(n_classes))),
    )
    return Dataset("categorical", attrs, 1, np.column_stack([cells, classes]).astype(float))


NUMBER = re.compile(r"-?\d+\.\d+(?:e-?\d+)?")  # a numeric cell of the mini corpus


@st.composite
def mutated_texts(draw, texts, inserted="'\"?{}"):
    """One of ``texts`` with 1-3 lines deleted, repeated, given one of ``inserted`` or a number.

    ``inserted`` holds characters or longer tokens; a number mutation puts an
    extreme value in place of a numeric cell.
    """
    lines = draw(st.sampled_from(texts)).split("\n")
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(0, len(lines) - 1))
        kind = draw(st.sampled_from(("delete", "duplicate", "insert", "number")))
        if kind == "delete" and len(lines) > 1:
            del lines[at]
        elif kind == "duplicate":
            lines.insert(at, lines[at])
        elif kind == "insert":
            pos = draw(st.integers(0, len(lines[at])))
            lines[at] = lines[at][:pos] + draw(st.sampled_from(inserted)) + lines[at][pos:]
        elif kind == "number":
            cells = [(i, m) for i, line in enumerate(lines) for m in NUMBER.finditer(line)]
            if cells:
                i, m = draw(st.sampled_from(cells))
                value = draw(st.sampled_from(("1e308", "1e-320", "nan", "-0.0")))
                lines[i] = lines[i][: m.start()] + value + lines[i][m.end() :]
    return "\n".join(lines)


def feature(values, feature_id):
    """The entry named ``feature_id`` of a meta-feature array in FEATURE_IDS order."""
    return float(values[FEATURE_IDS.index(feature_id)])


@pytest.fixture(scope="session")
def mini_datasets():
    entries = read_manifest(MINI_MANIFEST)
    result = load_corpus(entries, CORPUS_DIR / "unused-cache")
    assert not result.failures
    return result.datasets


@pytest.fixture(scope="session")
def tree_metadb(mini_datasets):
    return build_metadb(mini_datasets, TREE, "acc", SEED)


@pytest.fixture(scope="session")
def knn_metadb(mini_datasets):
    return build_metadb(mini_datasets, knn(1), "acc", SEED)


@pytest.fixture(scope="session")
def logistic_metadb(mini_datasets):
    return build_metadb(mini_datasets, LOGISTIC, "acc", SEED)


def simulate_random_pick(t, l_real, k, rate, trials, rng):
    """Monte Carlo of the random picker's per-cell success fraction.

    Per trial the picker flags y transformations as positive, y dithered
    between the integers around t*rate.  Positions up to min(K, y) land on a
    uniformly random transformation (true-positive chance L/T); past the
    diagonal a position succeeds when it holds an unpicked non-positive,
    which happens with the unpicked share of non-positives.
    """
    y_expected = t * rate
    base = int(np.floor(y_expected))
    y = base + (rng.random(trials) < (y_expected - base))
    head_n = np.minimum(k, y)
    hits = rng.binomial(head_n, l_real / t)
    branch_high = y >= l_real
    tail_high = rng.binomial(np.maximum(0, k - y), (t - l_real) / t)
    tail_low = rng.binomial(max(0, k - l_real), 1.0 - y / t)
    hits = hits + np.where(branch_high, tail_high, tail_low)
    return float((hits / k).mean())


RULE_DRIVER = "MeanSkewnessOfContinuousAttributes"


def make_rule_metadb(n_datasets=30, seed=0, with_zero_band=True):
    """Synthetic meta-database whose response follows a known one-feature rule.

    The delta of RULE_DRIVER drives the outcome: positive above +0.5,
    negative below -0.5, zero in between (or a pure positive/negative split
    at 0 when ``with_zero_band`` is off).  Every other column is noise.
    """
    rng = np.random.default_rng(seed)
    rows = []
    for d in range(n_datasets):
        t = int(rng.integers(6, 13))
        base_perf = float(rng.uniform(0.5, 0.9))
        base = {fid: float(rng.normal()) for fid in MODIFIABLE_IDS}
        for i in range(t):
            deltas = {fid: float(rng.normal(0.0, 0.3)) for fid in MODIFIABLE_IDS}
            x = float(rng.uniform(-2.0, 2.0))
            deltas[RULE_DRIVER] = x
            if with_zero_band:
                if x > 0.5:
                    cls, value = "positive", 0.05 * x
                elif x < -0.5:
                    cls, value = "negative", 0.05 * x
                else:
                    cls, value = "zero", 0.0
            else:
                cls = "positive" if x > 0 else "negative"
                value = 0.05 * x
            rows.append(
                MetaInstance(
                    dataset_name=f"ds{d:02d}",
                    transformation=f"discretize_unsup(attr={i},bins=10)",
                    features=np.array([*base.values(), *deltas.values(), base_perf]),
                    meta_response_value=value,
                    meta_response_class=cls,
                )
            )
    return MetaDatabase(TREE, "acc", tuple(rows))


def single_class_fold_metadb():
    """ds00 holds the only non-zero row, so its training fold is all zero."""
    db = make_rule_metadb(n_datasets=4, seed=12)
    rows = [replace(r, meta_response_class="zero", meta_response_value=0.0) for r in db.rows]
    first = next(i for i, r in enumerate(rows) if r.dataset_name == "ds00")
    rows[first] = replace(rows[first], meta_response_class="positive", meta_response_value=0.1)
    return MetaDatabase(db.algorithm, db.measure, tuple(rows))


def record_forest_growth(monkeypatch):
    """Record what every forest grown in the test is trained on.

    Hooks ``forest._train_forests``, the one seam both ``train_forest`` and
    ``loov_evaluate`` grow forests through, and ``tree.grow`` under it.
    Returns (calls, bags), filled as forests grow: per call its row sets and
    tree count, and per tree its bootstrap rows in growth order.
    """
    calls, bags = [], []
    real_train, real_grow = forest_mod._train_forests, forest_mod.tree.grow

    def recording_train(db, matrix, row_sets, n_trees, *, seed):
        calls.append(([np.array(rows) for rows in row_sets], n_trees))
        return real_train(db, matrix, row_sets, n_trees, seed=seed)

    def recording_grow(x, y, w, n_classes, trees, **kwargs):
        bags.extend(np.array(rows) for rows, _ in trees)
        return real_grow(x, y, w, n_classes, trees, **kwargs)

    monkeypatch.setattr(forest_mod, "_train_forests", recording_train)
    monkeypatch.setattr(forest_mod.tree, "grow", recording_grow)
    return calls, bags


def loov_training_folds(db, calls, bags):
    """Held-out dataset of every forest one ``loov_evaluate`` grew, in order.

    Asserts that all folds went to one call, in dataset order, that each
    fold's row set is exactly the rows of every other dataset, and that each
    tree of a fold that grows a forest (one with two or more classes)
    bootstraps as many rows as the fold holds, all from the fold.
    """
    source = np.array([r.dataset_name for r in db.rows])
    y = np.array([r.meta_response_class for r in db.rows])
    [(row_sets, n_trees)] = calls
    assert len(row_sets) == len(db.dataset_names())
    trained, grown = [], iter(bags)
    for name, rows in zip(db.dataset_names(), row_sets):
        assert rows.tolist() == np.flatnonzero(source != name).tolist()
        if len(set(y[rows])) < 2:
            continue
        trained.append(name)
        for _ in range(n_trees):
            bag = next(grown)
            assert bag.size == rows.size
            assert np.isin(bag, rows).all() and name not in set(source[bag])
    assert next(grown, None) is None
    return trained
