from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from preprank.classifiers import LOGISTIC, TREE, knn
from preprank.metadb import MetaDatabase, MetaInstance, build_metadb
from preprank.metafeatures import MODIFIABLE_IDS
from preprank.openml import load_corpus, read_manifest

ROOT = Path(__file__).resolve().parents[1]
CORPUS_DIR = ROOT / "corpus"
MINI_MANIFEST = CORPUS_DIR / "mini.manifest"

SEED = 42


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
                    base_features=base,
                    delta_features=deltas,
                    base_performance=base_perf,
                    meta_response_value=value,
                    meta_response_class=cls,
                    measure="acc",
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
