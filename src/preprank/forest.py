"""Tri-class random-forest meta-learner with leave-one-dataset-out evaluation.

Trees grow on bootstrap samples drawn with dataset-balancing instance
weights, split on a random subset of features by weighted Gini gain, and
route NOT_APPLICABLE values through a per-split default branch learned from
the majority direction.  The tree algorithm itself lives in :mod:`.tree`.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import tree
from .metadb import (
    FEATURE_COLUMNS,
    MetaDatabase,
    RESPONSE_CLASSES,
    exclude_dataset,
    feature_matrix,
    instance_features,
)

MODEL_SCHEMA_VERSION = 1
DEFAULT_TREES = 100
MIN_NODE_SIZE = 5


class ModelError(Exception):
    """Model persistence or schema failure."""


@dataclass(frozen=True)
class ForestModel:
    """Trained forest; trees are nested node dicts over feature columns."""

    trees: tuple[dict, ...]
    n_trees: int
    feature_ids: tuple[str, ...]
    class_order: tuple[str, ...]
    seed: int
    algorithm: str = ""
    measure: str = ""


def train_forest(
    db: MetaDatabase, n_trees: int = DEFAULT_TREES, *, seed: int
) -> ForestModel:
    """Train the tri-class forest on a meta-database.

    Bootstrap sampling probabilities and impurity both use the per-dataset
    weights 1/|T_d|, so every source dataset carries the same influence.
    """
    if not db.rows:
        raise ValueError("empty meta-database")
    x, y, w = feature_matrix(db)
    if np.unique(y).size < 2:
        raise ValueError("meta-database holds a single response class")
    n_rows, n_features = x.shape
    n_candidates = min(n_features, math.ceil(math.sqrt(n_features)))
    prob = w / w.sum()
    bags = []  # per tree: its bootstrap rows of x and its feature draws
    for tree_seed in np.random.SeedSequence(seed).spawn(n_trees):
        rng = np.random.default_rng(tree_seed)
        sample = rng.choice(n_rows, size=n_rows, replace=True, p=prob)

        def draw(rng=rng):
            return np.sort(rng.choice(n_features, size=n_candidates, replace=False))

        bags.append((sample, draw))
    trees = tree.grow(
        x, y, w, len(RESPONSE_CLASSES), bags, criterion=tree.GINI, min_node=MIN_NODE_SIZE
    )
    return ForestModel(
        trees=tuple(trees),
        n_trees=n_trees,
        feature_ids=FEATURE_COLUMNS,
        class_order=RESPONSE_CLASSES,
        seed=seed,
        algorithm=db.algorithm.name,
        measure=db.measure,
    )


def predict_proba(model: ForestModel, features: np.ndarray):
    """Fraction of trees voting each class, in the model's class order."""
    row = np.asarray(features, dtype=float)
    if row.shape != (len(model.feature_ids),):
        raise ValueError(
            f"feature row has shape {row.shape}, expected ({len(model.feature_ids)},)"
        )
    row = row.tolist()
    votes = [0] * len(model.class_order)
    for root in model.trees:
        p = tree.leaf(root, row)["p"]
        votes[p.index(max(p))] += 1  # the first maximum: ties go in class order
    return tuple(v / len(model.trees) for v in votes)


def predicted_class(model: ForestModel, proba) -> str:
    """The most probable class; ties go to the earliest in the class order."""
    return model.class_order[int(np.argmax(proba))]


@dataclass(frozen=True)
class LoovPrediction:
    transformation: str
    probabilities: tuple[float, float, float]
    predicted_class: str
    true_class: str


@dataclass(frozen=True)
class LoovFold:
    dataset_name: str
    predictions: tuple[LoovPrediction, ...]
    #: the training fold held one response class, predicted with probability 1
    single_class: bool = False


@dataclass(frozen=True)
class LoovReport:
    per_dataset: tuple[LoovFold, ...]


def loov_evaluate(db: MetaDatabase, n_trees: int = DEFAULT_TREES, *, seed: int) -> LoovReport:
    """Leave-one-dataset-out predictions for every meta-instance.

    For each source dataset, a forest is trained on every other dataset's
    rows and scores the held-out rows; no instance of the test dataset ever
    reaches its own training fold.  A training fold with a single response
    class trains no forest: its held-out rows get that class with
    probability 1, and the fold is marked ``single_class``.
    """
    names = db.dataset_names()
    if len(names) < 2:
        raise ValueError("leave-one-dataset-out needs at least two source datasets")
    folds = []
    for name in names:
        train_db = exclude_dataset(db, name)
        classes = {r.meta_response_class for r in train_db.rows}
        if len(classes) == 1:
            [only] = classes
            proba = tuple(float(c == only) for c in RESPONSE_CLASSES)
            predictions = tuple(
                LoovPrediction(row.transformation, proba, only, row.meta_response_class)
                for row in db.rows_of(name)
            )
            folds.append(LoovFold(name, predictions, single_class=True))
            continue
        model = train_forest(train_db, n_trees, seed=seed)
        predictions = []
        for row in db.rows_of(name):
            proba = predict_proba(model, instance_features(row))
            predictions.append(
                LoovPrediction(
                    transformation=row.transformation,
                    probabilities=proba,
                    predicted_class=predicted_class(model, proba),
                    true_class=row.meta_response_class,
                )
            )
        folds.append(LoovFold(name, tuple(predictions)))
    return LoovReport(tuple(folds))


# --- persistence ----------------------------------------------------------


def save_model(model: ForestModel, path, extra: dict | None = None) -> None:
    """Write the forest as versioned JSON; floats keep full precision."""
    doc = {
        "format": "preprank-forest",
        "schema_version": MODEL_SCHEMA_VERSION,
        "n_trees": model.n_trees,
        "seed": model.seed,
        "algorithm": model.algorithm,
        "measure": model.measure,
        "class_order": list(model.class_order),
        "feature_ids": list(model.feature_ids),
        "trees": list(model.trees),
    }
    if extra:
        doc["config"] = extra
    Path(path).write_text(json.dumps(doc, indent=1), encoding="utf-8")


def load_model(path) -> ForestModel:
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ModelError(f"malformed model file: {exc}") from exc
    if doc.get("format") != "preprank-forest":
        raise ModelError("not a forest model file")
    if doc.get("schema_version") != MODEL_SCHEMA_VERSION:
        raise ModelError(
            f"schema_version {doc.get('schema_version')} not supported "
            f"(expected {MODEL_SCHEMA_VERSION})"
        )
    return ForestModel(
        trees=tuple(doc["trees"]),
        n_trees=int(doc["n_trees"]),
        feature_ids=tuple(doc["feature_ids"]),
        class_order=tuple(doc["class_order"]),
        seed=int(doc["seed"]),
        algorithm=doc.get("algorithm", ""),
        measure=doc.get("measure", ""),
    )
