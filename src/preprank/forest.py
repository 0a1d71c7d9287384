"""Tri-class random-forest meta-learner with leave-one-dataset-out evaluation.

Trees grow on bootstrap samples drawn with dataset-balancing instance
weights, split on a random subset of features by weighted Gini gain, and
route NOT_APPLICABLE values through a per-split default branch learned from
the majority direction.  The tree algorithm itself lives in :mod:`.tree`.
A tree draws its nodes' features a table at a time, as NumPy's Floyd branch
of ``Generator.choice`` (populations up to 10 000) would draw them one by one.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, replace
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

from . import tree
from .dataset import write_file
from .metadb import FEATURE_COLUMNS, RESPONSE_CLASSES, MetaDatabase, feature_matrix

MODEL_SCHEMA_VERSION = 1
DEFAULT_TREES = 100
MIN_NODE_SIZE = 5


class ModelError(Exception):
    """Model persistence or schema failure."""


@dataclass(frozen=True)
class ForestModel:
    """Trained forest: nested node dicts over FEATURE_COLUMNS, voting for RESPONSE_CLASSES."""

    trees: tuple[dict, ...]
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
    [model] = _train_forests(db, (x, y, w), [np.arange(len(y))], n_trees, seed=seed)
    if model is None:
        raise ValueError("meta-database holds a single response class")
    return model


def _train_forests(db, matrix, row_sets, n_trees, *, seed):
    """Per row set of ``matrix = feature_matrix(db)``, its forest or None for one class.

    Each forest is the one :func:`train_forest` grows on those rows alone:
    leaving out whole source datasets keeps the other rows' weights 1/|T_d|
    and their order.  Forests grow in lockstep, one :func:`tree.grow` call per
    group: with ``cap = max(n_trees, DEFAULT_TREES)``, the row sets split in
    order into ``max(1, len(row_sets) * n_trees // cap)`` runs whose sizes
    differ by at most one, larger first, so a group holds fewer than
    ``2 * cap`` trees and none is a short tail; to cap memory, a group's
    forests are yielded before the next group grows.
    A tree's generator draws its bootstrap sample, then its nodes' features in pre-order,
    ``rows.size // MIN_NODE_SIZE + 1`` at a time, as ``choice``'s Floyd branch would (111 columns).
    """
    if n_trees < 1:
        raise ValueError(f"a forest needs at least one tree, got {n_trees}")
    x, y, w = matrix
    n_groups = max(1, len(row_sets) * n_trees // max(n_trees, DEFAULT_TREES))
    blank = ForestModel((), seed, db.algorithm.name, db.measure)  # all fields but the trees
    for folds in np.array_split(np.arange(len(row_sets)), n_groups):
        group = [row_sets[i] for i in folds]
        mixed = [np.unique(y[rows]).size > 1 for rows in group]
        bags = []  # per tree: its bootstrap rows of x and its feature draws
        for rows in itertools.compress(group, mixed):
            prob = w[rows] / w[rows].sum()
            per_table = rows.size // MIN_NODE_SIZE + 1
            for tree_seed in np.random.SeedSequence(seed).spawn(n_trees):
                rng = np.random.default_rng(tree_seed)
                sample = rows[rng.choice(rows.size, size=rows.size, replace=True, p=prob)]
                bags.append((sample, _candidate_draws(rng, x.shape[1], per_table).__next__))
        roots = tree.grow(
            x, y, w, len(RESPONSE_CLASSES), bags, criterion=tree.GINI, min_node=MIN_NODE_SIZE
        )
        forests = (tuple(roots[i : i + n_trees]) for i in range(0, len(roots), n_trees))
        for split in mixed:
            yield replace(blank, trees=next(forests)) if split else None


def _candidate_draws(rng, n_features, per_table):
    """Each next ``np.sort(rng.choice(n_features, size=n_candidates, replace=False))``.

    For ``n_candidates = ceil(sqrt(n_features))`` of up to 10 000, ``choice`` runs Floyd:
    for ``j`` from ``n_features - n_candidates`` up it draws ``v`` in ``[0, j]`` and picks
    ``v``, or ``j`` if ``v`` is picked, then shuffles with bounds ``n_candidates - 1`` to 1;
    ``rng.integers`` with int64 bounds draws each bound with the same Lemire sampler.
    """
    n_candidates = min(n_features, math.ceil(math.sqrt(n_features)))
    bounds = np.r_[n_features - n_candidates + 1 : n_features + 1, n_candidates:1:-1]
    while True:  # one draw's bounds, tiled; a waiting tree holds its uint8 table alone
        picks = rng.integers(0, np.tile(bounds, per_table)).reshape(per_table, -1)
        for k in range(1, n_candidates):
            picks[(picks[:, :k] == picks[:, k, None]).any(axis=1), k] = bounds[k] - 1
        picks = np.sort(picks[:, :n_candidates], axis=1).astype(np.min_scalar_type(n_features - 1))
        yield from picks


def predict_proba(model: ForestModel, features: np.ndarray):
    """Fraction of trees voting each class, in RESPONSE_CLASSES order."""
    row = np.asarray(features, dtype=float)
    if row.shape != (len(FEATURE_COLUMNS),):
        raise ValueError(
            f"feature row has shape {row.shape}, expected ({len(FEATURE_COLUMNS)},)"
        )
    row = row.tolist()
    votes = [0] * len(RESPONSE_CLASSES)
    try:
        for i, root in enumerate(model.trees):
            p = tree.leaf(root, row)["p"]
            votes[p.index(max(p))] += 1  # the first maximum: ties go in class order
    except (KeyError, TypeError, IndexError, AttributeError, ValueError) as exc:
        raise ModelError(f"tree {i} of the model is malformed: {exc}") from exc
    return tuple(v / len(model.trees) for v in votes)


def predicted_class(proba) -> str:
    """The most probable class; ties go to the earliest in RESPONSE_CLASSES."""
    return RESPONSE_CLASSES[int(np.argmax(proba))]


@dataclass(frozen=True)
class LoovReport:
    #: (n_rows, 3) held-out class probabilities, one row per meta-database row
    probabilities: np.ndarray
    #: folds whose training rows held one response class, predicted with probability 1
    single_class: tuple[str, ...]


def loov_evaluate(db: MetaDatabase, n_trees: int = DEFAULT_TREES, *, seed: int) -> LoovReport:
    """Leave-one-dataset-out class probabilities for every meta-instance.

    For each source dataset, a forest is trained on every other dataset's
    rows and scores the held-out rows; no instance of the test dataset ever
    reaches its own training fold.  All folds' forests grow together from
    one feature matrix (:func:`_train_forests`).  A training fold with a
    single response class trains no forest: its held-out rows get that
    class with probability 1, and the fold is named in ``single_class``.
    """
    names = db.dataset_names()
    if len(names) < 2:
        raise ValueError("leave-one-dataset-out needs at least two source datasets")
    x, y, w = feature_matrix(db)
    source = np.array([r.dataset_name for r in db.rows])
    fold_rows = [np.flatnonzero(source != name) for name in names]
    forests = _train_forests(db, (x, y, w), fold_rows, n_trees, seed=seed)
    probabilities = np.empty((len(y), len(RESPONSE_CLASSES)))
    single_class = []
    for name, rows, model in zip(names, fold_rows, forests):
        held_out = np.flatnonzero(source == name)
        if model is None:  # the training fold holds a single class: predict it for sure
            probabilities[held_out] = np.arange(len(RESPONSE_CLASSES)) == y[rows[0]]
            single_class.append(name)
        else:
            probabilities[held_out] = [predict_proba(model, x[i]) for i in held_out]
    return LoovReport(probabilities, tuple(single_class))


# --- persistence ----------------------------------------------------------


def save_model(model: ForestModel, path, extra: dict | None = None) -> None:
    """Write the forest as versioned JSON, a tree at a time; floats keep full precision."""
    doc = {
        "format": "preprank-forest",
        "schema_version": MODEL_SCHEMA_VERSION,
        "n_trees": len(model.trees),
        "seed": model.seed,
        "algorithm": model.algorithm,
        "measure": model.measure,
        "class_order": list(RESPONSE_CLASSES),
        "feature_ids": list(FEATURE_COLUMNS),
        "trees": list(model.trees),
    }
    if extra:
        doc["config"] = extra
    write_file(path, lambda f: f.writelines(_json_text(doc)))


#: the containers a model may nest: ``json.loads`` nests a C call per container up to
#: the recursion limit (1000), so load_model reads such a model from ~90 frames deep
_MAX_NESTING = 900
_END = object()


def _json_text(doc):
    """``json.dumps(doc, indent=1)`` in pieces, one per item of its top two levels."""
    parts, stack, value = [], [], doc  # per open container: its items, keyed, indent
    while True:
        if not isinstance(value, (dict, list, tuple)):
            parts.append(_scalar(value))
            sep = ","
        elif len(stack) == _MAX_NESTING:
            raise ModelError("a tree is too deep to write as JSON")
        else:
            keyed = isinstance(value, dict)
            indent = "\n" + " " * (len(stack) + 1)
            stack.append((iter(value.items() if keyed else value), keyed, indent))
            parts.append("{" if keyed else "[")
            sep = ""  # an empty container closes on its opener's line
        while stack and (value := next(stack[-1][0], _END)) is _END:
            _, keyed, indent = stack.pop()
            parts.append((indent[:-1] if sep else "") + ("}" if keyed else "]"))
            sep = ","
        if len(stack) <= 2:  # a tree at a time
            yield "".join(parts)
            parts.clear()
        if not stack:
            return
        _, keyed, indent = stack[-1]
        parts.append(sep + indent)
        if keyed:  # a key that is no str as json writes it in a one-key object, or its TypeError
            key, value = value
            parts.append(f"{_scalar(key) if type(key) is str else json.dumps({key: 0})[1:-4]}: ")


def _scalar(value) -> str:
    """A JSON scalar as ``json.dumps`` writes it; any other value is a TypeError."""
    if type(value) is str:
        return encode_basestring_ascii(value)
    exact = type(value) is int or type(value) is float and math.isfinite(value)
    return repr(value) if exact else json.dumps(value)  # None, bools, NaN, infinities, subclasses


def load_model(path) -> ForestModel:
    text = Path(path).read_text(encoding="utf-8-sig")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ModelError(f"malformed model file: {exc}") from exc
    except RecursionError:  # the decoder recurses once per nesting level
        raise ModelError("a tree is too deep to read as JSON") from None
    if not isinstance(doc, dict) or doc.get("format") != "preprank-forest":
        raise ModelError("not a forest model file")
    if doc.get("schema_version") != MODEL_SCHEMA_VERSION:
        raise ModelError(
            f"schema_version {doc.get('schema_version')} not supported "
            f"(expected {MODEL_SCHEMA_VERSION})"
        )
    missing = [k for k in ("n_trees", "seed", "feature_ids", "class_order") if k not in doc]
    if missing:
        raise ModelError(f"the model lacks {', '.join(missing)}")
    if any(type(doc[k]) is not int for k in ("n_trees", "seed")):  # a bool is no int here
        raise ModelError("the model's n_trees and seed must be integers")
    if any(not isinstance(doc.get(k, ""), str) for k in ("algorithm", "measure")):
        raise ModelError("the model's algorithm and measure must be strings")
    trees = doc.get("trees")
    if not trees or not isinstance(trees, list) or len(trees) != doc["n_trees"]:
        raise ModelError("the model's trees are missing or do not number n_trees")
    if not all(isinstance(t, dict) for t in trees):
        raise ModelError("the model's trees must be objects")
    # rank_transformations builds rows in FEATURE_COLUMNS order and reads
    # p_positive from the first class, so a model must use both orders as they are
    if doc["feature_ids"] != list(FEATURE_COLUMNS):
        raise ModelError("the model's feature_ids are not this version's FEATURE_COLUMNS")
    if doc["class_order"] != list(RESPONSE_CLASSES):
        raise ModelError(f"the model's class_order is not {list(RESPONSE_CLASSES)}")
    return ForestModel(tuple(trees), doc["seed"], doc.get("algorithm", ""), doc.get("measure", ""))
