import gc
import itertools
import json
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from conftest import (
    loov_training_folds,
    make_rule_metadb,
    record_forest_growth,
    single_class_fold_metadb,
)

import preprank.forest as forest_mod
from preprank import tree
from preprank.forest import (
    DEFAULT_TREES,
    ForestModel,
    LoovReport,
    ModelError,
    load_model,
    loov_evaluate,
    predict_proba,
    predicted_class,
    save_model,
    train_forest,
)
from preprank.metadb import (
    FEATURE_COLUMNS,
    RESPONSE_CLASSES,
    MetaDatabase,
    feature_matrix,
)


def test_training_set_accuracy_on_separable_rule():
    db = make_rule_metadb(n_datasets=12, seed=1, with_zero_band=False)
    model = train_forest(db, 100, seed=5)
    hits = 0
    for row in db.rows:
        proba = predict_proba(model, row.features)
        hits += predicted_class(proba) == row.meta_response_class
    assert hits == len(db.rows)


def test_determinism_and_tree_count_effect():
    db = make_rule_metadb(n_datasets=8, seed=2)
    a = train_forest(db, 20, seed=9)
    b = train_forest(db, 20, seed=9)
    assert a == b
    row = db.rows[0].features
    assert predict_proba(a, row) == predict_proba(b, row)
    small = train_forest(db, 1, seed=9)
    rows = [r.features for r in db.rows[:20]]
    assert any(predict_proba(small, r) != predict_proba(a, r) for r in rows)


def test_probabilities_sum_to_one():
    db = make_rule_metadb(n_datasets=6, seed=3)
    model = train_forest(db, 33, seed=1)
    for row in db.rows[:25]:
        proba = predict_proba(model, row.features)
        assert sum(proba) == pytest.approx(1.0, abs=1e-12)
        assert all(p >= 0 for p in proba)


def test_tie_breaking_prefers_class_order():
    # fabricate a perfectly tied vote and check the argmax convention
    assert predicted_class((1 / 3, 1 / 3, 1 / 3)) == "positive"
    assert predicted_class((0.2, 0.4, 0.4)) == "negative"


def test_single_class_db_rejected():
    db = make_rule_metadb(n_datasets=4, seed=5)
    only_pos = MetaDatabase(
        db.algorithm,
        db.measure,
        tuple(r for r in db.rows if r.meta_response_class == "positive"),
    )
    with pytest.raises(ValueError):
        train_forest(only_pos, 5, seed=0)
    with pytest.raises(ValueError):
        train_forest(MetaDatabase(db.algorithm, db.measure, ()), 5, seed=0)


def test_schema_mismatch_rejected():
    db = make_rule_metadb(n_datasets=4, seed=6)
    model = train_forest(db, 5, seed=0)
    with pytest.raises(ValueError):
        predict_proba(model, np.zeros(3))


def test_out_of_sample_beats_majority():
    db = make_rule_metadb(n_datasets=20, seed=7)
    report = loov_evaluate(db, 40, seed=3)
    predicted = [RESPONSE_CLASSES[i] for i in report.probabilities.argmax(axis=1)]
    accuracy = np.mean([p == r.meta_response_class for p, r in zip(predicted, db.rows)])
    share = [r.meta_response_class for r in db.rows]
    majority = max(share.count(c) for c in set(share)) / len(share)
    assert accuracy > majority + 0.1


def test_loov_structure_and_provenance(monkeypatch):
    db = make_rule_metadb(n_datasets=5, seed=8)
    calls, bags = record_forest_growth(monkeypatch)
    report = forest_mod.loov_evaluate(db, 5, seed=0)
    assert loov_training_folds(db, calls, bags) == list(db.dataset_names())
    assert report.single_class == ()
    # one probability row per meta-database row, each a distribution over the classes
    assert report.probabilities.shape == (len(db.rows), len(RESPONSE_CLASSES))
    assert np.allclose(report.probabilities.sum(axis=1), 1.0)


def test_loov_two_datasets():
    db = make_rule_metadb(n_datasets=2, seed=9)
    report = loov_evaluate(db, 5, seed=0)
    assert report.probabilities.shape == (len(db.rows), len(RESPONSE_CLASSES))
    first = db.dataset_names()[0]
    single = MetaDatabase(
        db.algorithm, db.measure, tuple(r for r in db.rows if r.dataset_name == first)
    )
    with pytest.raises(ValueError):
        loov_evaluate(single, 5, seed=0)


def test_loov_single_class_fold_predicts_that_class(monkeypatch):
    db = single_class_fold_metadb()
    calls, bags = record_forest_growth(monkeypatch)
    report = forest_mod.loov_evaluate(db, 5, seed=0)
    assert report.single_class == ("ds00",)
    assert loov_training_folds(db, calls, bags) == ["ds01", "ds02", "ds03"]
    held_out = [i for i, r in enumerate(db.rows) if r.dataset_name == "ds00"]
    assert report.probabilities[held_out].tolist() == [[0.0, 0.0, 1.0]] * len(held_out)
    assert [db.rows[i].meta_response_class for i in held_out].count("positive") == 1


def test_model_round_trip(tmp_path):
    db = make_rule_metadb(n_datasets=6, seed=10)
    model = train_forest(db, 12, seed=4)
    path = tmp_path / "model.json"
    save_model(model, path)
    again = load_model(path)
    assert again == model
    for row in db.rows[:10]:
        features = row.features
        assert predict_proba(again, features) == predict_proba(model, features)


def test_model_file_may_start_with_a_byte_order_mark(tmp_path):
    model = train_forest(make_rule_metadb(n_datasets=4, seed=11), 4, seed=4)
    path = tmp_path / "model.json"
    save_model(model, path)
    path.write_bytes("\ufeff".encode() + path.read_bytes())
    assert load_model(path) == model


def test_model_version_and_format_checks(tmp_path):
    db = make_rule_metadb(n_datasets=4, seed=11)
    model = train_forest(db, 4, seed=4)
    path = tmp_path / "model.json"
    save_model(model, path)
    hacked = path.read_text().replace('"schema_version": 1', '"schema_version": 2')
    (tmp_path / "bad.json").write_text(hacked)
    with pytest.raises(ModelError):
        load_model(tmp_path / "bad.json")
    (tmp_path / "junk.json").write_text("{}")
    with pytest.raises(ModelError):
        load_model(tmp_path / "junk.json")
    (tmp_path / "noise.json").write_text("not json")
    with pytest.raises(ModelError):
        load_model(tmp_path / "noise.json")
    (tmp_path / "list.json").write_text("[1, 2]")
    with pytest.raises(ModelError, match="not a forest model file"):
        load_model(tmp_path / "list.json")
    doc = json.loads(path.read_text())
    for key in ("n_trees", "seed", "feature_ids", "class_order", "trees"):
        damaged = {k: v for k, v in doc.items() if k != key}
        (tmp_path / "damaged.json").write_text(json.dumps(damaged))
        with pytest.raises(ModelError):
            load_model(tmp_path / "damaged.json")
    for key, value in (
        ("feature_ids", doc["feature_ids"][::-1]),
        ("feature_ids", doc["feature_ids"][:-1]),
        ("class_order", ["negative", "positive", "zero"]),
        ("trees", {"p": [1.0, 0.0, 0.0]}),
        ("seed", "x"),
        ("seed", 4.0),
        ("seed", True),
        ("n_trees", "4"),
        ("n_trees", 4.0),
        ("algorithm", 5),
        ("measure", None),
        ("trees", [*doc["trees"][:-1], 7]),
        ("trees", [*doc["trees"][:-1], [1.0, 0.0, 0.0]]),
    ):
        (tmp_path / "damaged.json").write_text(json.dumps({**doc, key: value}))
        with pytest.raises(ModelError):
            load_model(tmp_path / "damaged.json")
    assert load_model(path) == model


def _remap_tree(node, mapping):
    if "f" not in node:
        return node
    return {
        "f": mapping[node["f"]],
        "t": node["t"],
        "d": node["d"],
        "l": _remap_tree(node["l"], mapping),
        "r": _remap_tree(node["r"], mapping),
    }


def test_column_permutation_consistency():
    db = make_rule_metadb(n_datasets=6, seed=12)
    model = train_forest(db, 10, seed=6)
    rng = np.random.default_rng(0)
    perm = rng.permutation(len(FEATURE_COLUMNS))
    inverse = np.argsort(perm)
    permuted_model = forest_mod.ForestModel(
        trees=tuple(_remap_tree(t, {old: int(inverse[old]) for old in range(len(perm))}) for t in model.trees),
        seed=model.seed,
    )
    for row in db.rows[:15]:
        features = row.features
        assert predict_proba(model, features) == predict_proba(
            permuted_model, features[perm]
        )


def _array_vote_proba(model, features):
    """``predict_proba`` as it counted votes before, with ``np.argmax`` over each leaf."""
    row = np.asarray(features, dtype=float)
    votes = np.zeros(len(RESPONSE_CLASSES))
    for root in model.trees:
        votes[int(np.argmax(tree.leaf(root, row)["p"]))] += 1.0
    proba = votes / len(model.trees)
    return tuple(float(p) for p in proba)


def test_predict_proba_matches_array_vote_count(tree_metadb):
    model = train_forest(tree_metadb, 30, seed=3)
    x, _, _ = feature_matrix(tree_metadb)
    assert np.isnan(x).any()  # NOT_APPLICABLE cells take the default branches
    for row in x:
        assert predict_proba(model, row) == _array_vote_proba(model, row)
    # tied leaves: the first maximum in class order wins, as np.argmax picks it
    split = {"f": 0, "t": 0.5, "d": 1, "l": {"p": [0.2, 0.4, 0.4]}, "r": {"p": [1 / 3] * 3}}
    tied = replace(
        model,
        trees=({"p": [0.5, 0.5, 0.0]}, split, {"p": [0.0, 0.5, 0.5]}, split),
    )
    for first in (0.0, 1.0, np.nan):
        row = np.full(len(FEATURE_COLUMNS), np.nan)
        row[0] = first
        assert predict_proba(tied, row) == _array_vote_proba(tied, row)
    assert predict_proba(tied, row) == (0.75, 0.25, 0.0)


def test_forest_growth_shares_the_training_matrix(tree_metadb):
    # the trees grow together; a copy of the training rows per tree would hold
    # 100 copies of the matrix at once (about 24 MB here)
    x, _, _ = feature_matrix(tree_metadb)
    tracemalloc.start()
    try:
        model = train_forest(tree_metadb, 100, seed=7)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert isinstance(model, ForestModel) and len(model.trees) == 100
    assert peak < 50 * x.nbytes, (peak, x.nbytes)


# --- lockstep leave-one-dataset-out ---------------------------------------------


def _oracle_train_forest(db, n_trees, seed):
    """``train_forest`` as it was before all forests grew through one seam."""
    x, y, w = feature_matrix(db)
    n_rows, n_features = x.shape
    n_candidates = min(n_features, math.ceil(math.sqrt(n_features)))
    prob = w / w.sum()
    bags = []
    for tree_seed in np.random.SeedSequence(seed).spawn(n_trees):
        rng = np.random.default_rng(tree_seed)
        sample = rng.choice(n_rows, size=n_rows, replace=True, p=prob)

        def draw(rng=rng):
            return np.sort(rng.choice(n_features, size=n_candidates, replace=False))

        bags.append((sample, draw))
    trees = tree.grow(
        x, y, w, len(RESPONSE_CLASSES), bags, criterion=tree.GINI,
        min_node=forest_mod.MIN_NODE_SIZE,
    )
    return ForestModel(
        trees=tuple(trees),
        seed=seed,
        algorithm=db.algorithm.name,
        measure=db.measure,
    )


def _oracle_loov_evaluate(db, n_trees, seed):
    """``loov_evaluate`` as it was: one separately trained forest per fold."""
    probabilities = np.full((len(db.rows), len(RESPONSE_CLASSES)), np.nan)
    single_class = []
    for name in db.dataset_names():
        train_db = replace(db, rows=tuple(r for r in db.rows if r.dataset_name != name))
        held_out = [i for i, r in enumerate(db.rows) if r.dataset_name == name]
        classes = {r.meta_response_class for r in train_db.rows}
        if len(classes) == 1:
            [only] = classes
            probabilities[held_out] = [float(c == only) for c in RESPONSE_CLASSES]
            single_class.append(name)
            continue
        model = _oracle_train_forest(train_db, n_trees, seed)
        for i in held_out:
            probabilities[i] = predict_proba(model, db.rows[i].features)
    return LoovReport(probabilities, tuple(single_class))


def _interleaved_rule_metadb(seed):
    """A rule meta-database whose datasets' rows take turns instead of running in blocks."""
    db = make_rule_metadb(n_datasets=7, seed=seed)
    blocks = [[r for r in db.rows if r.dataset_name == name] for name in db.dataset_names()]
    turns = itertools.zip_longest(*blocks)
    return replace(db, rows=tuple(r for turn in turns for r in turn if r is not None))


#: (database, seed, trees per fold); every case grows all its folds in one group but
#: 7, 23 and 24 folds of 30 trees, which split unevenly into 2, 6 and 7 groups of
#: (4, 3), (4, 4, 4, 4, 4, 3) and (4, 4, 4, 3, 3, 3, 3) folds
_LOOV_CASES = (
    [("rule7", seed, n) for seed in (1, 7, 42) for n in (1, 5, 30)]
    + [("single_class", seed, n) for seed in (1, 7, 42) for n in (1, 5, 30)]
    + [("rule23", seed, n) for seed in (1, 7, 42) for n in (1, 5)]
    + [("rule23", 7, 30), ("rule24", 42, 30)]
    + [("tree", seed, n) for seed in (1, 7, 42) for n in (1, 5)]
    + [("tree", 7, 30)]
    + [("interleaved", seed, 5) for seed in (1, 7)]
)


@pytest.mark.parametrize("name, seed, n_trees", _LOOV_CASES)
def test_lockstep_loov_matches_per_fold_forests(tree_metadb, name, seed, n_trees):
    db = {
        "tree": lambda: tree_metadb,
        "rule7": lambda: make_rule_metadb(n_datasets=7, seed=seed),
        "rule23": lambda: make_rule_metadb(n_datasets=23, seed=seed),
        "rule24": lambda: make_rule_metadb(n_datasets=24, seed=seed),
        "single_class": single_class_fold_metadb,
        "interleaved": lambda: _interleaved_rule_metadb(seed),
    }[name]()
    report, oracle = loov_evaluate(db, n_trees, seed=seed), _oracle_loov_evaluate(db, n_trees, seed)
    assert report.single_class == oracle.single_class
    assert report.probabilities.shape == oracle.probabilities.shape
    assert report.probabilities.tobytes() == oracle.probabilities.tobytes()
    if len({r.meta_response_class for r in db.rows}) > 1:
        assert train_forest(db, n_trees, seed=seed) == _oracle_train_forest(db, n_trees, seed)


def _counted_grows(monkeypatch):
    """The tree count of every ``tree.grow`` call, filled as forests grow."""
    counts, real_grow = [], forest_mod.tree.grow

    def counting_grow(x, y, w, n_classes, trees, **kwargs):
        counts.append(len(trees))
        return real_grow(x, y, w, n_classes, trees, **kwargs)

    monkeypatch.setattr(forest_mod.tree, "grow", counting_grow)
    return counts


def test_small_forests_of_every_fold_grow_in_one_call(tree_metadb, monkeypatch):
    counts = _counted_grows(monkeypatch)
    loov_evaluate(tree_metadb, 5, seed=7)
    assert counts == [5 * len(tree_metadb.dataset_names())]  # 24 folds, no single-class one


def test_forests_of_default_size_grow_one_fold_per_call(monkeypatch):
    db = make_rule_metadb(n_datasets=5, seed=16)
    counts = _counted_grows(monkeypatch)
    loov_evaluate(db, DEFAULT_TREES, seed=0)
    assert counts == [DEFAULT_TREES] * 5


@pytest.mark.parametrize("n_trees", [1, 3, 5, 30, 51, 99, 100, 101, 250])
def test_growth_groups_are_balanced_runs_of_folds(monkeypatch, n_trees):
    # single-class folds grow no trees, so the groups are read without growing any:
    # a fold's forest (None) is handed back after its group's grow call
    counts = _counted_grows(monkeypatch)
    cap = max(n_trees, DEFAULT_TREES)
    db = make_rule_metadb(n_datasets=4, seed=17)
    for n_folds in range(1, 61):
        matrix = (np.zeros((n_folds, 1)), np.zeros(n_folds, dtype=int), np.ones(n_folds))
        row_sets = [np.array([i]) for i in range(n_folds)]
        counts.clear()
        group_of = [len(counts) for _ in forest_mod._train_forests(db, matrix, row_sets,
                                                                   n_trees, seed=0)]
        n_groups = max(1, n_folds * n_trees // cap)
        assert len(counts) == n_groups and group_of[0] == 1 and group_of[-1] == n_groups
        sizes = np.bincount(group_of)[1:]
        assert list(group_of) == sorted(group_of) and sizes.min() >= 1  # in order, each once
        assert sizes.max() - sizes.min() <= 1 and list(sizes) == sorted(sizes, reverse=True)
        assert sizes.max() * n_trees < 2 * cap, (n_folds, sizes)


# --- candidate draws ----------------------------------------------------------------


def _per_node_draws(rng, count, n_features=111):
    """The candidate draws of ``count`` nodes, one ``choice`` call per node."""
    n_candidates = math.ceil(math.sqrt(n_features))
    return [
        np.sort(rng.choice(n_features, size=n_candidates, replace=False)).tolist()
        for _ in range(count)
    ]


def _table_draws(rng, count, per_table, n_features=111):
    draws = forest_mod._candidate_draws(rng, n_features, per_table)
    rows = [next(draws) for _ in range(count)]
    assert all(row.dtype == np.min_scalar_type(n_features - 1) for row in rows)
    return [row.tolist() for row in rows]


def test_draw_tables_equal_per_node_choice_calls_after_a_bootstrap():
    prob = np.linspace(1.0, 3.0, 273)
    prob /= prob.sum()
    for seed in range(200):
        table_rng, node_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        for rng in (table_rng, node_rng):
            rng.choice(prob.size, size=prob.size, replace=True, p=prob)
        per_table = seed % 5 + 1  # twelve draws refill a table at least twice
        assert _table_draws(table_rng, 12, per_table) == _per_node_draws(node_rng, 12)


@pytest.mark.parametrize("n_features", [1, 2, 5, 30, 200, 10_000])
def test_draw_tables_follow_choice_for_other_populations(n_features):
    # up to 10 000 features, choice without replacement runs Floyd's algorithm
    for seed in range(20):
        table_rng, node_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        assert _table_draws(table_rng, 7, 3, n_features) == _per_node_draws(node_rng, 7, n_features)


def test_draw_tables_start_from_a_buffered_32_bit_half():
    for seed in range(20):
        table_rng, node_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        for rng in (table_rng, node_rng):
            rng.integers(0, 2)  # one 32-bit value of a 64-bit output; the other half waits
            assert rng.bit_generator.state["has_uint32"] == 1
        assert _table_draws(table_rng, 9, 4) == _per_node_draws(node_rng, 9)


def _rejected_by_lemire(values, bound):
    """Whether NumPy's bounded sampler rejects each 32-bit value for a draw in [0, bound)."""
    return (values * np.uint64(bound)) % 2**32 < 2**32 % bound


def test_draw_tables_follow_choice_through_a_lemire_rejection():
    # a draw's Floyd steps bound their values by 101, ..., 111: scan an advanced
    # PCG64 for a 32-bit value that one of them rejects, then start a generator
    # so that that step reads it
    scan, start = np.random.PCG64(2018), 2**40
    scan.advance(start)
    for chunk in range(64):
        raw = scan.random_raw(2**18)
        values = np.stack([raw & 0xFFFFFFFF, raw >> 32], axis=1).ravel()  # next_uint32 order
        starts = [  # of a draw whose Floyd step reads a rejected value, from a 64-bit output
            int(index) - step
            for step, bound in enumerate(range(101, 112))
            for index in np.flatnonzero(_rejected_by_lemire(values, bound))
            if index >= step and (index - step) % 2 == 0
        ]
        if starts:
            break
    else:
        pytest.fail("no rejected value in the scanned stream")
    offset = start + chunk * 2**18 + starts[0] // 2  # the 64-bit output the draw starts at

    def generator():
        bits = np.random.PCG64(2018)
        bits.advance(offset)
        return np.random.Generator(bits)

    table_rng, node_rng = generator(), generator()
    assert _table_draws(table_rng, 6, 4) == _per_node_draws(node_rng, 6)
    once, after = generator(), np.random.PCG64(2018)
    _per_node_draws(once, 1)
    after.advance(offset + 11)  # the draw read its 21 values and the rejected one
    state = once.bit_generator.state
    assert (state["state"], state["has_uint32"]) == (after.state["state"], 0)


@pytest.mark.parametrize("n_trees", [0, -3])
def test_forest_needs_a_tree(n_trees):
    db = make_rule_metadb(n_datasets=4, seed=13)
    with pytest.raises(ValueError, match="at least one tree"):
        train_forest(db, n_trees, seed=0)
    with pytest.raises(ValueError, match="at least one tree"):
        loov_evaluate(db, n_trees, seed=0)


def test_load_model_rejects_a_tree_count_mismatch(tmp_path):
    model = train_forest(make_rule_metadb(n_datasets=4, seed=14), 3, seed=0)
    path = tmp_path / "model.json"
    save_model(replace(model, trees=()), path)
    with pytest.raises(ModelError, match="n_trees"):
        load_model(path)
    save_model(model, path)
    path.write_text(json.dumps({**json.loads(path.read_text()), "n_trees": 4}))
    with pytest.raises(ModelError, match="n_trees"):
        load_model(path)


def _traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_loov_memory_stays_near_one_forest():
    # at DEFAULT_TREES trees per fold each fold grows in a group of its own, its
    # forest handed back before the next grows, so one fold's forest is held at
    # a time instead of every fold's
    db = make_rule_metadb(n_datasets=4, seed=15)
    one = _traced_peak(lambda: train_forest(db, DEFAULT_TREES, seed=0))
    loov = _traced_peak(lambda: loov_evaluate(db, DEFAULT_TREES, seed=0))
    assert loov <= 1.5 * one, (loov, one)


def test_small_forest_loov_memory_stays_near_one_default_forest(tree_metadb):
    # at 5 trees per fold every fold's forest grows in one group: 120 trees held
    # at once, fewer than twice the trees of one default forest
    one = _traced_peak(lambda: train_forest(tree_metadb, DEFAULT_TREES, seed=7))
    loov = _traced_peak(lambda: loov_evaluate(tree_metadb, 5, seed=7))
    assert loov < 2 * one, (loov, one)


@pytest.mark.parametrize("enabled", [True, False])
def test_load_model_restores_the_callers_gc_state(tmp_path, enabled):
    path = tmp_path / "model.json"
    model = train_forest(make_rule_metadb(n_datasets=4, seed=11), 3, seed=4)
    save_model(model, path)
    (tmp_path / "noise.json").write_text('{"format": "preprank-forest", ')
    was = gc.isenabled()
    try:
        gc.enable() if enabled else gc.disable()
        assert load_model(path) == model
        assert gc.isenabled() is enabled
        with pytest.raises(ModelError, match="malformed model file"):
            load_model(tmp_path / "noise.json")
        assert gc.isenabled() is enabled
    finally:
        gc.enable() if was else gc.disable()


def test_a_tree_too_deep_for_json_is_a_model_error(tmp_path):
    # every pair of rows flips the class, so the Gini tree is thousands of levels deep
    n = 6000
    x = np.arange(n, dtype=float)[:, None]
    [root] = tree.grow(
        x, (np.arange(n) // 2) % 2, np.ones(n), 3, [(np.arange(n), lambda: np.array([0]))],
        min_node=forest_mod.MIN_NODE_SIZE, criterion=tree.GINI,
    )
    path = tmp_path / "model.json"
    with pytest.raises(ModelError, match="too deep to write"):
        save_model(ForestModel((root,), seed=0), path)
    assert not path.exists()


def test_a_failed_save_leaves_the_saved_model_as_it_was(tmp_path):
    path = tmp_path / "model.json"
    save_model(ForestModel(({"p": [1.0, 0.0, 0.0]},), seed=0), path)
    before = path.read_bytes()
    deep = {"p": [1.0, 0.0, 0.0]}
    for _ in range(3000):  # the encoder recurses once per level
        deep = {"f": 0, "t": 0.5, "d": 0, "l": deep, "r": {"p": [0.0, 1.0, 0.0]}}
    with pytest.raises(ModelError, match="too deep to write"):
        save_model(ForestModel((deep,), seed=0), path)
    assert path.read_bytes() == before
    assert list(tmp_path.iterdir()) == [path]  # no partial file is left
    with pytest.raises(TypeError):  # any other failure of the encoder
        save_model(ForestModel(({"p": [1.0, 0.0, 0.0]},), seed=0), path, {"x": object()})
    assert path.read_bytes() == before
    assert list(tmp_path.iterdir()) == [path]


def test_a_document_too_deep_for_json_is_a_model_error(tmp_path):
    depth = 3000
    head = '{"format": "preprank-forest", "schema_version": 1, "trees": ['
    chain = '{"l": ' * depth + '{"p": [1.0, 0.0, 0.0]}' + "}" * depth
    path = tmp_path / "model.json"
    path.write_text(head + chain + "]}", encoding="utf-8")
    was = gc.isenabled()
    with pytest.raises(ModelError, match="too deep to read"):
        load_model(path)
    assert gc.isenabled() is was


def _chain(levels):
    """A tree whose left branch is ``levels`` splits deep."""
    node = {"p": [1.0, 0.0, 0.0]}
    for _ in range(levels):
        node = {"f": 0, "t": 0.5, "d": 0, "l": node, "r": {"p": [0.0, 1.0, 0.0]}}
    return node


def test_save_model_writes_only_trees_that_load_back(tmp_path):
    # the model object, its tree list, the chain's levels, its leaf and the leaf's "p"
    deepest = forest_mod._MAX_NESTING - 4
    path = tmp_path / "model.json"
    with pytest.raises(ModelError, match="too deep to write"):
        save_model(ForestModel((_chain(deepest + 1),), seed=0), path)
    assert list(tmp_path.iterdir()) == []  # no file, not even a partial one
    model = ForestModel((_chain(deepest),), seed=0)
    save_model(model, path)
    assert load_model(path) == model


_JSON_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(-(10**40), 10**40),
    st.floats(),
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, 1e308]),
    st.text(),
    st.sampled_from(["é", "\u2603\U0001f600", '"\\/\b\f\n\r\t', "\x00\x1f\x7f"]),
)
_JSON_KEYS = st.text() | st.integers() | st.floats() | st.booleans() | st.none()
_JSON_DOCS = st.recursive(
    _JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.tuples(inner, inner)
    | st.dictionaries(_JSON_KEYS, inner, max_size=4),
    max_leaves=40,
)


@settings(max_examples=400, deadline=None)
@given(_JSON_DOCS)
def test_the_model_writer_writes_what_json_dumps_does(doc):
    assert "".join(forest_mod._json_text(doc)) == json.dumps(doc, indent=1)


def test_a_saved_model_is_its_json_dumps(tree_metadb, tmp_path):
    model = train_forest(tree_metadb, 100, seed=7)
    config = {"metadb": "tree.metadb.tsv", "trees": 100, "seed": 7}
    path = tmp_path / "model.json"
    save_model(model, path, config)
    doc = {
        "format": "preprank-forest",
        "schema_version": 1,
        "n_trees": 100,
        "seed": 7,
        "algorithm": model.algorithm,
        "measure": model.measure,
        "class_order": list(RESPONSE_CLASSES),
        "feature_ids": list(FEATURE_COLUMNS),
        "trees": list(model.trees),
        "config": config,
    }
    text = path.read_text(encoding="utf-8")
    assert text == json.dumps(doc, indent=1)
    pieces = list(forest_mod._json_text(doc))  # streamed a tree at a time
    assert len(pieces) > 100 and max(map(len, pieces)) < len(text) / 20
    for extra in ({"x": object()}, {(1, 2): 0}):  # no value and no key of JSON
        with pytest.raises(TypeError):
            save_model(model, tmp_path / "other.json", extra)
    assert list(tmp_path.iterdir()) == [path]


def _walk(node, row):
    """The nodes one row passes through, root to leaf, as :func:`tree.leaf` walks them."""
    path = [node]
    while "f" in node:
        value = row[node["f"]]
        left = node["d"] == 0 if math.isnan(value) else value < node["t"]
        node = node["l"] if left else node["r"]
        path.append(node)
    return path


#: per node key, what a mutation puts in its place: other types, then values out of range
_MUTANTS = {
    "f": ["x", None, 1.5, [], {}, len(FEATURE_COLUMNS), -len(FEATURE_COLUMNS) - 1],
    "t": ["x", None, [], {}, math.nan],
    "d": ["x", None, 2, -1],
    "l": ["x", None, 3, [], {}],
    "r": ["x", None, 3, [], {}],
    "c": ["x", None, 3, [], {}, {"0": {}}],
    "p": ["x", None, 3, [], {}, [None, 1.0], [1.0], [0.0] * 5 + [1.0]],
}
_GONE = object()


def test_a_malformed_node_gives_probabilities_or_a_model_error():
    db = make_rule_metadb(n_datasets=6, seed=4)
    model = train_forest(db, 3, seed=2)
    rows = [r.features.tolist() for r in db.rows]
    outcomes = {"probabilities": 0, "errors": 0}
    for i, root in enumerate(model.trees):
        reached = {}  # id of a node -> (node, a row whose walk passes through it)
        for row in rows:
            for node in _walk(root, row):
                reached.setdefault(id(node), (node, row))
        for node, row in reached.values():
            tests = [row]
            if "f" in node:  # also reach the node's default branch
                tests.append([math.nan if j == node["f"] else v for j, v in enumerate(row)])
            for key, values in _MUTANTS.items():
                saved = node.get(key, _GONE)
                for value in [_GONE, *values]:
                    if value is _GONE:
                        node.pop(key, None)
                    else:
                        node[key] = value
                    for features in tests:
                        try:
                            proba = predict_proba(model, np.array(features))
                        except ModelError as exc:
                            assert str(exc).startswith(f"tree {i} of the model is malformed")
                            outcomes["errors"] += 1
                        else:
                            assert len(proba) == 3 and math.fsum(proba) == pytest.approx(1.0)
                            outcomes["probabilities"] += 1
                node.pop(key, None)
                if saved is not _GONE:
                    node[key] = saved
    assert min(outcomes.values()) > 100, outcomes
    assert model == train_forest(db, 3, seed=2)  # every node was put back as it was
