import pytest
from conftest import distinct_columns, make_rule_metadb

from preprank.classifiers import CV_RUNS, LOGISTIC, NAIVE_BAYES, TREE, cross_validate, knn
from preprank.forest import predict_proba, train_forest
from preprank.metadb import feature_vector
from preprank.metafeatures import COLUMN_STATS, compute_meta_features, delta
from preprank.ranker import (
    DEFAULT_RULES,
    ExpertRule,
    RulesError,
    load_rules,
    parse_rules,
    prune,
    rank_transformations,
)
from preprank.synthetic import random_dataset
from preprank.transforms import TransformationSpec, apply, enumerate_applicable

NORMALIZE = TransformationSpec("normalize", "global")
STANDARDIZE = TransformationSpec("standardize", "global")
PCA = TransformationSpec("pca", "global")


def test_default_rules_prune_scaling_for_tree():
    candidates = [NORMALIZE, STANDARDIZE, TransformationSpec("discretize_sup", "local", 2)]
    kept = prune(DEFAULT_RULES, TREE, candidates)
    assert [s.text for s in kept] == ["discretize_sup(attr=2)"]


def test_empty_ruleset_is_identity():
    candidates = [NORMALIZE, PCA]
    assert prune((), TREE, candidates) == candidates


def test_rules_scope_to_algorithm():
    candidates = [NORMALIZE]
    assert prune(DEFAULT_RULES, NAIVE_BAYES, candidates) == candidates
    assert prune(DEFAULT_RULES, knn(5), candidates) == []
    assert prune(DEFAULT_RULES, LOGISTIC, candidates) == []


def test_any_algorithm_rule():
    rules = (ExpertRule("any", "pca"),)
    candidates = [PCA, NORMALIZE]
    assert [s.text for s in prune(rules, NAIVE_BAYES, candidates)] == ["normalize(global)"]


def test_prune_idempotent():
    ds = random_dataset(1, n_rows=30, n_continuous=3, n_categorical=1)
    candidates = enumerate_applicable(ds)
    once = prune(DEFAULT_RULES, TREE, candidates)
    assert prune(DEFAULT_RULES, TREE, once) == once


def test_rules_text_round_trip():
    # the shipped rules, written as a rules file, parse back to DEFAULT_RULES
    text = "".join(
        f"exclude {family} {kind}  # scaling does not change {family}'s decisions\n"
        for family in ("knn", "logistic", "tree")
        for kind in ("normalize", "standardize")
    )
    assert parse_rules(text) == DEFAULT_RULES
    assert ExpertRule("knn", "normalize") in DEFAULT_RULES


def test_rules_file_may_start_with_a_byte_order_mark(tmp_path):
    path = tmp_path / "rules.txt"
    path.write_text("\ufeffexclude knn normalize\n", encoding="utf-8")
    assert load_rules(path) == (ExpertRule("knn", "normalize"),)


def test_rules_parse_errors():
    with pytest.raises(RulesError):
        parse_rules("include tree normalize\n")
    with pytest.raises(RulesError):
        parse_rules("exclude tree shuffle\n")
    assert parse_rules("# only a comment\n\n") == ()


@pytest.mark.parametrize(
    "text, lineno, algorithm",
    [
        ("exclude knn:3 normalize\n", 1, "knn:3"),  # a learner name, not its family
        ("exclude any pca\nexclude tre standardize\n", 2, "tre"),
        ("exclude majority normalize\n", 1, "majority"),  # no learner of that family
    ],
)
def test_rules_reject_an_unknown_learner_family(text, lineno, algorithm):
    # such a rule never matches any learner, so it would silently prune nothing
    with pytest.raises(RulesError, match=f"^line {lineno}: unknown learner family '{algorithm}'$"):
        parse_rules(text)
    with pytest.raises(ValueError, match="unknown learner family"):
        ExpertRule(algorithm, "normalize")
    for family in ("any", "tree", "nb", "knn", "logistic"):
        assert ExpertRule(family, "normalize").algorithm == family


@pytest.fixture(scope="module")
def tree_model():
    return train_forest(make_rule_metadb(n_datasets=10, seed=3), 30, seed=1)


def test_rank_single_candidate(tree_model):
    ds = random_dataset(2, n_rows=30, n_continuous=1, n_categorical=0)
    out = rank_transformations(tree_model, DEFAULT_RULES, TREE, ds, seed=5)
    # scaling and single-attribute locals leave: discretize x2 and pca
    assert [r.rank for r in out] == list(range(1, len(out) + 1))
    only = rank_transformations(
        tree_model,
        DEFAULT_RULES + (ExpertRule("any", "discretize_sup"), ExpertRule("any", "discretize_unsup")),
        TREE,
        ds,
        seed=5,
    )
    assert len(only) == 1 and only[0].rank == 1
    assert only[0].spec.text == "pca(var=0.95)"


def test_rank_sorted_by_probability(tree_model):
    ds = random_dataset(3, n_rows=40, n_continuous=3, n_categorical=1, missing_rate=0.1)
    out = rank_transformations(tree_model, DEFAULT_RULES, TREE, ds, seed=5)
    probs = [r.p_positive for r in out]
    assert probs == sorted(probs, reverse=True)
    for a, b in zip(out, out[1:]):
        if a.p_positive == b.p_positive:
            assert a.spec.text < b.spec.text


def test_rank_matches_independent_recomputation(tree_model):
    ds = random_dataset(4, n_rows=40, n_continuous=2, n_categorical=2)
    out = rank_transformations(tree_model, DEFAULT_RULES, TREE, ds, seed=9)

    base_mf = compute_meta_features([ds])[0]
    base_pm = cross_validate(TREE, [ds], 10, seed=9)[0].get("acc")
    expected = []
    for spec in prune(DEFAULT_RULES, TREE, enumerate_applicable(ds)):
        trans = apply(spec, ds)
        change = delta(base_mf, compute_meta_features([trans])[0])
        proba = predict_proba(tree_model, feature_vector(base_mf, change, base_pm))
        expected.append((spec.text, proba))
    expected.sort(key=lambda item: (-item[1][0], item[0]))
    assert [(r.spec.text, (r.p_positive, r.p_negative, r.p_zero)) for r in out] == expected


def test_rank_runs_exactly_one_cv(tree_model):
    for seed in (2, 3):
        ds = random_dataset(seed, n_rows=40, n_continuous=3, n_categorical=2, missing_rate=0.1)
        CV_RUNS.reset()
        out = rank_transformations(tree_model, DEFAULT_RULES, TREE, ds, seed=1)
        assert len(out) > 3  # plenty of candidates, still one run
        assert CV_RUNS.value == 1


def test_rank_computes_each_distinct_column_once(tree_model):
    for seed in (2, 3):
        ds = random_dataset(seed, n_rows=40, n_continuous=3, n_categorical=2, missing_rate=0.1)
        candidates = prune(DEFAULT_RULES, TREE, enumerate_applicable(ds))
        catalog = [ds, *(apply(spec, ds) for spec in candidates)]
        COLUMN_STATS.reset()
        rank_transformations(tree_model, DEFAULT_RULES, TREE, ds, seed=1)
        assert COLUMN_STATS.value == len(distinct_columns(catalog))
        assert COLUMN_STATS.value < sum(len(v.predictor_indices) for v in catalog)


def test_rank_empty_after_pruning(tree_model):
    ds = random_dataset(6, n_rows=30, n_continuous=1, n_categorical=0)
    rules = tuple(ExpertRule("any", kind) for kind in ("discretize_sup", "discretize_unsup", "normalize", "standardize", "pca"))
    assert rank_transformations(tree_model, rules, TREE, ds, seed=1) == []


def test_rank_checks_model_algorithm(tree_model):
    ds = random_dataset(7, n_rows=30, n_continuous=2)
    with pytest.raises(ValueError):
        rank_transformations(tree_model, DEFAULT_RULES, NAIVE_BAYES, ds, seed=1)


def test_rank_never_applies_scaling_for_default_rules(tree_model):
    ds = random_dataset(8, n_rows=40, n_continuous=3, n_categorical=1)
    out = rank_transformations(tree_model, DEFAULT_RULES, TREE, ds, seed=2)
    kinds = {r.spec.kind for r in out}
    assert "normalize" not in kinds and "standardize" not in kinds
