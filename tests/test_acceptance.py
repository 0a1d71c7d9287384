"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines.  Everything runs offline against the bundled corpus.
"""

import itertools
import math
import time
from collections import Counter

import numpy as np
import pytest
from conftest import (
    CORPUS_DIR,
    SEED,
    feature,
    loov_training_folds,
    make_rule_metadb,
    record_forest_growth,
    simulate_random_pick,
)

import preprank.forest as forest_mod
from preprank.classifiers import CV_RUNS, TREE, parse_classifier
from preprank.cli import main
from preprank.evaluation import (
    DatasetEvalRecord,
    EvalEntry,
    binomial_significance,
    dataset_measures,
    dcg,
    distribution_distance,
    lk_matrix,
    ndcg,
    random_pick_probability,
    records_from_loov,
)
from preprank.forest import loov_evaluate, train_forest
from preprank.metafeatures import compute_meta_features, delta
from preprank.ranker import DEFAULT_RULES, rank_transformations
from preprank.synthetic import random_dataset
from preprank.transforms import TransformationSpec, apply, spec_kind


def report(criterion: int, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS - {detail}")


def synthetic_record(rng, name="r", n=None):
    n = n or int(rng.integers(2, 12))
    classes = ("positive", "negative", "zero")
    entries = []
    for i in range(n):
        real = classes[rng.integers(0, 3)]
        value = {"positive": 1.0, "negative": -1.0, "zero": 0.0}[real]
        entries.append(
            EvalEntry(
                transformation=f"t{i:02d}",
                p_positive=float(rng.random()),
                predicted_class=classes[rng.integers(0, 3)],
                real_class=real,
                real_value=value * float(rng.uniform(0.01, 0.5)),
            )
        )
    return DatasetEvalRecord(name, tuple(entries))


# --- criterion 1: formula oracle suite ----------------------------------------


def test_criterion_1_formula_oracles():
    start = time.time()
    rng = np.random.default_rng(101)

    # dataset_measures against an independent weighted tally
    for i in range(150):
        r = synthetic_record(rng, f"m{i}")
        m = dataset_measures(r)
        w = 1.0 / r.total
        cell = Counter()
        for e in r.entries:
            cell[(e.predicted_class, e.real_class)] += w
        if all(e.real_class == "zero" for e in r.entries):
            assert m.pa is None and m.overall_recall is None
            continue
        tp, tn = cell[("positive", "positive")], cell[("negative", "negative")]
        fnp, fpn = cell[("negative", "positive")], cell[("positive", "negative")]
        inner = tp + tn + fnp + fpn
        if inner > 0:
            assert m.pa == pytest.approx((tp + tn) / inner, abs=1e-12)
        else:
            assert m.pa is None
        expected_or = inner / (inner + cell[("zero", "positive")] + cell[("zero", "negative")])
        assert m.overall_recall == pytest.approx(expected_or, abs=1e-12)
        if m.pa is not None:
            expected_g = 0.0 if m.pa + expected_or == 0 else 2 * m.pa * expected_or / (m.pa + expected_or)
            assert m.g == pytest.approx(expected_g, abs=1e-12)

    # dcg against a log-identity reformulation
    for _ in range(150):
        gains = rng.normal(size=int(rng.integers(0, 9)))
        expected = sum(g * math.log(2) / math.log(i + 2) for i, g in enumerate(gains))
        assert dcg(gains) == pytest.approx(expected, abs=1e-9)

    # ndcg against an exhaustive permutation oracle
    checked = 0
    for i in range(400):
        r = synthetic_record(rng, f"n{i}", n=int(rng.integers(2, 7)))
        if not r.has_relevant:
            continue
        perms = [dcg(p) for p in itertools.permutations([e.real_value for e in r.entries])]
        value = ndcg(r)
        if max(perms) == min(perms):
            assert value is None
            continue
        ranked = sorted(r.entries, key=lambda e: (-e.p_positive, e.transformation))
        expected = (dcg([e.real_value for e in ranked]) - min(perms)) / (max(perms) - min(perms))
        assert value == pytest.approx(expected, abs=1e-12)
        checked += 1
    assert checked >= 100

    # random-pick probability against a per-position integral
    for _ in range(300):
        t = int(rng.integers(1, 14))
        l_real = int(rng.integers(0, t + 1))
        k = int(rng.integers(1, t + 1))
        rate = float(rng.random())
        y = t * rate
        expected = 0.0
        for c in range(1, k + 1):
            head = min(max(y - (c - 1), 0.0), 1.0)
            if y >= l_real:
                expected += head * l_real / t + (1 - head) * (t - l_real) / t
            else:
                expected += head * l_real / t
                if c > l_real:
                    expected += (1 - head) * (1 - y / t)
        assert random_pick_probability(t, l_real, k, rate) == pytest.approx(
            expected / k, abs=1e-12
        )

    # binomial upper tail against direct summation
    for _ in range(150):
        n = int(rng.integers(1, 60))
        s = int(rng.integers(0, n + 1))
        p = float(rng.uniform(0.01, 0.99))
        expected = sum(math.comb(n, i) * p**i * (1 - p) ** (n - i) for i in range(s, n + 1))
        assert binomial_significance(s, n, p) == pytest.approx(expected, rel=1e-9)

    elapsed = time.time() - start
    assert elapsed < 60
    report(1, f"five formula families match their oracles ({elapsed:.1f}s)")


# --- criterion 2: hypergeometric baseline vs simulation -------------------------


def test_criterion_2_random_pick_monte_carlo():
    start = time.time()
    rng = np.random.default_rng(202)
    trials = 100_000
    worst = 0.0
    cells = 0
    for t in range(4, 13):
        for rate in (0.2, 0.4, 0.55):
            for l_real in range(0, t + 1):
                for k in range(1, t + 1):
                    simulated = simulate_random_pick(t, l_real, k, rate, trials, rng)
                    predicted = random_pick_probability(t, l_real, k, rate)
                    worst = max(worst, abs(simulated - predicted))
                    assert predicted == pytest.approx(simulated, abs=0.01)
                    cells += 1
    elapsed = time.time() - start
    assert elapsed < 300
    report(2, f"{cells} grid cells within 0.01 (worst {worst:.4f}, {elapsed:.1f}s)")


# --- criterion 3: reference-value spot checks -----------------------------------


def test_criterion_3_reference_values():
    assert distribution_distance(10, 80, 10) == pytest.approx(57.15, abs=0.01)
    assert distribution_distance(45, 30, 25) == pytest.approx(14.73, abs=0.01)

    ds = random_dataset(777, n_rows=40, n_continuous=5, n_categorical=0)
    before = compute_meta_features(ds)
    assert feature(before, "NumberOfContinuousAttributes") == 5.0
    transformed = apply(TransformationSpec("discretize_unsup", "local", 0), ds)
    after = compute_meta_features(transformed)
    d = delta(before, after)
    assert feature(d, "NumberOfContinuousAttributes") == -1.0
    report(3, "distribution distances 57.15 / 14.73 and the -1 delta reproduce")


# --- criterion 4: zero-impact scaling rows ---------------------------------------


def test_criterion_4_no_impact_invariants(mini_datasets, tree_metadb, knn_metadb):
    start = time.time()
    assert len(mini_datasets) >= 20
    checked = 0
    for db in (tree_metadb, knn_metadb):
        scaling = [
            r
            for r in db.rows
            if spec_kind(r.transformation) in ("normalize", "standardize")
        ]
        assert len(scaling) >= 40
        for row in scaling:
            assert row.meta_response_class == "zero", (
                db.algorithm.name,
                row.dataset_name,
                row.transformation,
            )
            assert row.meta_response_value == 0.0
        checked += len(scaling)
    elapsed = time.time() - start
    assert elapsed < 900
    report(4, f"{checked} scaling rows across tree and knn all class zero")


# --- criterion 5: leave-one-dataset-out integrity --------------------------------


def test_criterion_5_loov_provenance(tree_metadb, monkeypatch):
    calls, bags = record_forest_growth(monkeypatch)
    report_obj = forest_mod.loov_evaluate(tree_metadb, 5, seed=SEED)
    names = tree_metadb.dataset_names()
    # every fold trains on exactly the other datasets' rows, and so does every bootstrap
    assert loov_training_folds(tree_metadb, calls, bags) == list(names)
    # one held-out class distribution per meta-instance, in row order
    assert report_obj.probabilities.shape == (len(tree_metadb.rows), 3)
    assert np.allclose(report_obj.probabilities.sum(axis=1), 1.0)
    report(5, f"no held-out rows reached training across {len(names)} folds")


# --- criterion 6: learnability over the random baseline --------------------------


def test_criterion_6_learnability_margin():
    start = time.time()
    db = make_rule_metadb(n_datasets=40, seed=606)
    records = records_from_loov(db, loov_evaluate(db, 40, seed=SEED))
    ours = lk_matrix(records).weighted_average[1]

    rate = db.positive_rate()
    weighted = [
        random_pick_probability(r.total, r.real_positives, 1, rate) for r in records
    ]
    baseline = float(np.mean(weighted))
    elapsed = time.time() - start
    assert elapsed < 600
    assert ours >= baseline + 0.15, (ours, baseline)
    report(6, f"top-1 accuracy {ours:.3f} vs random {baseline:.3f} ({elapsed:.0f}s)")


# --- criterion 7: nDCG extremes and normalization --------------------------------


def _ordered_record(name, gains_with_classes, order):
    ordered = sorted(gains_with_classes, key=lambda t: t[0], reverse=(order == "best"))
    entries = tuple(
        EvalEntry(
            transformation=f"t{i:02d}",
            p_positive=1.0 - i * 1e-3,
            predicted_class=cls,
            real_class=cls,
            real_value=value,
        )
        for i, (value, cls) in enumerate(ordered)
    )
    return DatasetEvalRecord(name, entries)


def test_criterion_7_ndcg_extremes(tree_metadb):
    extreme_checked = 0
    oracle_checked = 0
    for name in tree_metadb.dataset_names():
        rows = [r for r in tree_metadb.rows if r.dataset_name == name]
        gains = [(r.meta_response_value, r.meta_response_class) for r in rows]
        distinct = {round(v, 15) for v, _ in gains}
        if all(cls == "zero" for _, cls in gains):
            continue
        if len(distinct) >= 2:
            assert ndcg(_ordered_record(name, gains, "best")) == 1.0
            assert ndcg(_ordered_record(name, gains, "worst")) == 0.0
            extreme_checked += 1
        if len(rows) <= 6:
            values = [v for v, _ in gains]
            perms = [dcg(p) for p in itertools.permutations(values)]
            assert dcg(sorted(values, reverse=True)) == pytest.approx(max(perms), abs=1e-12)
            assert dcg(sorted(values)) == pytest.approx(min(perms), abs=1e-12)
            oracle_checked += 1
    assert extreme_checked >= 15
    assert oracle_checked >= 3
    report(
        7,
        f"extremes exact on {extreme_checked} datasets; permutation oracle on "
        f"{oracle_checked} small ones",
    )


# --- criterion 8: end-to-end determinism -----------------------------------------


def test_criterion_8_pipeline_determinism(tmp_path, capsys):
    manifest = tmp_path / "subset.manifest"
    subset = ["syn00", "syn01", "syn03", "syn09", "syn12"]
    manifest.write_text(
        "\n".join(str(CORPUS_DIR / "mini" / f"{n}.arff") for n in subset) + "\n",
        encoding="utf-8",
    )
    out = tmp_path / "out"
    db_path = out / "tree.metadb.tsv"
    model_path = out / "tree.model.json"

    def run_pipeline():
        assert main([
            "impact-scan", "--datasets", str(manifest), "--algorithm", "tree",
            "--seed", "42", "--out", str(out / "impact"),
        ]) == 0
        assert main([
            "build-metadb", "--datasets", str(manifest), "--algorithm", "tree",
            "--seed", "42", "--out", str(db_path),
        ]) == 0
        assert main([
            "train", "--metadb", str(db_path), "--trees", "25", "--seed", "42",
            "--out", str(model_path),
        ]) == 0
        assert main([
            "evaluate", "--metadb", str(db_path), "--trees", "25", "--seed", "42",
            "--out", str(out / "reports"),
        ]) == 0
        capsys.readouterr()
        assert main([
            "recommend", "--dataset", str(CORPUS_DIR / "mini" / "syn12.arff"),
            "--algorithm", "tree", "--model", str(model_path), "--seed", "42",
        ]) == 0
        stdout = capsys.readouterr().out
        files = {
            str(p.relative_to(out)): p.read_bytes()
            for p in sorted(out.rglob("*"))
            if p.is_file()
        }
        files["recommend.stdout"] = stdout.encode()
        return files

    first = run_pipeline()
    second = run_pipeline()
    assert first.keys() == second.keys()
    for name in first:
        assert first[name] == second[name], f"{name} differs between runs"
    report(8, f"{len(first)} pipeline outputs byte-identical across two runs")


# --- criterion 9: pruning contract ------------------------------------------------


@pytest.mark.parametrize("algorithm_name", ["tree", "knn:1", "logistic"])
def test_criterion_9_pruning_contract(
    algorithm_name, mini_datasets, tree_metadb, knn_metadb, logistic_metadb
):
    db = {"tree": tree_metadb, "knn:1": knn_metadb, "logistic": logistic_metadb}[
        algorithm_name
    ]
    algorithm = parse_classifier(algorithm_name)
    model = train_forest(db, 40, seed=SEED)
    emitted = 0
    for ds in mini_datasets:
        for rec in rank_transformations(model, DEFAULT_RULES, algorithm, ds, seed=SEED):
            assert rec.spec.kind not in ("normalize", "standardize"), (
                algorithm_name,
                ds.name,
                rec.spec.text,
            )
            emitted += 1
    report(9, f"{algorithm_name}: {emitted} recommendations, none are scaling operators")


# --- criterion 10: single-CV cost claim --------------------------------------------


def test_criterion_10_single_cv_per_recommendation(mini_datasets, tree_metadb):
    model = train_forest(tree_metadb, 30, seed=SEED)
    candidate_counts = []
    for ds in (mini_datasets[0], mini_datasets[12], mini_datasets[19]):
        CV_RUNS.reset()
        recs = rank_transformations(model, DEFAULT_RULES, TREE, ds, seed=SEED)
        assert CV_RUNS.value == 1, ds.name
        candidate_counts.append(len(recs))
    assert len(set(candidate_counts)) > 1  # the count is flat across candidate loads
    report(10, f"one CV run each for candidate loads {candidate_counts}")
