import itertools
import math
from collections import Counter

import numpy as np
import pytest
from conftest import simulate_random_pick

from preprank.evaluation import (
    DatasetEvalRecord,
    EvalEntry,
    binomial_significance,
    corpus_measures,
    dataset_measures,
    dcg,
    distribution_distance,
    evaluation_ordering,
    expected_cell_counts,
    gain_report,
    impact_distribution,
    lk_matrix,
    ndcg,
    random_pick_probability,
    records_from_loov,
    significance_matrix,
    triclass_confusion,
)
from preprank.forest import LoovReport
from preprank.metadb import FEATURE_COLUMNS, MetaDatabase, MetaInstance
from preprank.classifiers import TREE
from preprank.metafeatures import MODIFIABLE_IDS


def record(name, rows):
    """rows: (predicted, real, p_positive, value) tuples."""
    entries = tuple(
        EvalEntry(
            transformation=f"t{i:02d}",
            p_positive=p,
            predicted_class=pred,
            real_class=real,
            real_value=value,
        )
        for i, (pred, real, p, value) in enumerate(rows)
    )
    return DatasetEvalRecord(name, entries)


def random_record(rng, name="r", n=None, with_values=True):
    n = n or int(rng.integers(2, 12))
    classes = ("positive", "negative", "zero")
    rows = []
    for _ in range(n):
        pred = classes[rng.integers(0, 3)]
        real = classes[rng.integers(0, 3)]
        if with_values:
            value = {"positive": 1.0, "negative": -1.0, "zero": 0.0}[real]
            value *= float(rng.uniform(0.01, 0.5))
        else:
            value = 0.0
        rows.append((pred, real, float(rng.random()), value))
    return record(name, rows)


# --- held-out records -------------------------------------------------------


def test_records_from_loov_reads_each_rows_own_impact():
    def row(dataset, transformation, value, cls):
        return MetaInstance(dataset, transformation, np.zeros(len(FEATURE_COLUMNS)), value, cls)

    db = MetaDatabase(
        TREE,
        "acc",
        (
            row("a", "normalize(global)", 0.25, "positive"),
            row("b", "pca(var=0.95)", -0.5, "negative"),  # the datasets' rows interleave
            row("a", "normalize(global)", 0.0, "zero"),  # a repeated pair keeps its own value
            row("b", "normalize(global)", 0.125, "positive"),
            row("a", "pca(var=0.95)", -0.75, "negative"),
        ),
    )
    probabilities = np.array(
        [
            [0.2, 0.4, 0.4],  # a tie predicts the first tied class in RESPONSE_CLASSES
            [1 / 3, 1 / 3, 1 / 3],
            [0.5, 0.5, 0.0],
            [0.0, 0.4, 0.6],
            [0.1, 0.6, 0.3],
        ]
    )
    a, b = records_from_loov(db, LoovReport(probabilities, ()))
    assert a == DatasetEvalRecord(
        "a",
        (
            EvalEntry("normalize(global)", 0.2, "negative", "positive", 0.25),
            EvalEntry("normalize(global)", 0.5, "positive", "zero", 0.0),
            EvalEntry("pca(var=0.95)", 0.1, "negative", "negative", -0.75),
        ),
    )
    assert b == DatasetEvalRecord(
        "b",
        (
            EvalEntry("pca(var=0.95)", 1 / 3, "positive", "negative", -0.5),
            EvalEntry("normalize(global)", 0.0, "zero", "positive", 0.125),
        ),
    )
    # plain floats: a NumPy scalar would print as np.float64(...) in the reports
    assert {type(e.p_positive) for e in a.entries + b.entries} == {float}


# --- confusion --------------------------------------------------------------


def test_confusion_single_dataset_all_positive():
    r = record("d", [("positive", "positive", 0.9, 0.1)] * 4)
    c = triclass_confusion([r])
    assert c.TP == pytest.approx(1.0)
    assert sum(getattr(c, f) for f in ("FP_N", "FP_0", "FN_P", "TN", "FN_0", "F0_P", "F0_N", "T0")) == 0.0


def test_confusion_two_datasets():
    a = record("a", [("positive", "positive", 0.9, 0.1)] * 2)
    b = record("b", [("zero", "zero", 0.2, 0.0)] * 2)
    c = triclass_confusion([a, b])
    assert c.TP == pytest.approx(1.0)
    assert c.T0 == pytest.approx(1.0)


def test_confusion_matches_tally_oracle():
    rng = np.random.default_rng(5)
    records = [random_record(rng, f"d{i}") for i in range(5)]
    c = triclass_confusion(records)
    tally = Counter()
    for r in records:
        for e in r.entries:
            tally[(e.predicted_class, e.real_class)] += 1.0 / r.total
    key_of = {
        ("positive", "positive"): "TP",
        ("positive", "negative"): "FP_N",
        ("positive", "zero"): "FP_0",
        ("negative", "positive"): "FN_P",
        ("negative", "negative"): "TN",
        ("negative", "zero"): "FN_0",
        ("zero", "positive"): "F0_P",
        ("zero", "negative"): "F0_N",
        ("zero", "zero"): "T0",
    }
    for pair, field in key_of.items():
        assert getattr(c, field) == pytest.approx(tally[pair], abs=1e-12)


def test_confusion_weights_sum_to_one_per_dataset():
    rng = np.random.default_rng(6)
    for i in range(20):
        r = random_record(rng, f"d{i}")
        c = triclass_confusion([r])
        total = sum(
            getattr(c, f)
            for f in ("TP", "FP_N", "FP_0", "FN_P", "TN", "FN_0", "F0_P", "F0_N", "T0")
        )
        assert total == pytest.approx(1.0, abs=1e-12)


# --- per-dataset measures -----------------------------------------------------


def test_dataset_measures_formula_examples():
    # cells TP=2, TN=1, FN_P=1 out of 6 transformations, F0_P=1, F0_N=1
    r = record(
        "d",
        [
            ("positive", "positive", 0.9, 0.1),
            ("positive", "positive", 0.8, 0.1),
            ("negative", "negative", 0.1, -0.1),
            ("negative", "positive", 0.2, 0.1),
            ("zero", "positive", 0.5, 0.1),
            ("zero", "negative", 0.5, -0.1),
        ],
    )
    m = dataset_measures(r)
    assert m.pa == pytest.approx(0.75)
    assert m.pr == pytest.approx((1.0 + 0.5) / 2)
    assert m.overall_recall == pytest.approx(4 / 6)
    assert m.g == pytest.approx(2 * 0.75 * (4 / 6) / (0.75 + 4 / 6))
    assert m.g == pytest.approx(0.7059, abs=1e-4)


def test_dataset_measures_exclusions():
    all_zero = record("d", [("zero", "zero", 0.5, 0.0)] * 3)
    assert dataset_measures(all_zero) == dataset_measures(all_zero).__class__(None, None, None, None)
    # relevant rows exist but the inner matrix is empty: PA and G undefined
    only_zero_pred = record("d", [("zero", "positive", 0.5, 0.1), ("zero", "zero", 0.5, 0.0)])
    m = dataset_measures(only_zero_pred)
    assert m.pa is None and m.g is None
    assert m.overall_recall == pytest.approx(0.0)


def _oracle_measures(r):
    w = 1.0 / r.total
    cell = Counter()
    for e in r.entries:
        cell[(e.predicted_class, e.real_class)] += w
    if all(e.real_class == "zero" for e in r.entries):
        return (None, None, None, None)
    tp = cell[("positive", "positive")]
    tn = cell[("negative", "negative")]
    fnp = cell[("negative", "positive")]
    fpn = cell[("positive", "negative")]
    inner = tp + tn + fnp + fpn
    pa = (tp + tn) / inner if inner > 0 else None
    terms = []
    if tp + fpn > 0:
        terms.append(tp / (tp + fpn))
    if tn + fnp > 0:
        terms.append(tn / (tn + fnp))
    pr = sum(terms) / len(terms) if terms else None
    orr = inner / (inner + cell[("zero", "positive")] + cell[("zero", "negative")])
    if pa is None:
        g = None
    else:
        g = 0.0 if pa + orr == 0 else 2 * pa * orr / (pa + orr)
    return (pa, pr, orr, g)


def test_dataset_measures_random_oracle():
    rng = np.random.default_rng(7)
    for i in range(150):
        r = random_record(rng, f"d{i}")
        m = dataset_measures(r)
        pa, pr, orr, g = _oracle_measures(r)
        for ours, oracle in ((m.pa, pa), (m.pr, pr), (m.overall_recall, orr), (m.g, g)):
            if oracle is None:
                assert ours is None
            else:
                assert ours == pytest.approx(oracle, abs=1e-12)
                assert -1e-12 <= ours <= 1 + 1e-12


def test_g_between_pa_and_or():
    rng = np.random.default_rng(8)
    for i in range(100):
        m = dataset_measures(random_record(rng, f"d{i}"))
        if m.g is not None and m.pa is not None:
            assert min(m.pa, m.overall_recall) - 1e-12 <= m.g <= max(m.pa, m.overall_recall) + 1e-12


def test_corpus_measures_averages_defined_only():
    defined = record("a", [("positive", "positive", 0.9, 0.1), ("negative", "negative", 0.1, -0.1)])
    excluded = record("b", [("zero", "zero", 0.5, 0.0)] * 2)
    out = corpus_measures([defined, excluded])
    assert out.counts["pa"] == 1
    assert out.pa == pytest.approx(1.0)


# --- ordering and the L-K matrix ---------------------------------------------


def test_ordering_trivial_cases():
    # y=2 predicted positives, L=1: segment 2 empty
    r = record(
        "d",
        [
            ("positive", "positive", 0.9, 0.1),
            ("positive", "negative", 0.7, -0.1),
            ("zero", "zero", 0.5, 0.0),
        ],
    )
    ordering = [e.p_positive for e in evaluation_ordering(r)]
    assert ordering == [0.9, 0.7, 0.5]

    # y=0, L=2: the two real positives come first, by probability
    r = record(
        "d",
        [
            ("zero", "zero", 0.9, 0.0),
            ("negative", "positive", 0.4, 0.1),
            ("zero", "positive", 0.6, 0.1),
        ],
    )
    out = evaluation_ordering(r)
    assert [e.real_class for e in out[:2]] == ["positive", "positive"]
    assert [e.p_positive for e in out[:2]] == [0.6, 0.4]


def test_ordering_property_randomized():
    rng = np.random.default_rng(9)
    for i in range(200):
        r = random_record(rng, f"d{i}")
        out = evaluation_ordering(r)
        assert sorted(e.transformation for e in out) == sorted(
            e.transformation for e in r.entries
        )
        y = r.predicted_positives
        l_real = r.real_positives
        head = out[: min(y, r.total)]
        assert all(e.predicted_class == "positive" for e in head)
        assert len(head) == y
        if y < l_real:
            for e in out[y:l_real]:
                assert e.real_class == "positive"


def test_lk_matrix_perfect_ordering_scores_one():
    rows = [("positive", "positive", 0.9, 0.1)] * 3 + [
        ("negative", "negative", 0.2, -0.1),
        ("zero", "zero", 0.1, 0.0),
    ]
    matrix = lk_matrix([record("d", rows)])
    for (l_real, k), cell in matrix.cells.items():
        assert l_real == 3
        assert cell.accuracy == 1.0
        assert cell.dataset_count == 1


def test_lk_matrix_inverted_ordering_scores_zero():
    # every prediction wrong: non-positives predicted positive and vice versa
    rows = [("positive", "negative", 0.9, -0.1)] * 2 + [
        ("negative", "positive", 0.1, 0.1)
    ] * 2
    matrix = lk_matrix([record("d", rows)])
    assert matrix.cells[(2, 1)].accuracy == 0.0
    assert matrix.cells[(2, 2)].accuracy == 0.0


def _oracle_lk(records):
    """Position-by-position recount with explicit outcome labels."""
    cells = {}
    for r in records:
        out = evaluation_ordering(r)
        l_real = r.real_positives
        labels = []
        for e in out:
            if e.predicted_class == "positive":
                labels.append("TP" if e.real_class == "positive" else "FP")
            else:
                labels.append("FNP" if e.real_class == "positive" else "TNP")
        for k in range(1, r.total + 1):
            if k <= l_real:
                hits = labels[:k].count("TP")
                trials = k
            else:
                hits = labels[l_real:k].count("TNP")
                trials = k - l_real
            agg = cells.setdefault((l_real, k), [0, 0, 0])
            agg[0] += hits
            agg[1] += trials
            agg[2] += 1
    return cells


def test_lk_matrix_random_counting_oracle():
    rng = np.random.default_rng(10)
    records = [random_record(rng, f"d{i}") for i in range(40)]
    matrix = lk_matrix(records)
    oracle = _oracle_lk(records)
    assert set(matrix.cells) == set(oracle)
    for key, (hits, trials, count) in oracle.items():
        cell = matrix.cells[key]
        assert (cell.successes, cell.trials, cell.dataset_count) == (hits, trials, count)
        assert cell.accuracy == pytest.approx(hits / trials if trials else 0.0)
    # weighted average row recomputation
    for k, value in matrix.weighted_average.items():
        members = [(c.accuracy, c.dataset_count) for (l, kk), c in matrix.cells.items() if kk == k]
        expected = sum(a * n for a, n in members) / sum(n for _, n in members)
        assert value == pytest.approx(expected, abs=1e-12)


# --- random baseline -----------------------------------------------------------


def test_random_pick_formula_examples():
    assert random_pick_probability(10, 2, 6, 0.4) == pytest.approx(0.4)
    assert random_pick_probability(10, 3, 5, 0.1) == pytest.approx(0.42)


def _oracle_random_pick(t, l_real, k, rate):
    """Unit-by-unit position integral of the per-position probabilities."""
    y = t * rate
    total = 0.0
    for c in range(1, k + 1):
        head = min(max(y - (c - 1), 0.0), 1.0)
        if y >= l_real:
            total += head * l_real / t + (1.0 - head) * (t - l_real) / t
        else:
            total += head * l_real / t
            if c > l_real:
                total += (1.0 - head) * (1.0 - y / t)
    return total / k


def test_random_pick_matches_positional_oracle():
    rng = np.random.default_rng(11)
    for _ in range(300):
        t = int(rng.integers(1, 15))
        l_real = int(rng.integers(0, t + 1))
        k = int(rng.integers(1, t + 1))
        rate = float(rng.random())
        ours = random_pick_probability(t, l_real, k, rate)
        assert ours == pytest.approx(_oracle_random_pick(t, l_real, k, rate), abs=1e-12)
        assert -1e-12 <= ours <= 1 + 1e-12


def test_random_pick_k1_equals_share():
    assert random_pick_probability(10, 4, 1, 0.3) == pytest.approx(0.4)
    assert random_pick_probability(7, 7, 1, 0.5) == pytest.approx(1.0)


def test_random_pick_degenerate_all_positive():
    # T == L exercises the branch whose printed denominator vanishes
    assert random_pick_probability(5, 5, 3, 0.2) == pytest.approx(
        _oracle_random_pick(5, 5, 3, 0.2)
    )


def test_random_pick_against_monte_carlo_smoke():
    rng = np.random.default_rng(12)
    for t, l_real, k, rate in [(6, 2, 3, 0.4), (9, 5, 7, 0.2), (10, 0, 4, 0.55), (8, 8, 2, 0.4)]:
        simulated = simulate_random_pick(t, l_real, k, rate, 100_000, rng)
        assert random_pick_probability(t, l_real, k, rate) == pytest.approx(
            simulated, abs=0.01
        )


def test_expected_cell_counts():
    mu_tp, mu_tnp = expected_cell_counts(10, 3, 4)
    assert mu_tp == pytest.approx(1.2)
    assert mu_tnp == pytest.approx(2.8)  # positive, unlike the printed sign


def test_random_pick_validation():
    with pytest.raises(ValueError):
        random_pick_probability(5, 6, 1, 0.5)
    with pytest.raises(ValueError):
        random_pick_probability(5, 2, 6, 0.5)
    with pytest.raises(ValueError):
        random_pick_probability(5, 2, 1, 1.5)


# --- binomial significance ------------------------------------------------------


def test_binomial_examples():
    assert binomial_significance(10, 10, 0.5) == pytest.approx(2.0**-10, rel=1e-9)
    assert binomial_significance(0, 10, 0.5) == 1.0
    assert binomial_significance(10, 10, 0.5) <= 0.001


def test_binomial_summation_oracle():
    expected = sum(math.comb(50, i) * 0.5**50 for i in range(37, 51))
    assert binomial_significance(37, 50, 0.5) == pytest.approx(expected, rel=1e-12)
    rng = np.random.default_rng(13)
    for _ in range(120):
        n = int(rng.integers(1, 60))
        s = int(rng.integers(0, n + 1))
        p = float(rng.uniform(0.01, 0.99))
        expected = sum(
            math.comb(n, i) * p**i * (1 - p) ** (n - i) for i in range(s, n + 1)
        )
        assert binomial_significance(s, n, p) == pytest.approx(expected, rel=1e-9)


def test_binomial_edge_probabilities():
    assert binomial_significance(3, 5, 0.0) == 0.0
    assert binomial_significance(0, 5, 0.0) == 1.0
    assert binomial_significance(5, 5, 1.0) == 1.0


# --- DCG / nDCG -----------------------------------------------------------------


def test_dcg_examples():
    assert dcg([1.0, 0.5, 0.0]) == pytest.approx(1.0 + 0.5 / math.log2(3))
    assert dcg([]) == 0.0
    assert dcg([3.0, 2.0, 1.0]) == pytest.approx(3 + 2 / math.log2(3) + 0.5)


def test_dcg_linear_in_gains():
    rng = np.random.default_rng(14)
    for _ in range(50):
        gains = rng.normal(size=rng.integers(1, 8))
        a = float(rng.uniform(-3, 3))
        assert dcg(a * gains) == pytest.approx(a * dcg(gains), abs=1e-9)


def _with_production_order(values, order_by):
    """Build a record whose p_positive ranking realizes the given gain order."""
    ordered = sorted(values, reverse=True) if order_by == "best" else sorted(values)
    rows = []
    for i, v in enumerate(ordered):
        real = "positive" if v > 0 else ("negative" if v < 0 else "zero")
        rows.append((real, real, 1.0 - i * 1e-3, v))
    return record("d", rows)


def test_ndcg_extremes():
    values = [0.3, -0.2, 0.0, 0.1, -0.05]
    assert ndcg(_with_production_order(values, "best")) == 1.0
    assert ndcg(_with_production_order(values, "worst")) == 0.0


def test_ndcg_permutation_oracle():
    rng = np.random.default_rng(15)
    for i in range(30):
        r = random_record(rng, f"d{i}", n=int(rng.integers(2, 7)))
        if not r.has_relevant:
            continue
        gains = [e.real_value for e in r.entries]
        perms = [dcg(p) for p in itertools.permutations(gains)]
        ranked = sorted(r.entries, key=lambda e: (-e.p_positive, e.transformation))
        value = ndcg(r)
        if max(perms) == min(perms):
            assert value is None
            continue
        expected = (dcg([e.real_value for e in ranked]) - min(perms)) / (
            max(perms) - min(perms)
        )
        assert value == pytest.approx(expected, abs=1e-12)
        assert -1e-9 <= value <= 1 + 1e-9


def test_ndcg_all_neutral_raises():
    r = record("d", [("zero", "zero", 0.5, 0.0)] * 3)
    with pytest.raises(ValueError):
        ndcg(r)


def test_ndcg_equal_gains_excluded():
    r = record("d", [("positive", "positive", 0.9, 0.2), ("zero", "positive", 0.1, 0.2)])
    assert ndcg(r) is None


def test_ndcg_top_k_truncation():
    values = [0.5, 0.4, -0.3]
    best = _with_production_order(values, "best")
    assert ndcg(best, top_k=1) == 1.0
    worst = _with_production_order(values, "worst")
    assert ndcg(worst, top_k=1) == 0.0


def test_gain_report_means():
    rng = np.random.default_rng(16)
    records = [random_record(rng, f"d{i}") for i in range(20)]
    report = gain_report(records, top_k=1)
    vals = [row.ndcg for row in report.rows if row.ndcg is not None]
    assert report.mean_ndcg == pytest.approx(float(np.mean(vals)))
    assert report.considered == sum(1 for r in records if r.has_relevant)
    for row in report.rows:
        assert row.dcg_worst <= row.dcg_recommended <= row.dcg_best


# --- impact distributions --------------------------------------------------------


def test_distribution_distance_reference_values():
    assert distribution_distance(10, 80, 10) == pytest.approx(57.15, abs=0.01)
    assert distribution_distance(45, 30, 25) == pytest.approx(14.73, abs=0.01)


def test_distribution_distance_monotone_near_uniform():
    base = distribution_distance(34, 33, 33)
    bigger = distribution_distance(35, 33, 32)
    assert 0 < base < bigger < 5


def _db_from_classes(rows):
    features = np.append(np.zeros(2 * len(MODIFIABLE_IDS)), 0.5)
    instances = tuple(
        MetaInstance(name, text, features, value, cls)
        for name, text, cls, value in rows
    )
    return MetaDatabase(TREE, "acc", instances)


def test_impact_distribution_groups_and_colors():
    db = _db_from_classes(
        [
            ("a", "normalize(global)", "zero", 0.0),
            ("a", "standardize(global)", "zero", 0.0),
            ("a", "discretize_sup(attr=0)", "positive", 0.1),
            ("b", "normalize(global)", "zero", 0.0),
            ("b", "discretize_sup(attr=0)", "negative", -0.1),
        ]
    )
    by_kind = {d.group: d for d in impact_distribution(db, "transformation_kind")}
    norm = by_kind["normalize"]
    assert norm.pct_zero == 100.0 and norm.rgb == (0, 0, 255)
    disc = by_kind["discretize_sup"]
    assert disc.pct_positive == 50.0 and disc.pct_negative == 50.0
    assert disc.rgb == (128, 128, 0)
    total = impact_distribution(db, "algorithm_total")
    assert len(total) == 1 and total[0].n_rows == 5
    with pytest.raises(ValueError):
        impact_distribution(db, "by_moon_phase")


def test_significance_matrix_shapes():
    rng = np.random.default_rng(17)
    records = [random_record(rng, f"d{i}") for i in range(25)]
    rate = 0.4
    cells = significance_matrix(records, rate)
    matrix = lk_matrix(records)
    assert set(cells) == set(matrix.cells)
    for key, cell in cells.items():
        assert cell.successes == matrix.cells[key].successes
        assert 0.0 <= cell.p_value <= 1.0
        assert 0.0 <= cell.random_probability <= 1.0
