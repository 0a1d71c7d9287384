"""Ranking-quality calculus: tri-class confusion accounting, per-dataset
accuracy/precision/recall/G measures, top-K position matrices with a
hypergeometric random baseline and binomial significance, discounted
cumulative gain, and impact-distribution summaries.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, fields

import numpy as np

from .metadb import MetaDatabase, NEGATIVE, POSITIVE, RESPONSE_CLASSES, ZERO
from .forest import LoovReport
from .transforms import spec_kind


@dataclass(frozen=True)
class EvalEntry:
    """One transformation of one dataset: prediction versus reality."""

    transformation: str
    p_positive: float
    predicted_class: str
    real_class: str
    real_value: float


@dataclass(frozen=True)
class DatasetEvalRecord:
    dataset_name: str
    entries: tuple[EvalEntry, ...]

    @property
    def total(self) -> int:
        return len(self.entries)

    @property
    def real_positives(self) -> int:
        return sum(e.real_class == POSITIVE for e in self.entries)

    @property
    def predicted_positives(self) -> int:
        return sum(e.predicted_class == POSITIVE for e in self.entries)

    @property
    def has_relevant(self) -> bool:
        """True when at least one transformation has non-zero real impact."""
        return any(e.real_class != ZERO for e in self.entries)


def records_from_loov(db: MetaDatabase, report: LoovReport) -> list[DatasetEvalRecord]:
    """Each row's held-out prediction beside the measured impact it was blind to.

    Records follow ``db.dataset_names()``; each keeps its dataset's rows in
    order.  The predicted class is the first most probable one.
    """
    entries = {name: [] for name in db.dataset_names()}
    for row, proba in zip(db.rows, report.probabilities.tolist(), strict=True):
        entries[row.dataset_name].append(
            EvalEntry(
                transformation=row.transformation,
                p_positive=proba[0],
                predicted_class=RESPONSE_CLASSES[proba.index(max(proba))],
                real_class=row.meta_response_class,
                real_value=row.meta_response_value,
            )
        )
    return [DatasetEvalRecord(name, tuple(e)) for name, e in entries.items()]


# --- tri-class confusion ----------------------------------------------------


@dataclass(frozen=True)
class TriClassConfusion:
    """Weighted predicted-vs-real cells; first letters name the prediction.

    Fields run over (predicted, real) pairs in ``RESPONSE_CLASSES`` order.
    """

    TP: float = 0.0
    FP_N: float = 0.0
    FP_0: float = 0.0
    FN_P: float = 0.0
    TN: float = 0.0
    FN_0: float = 0.0
    F0_P: float = 0.0
    F0_N: float = 0.0
    T0: float = 0.0


def triclass_confusion(records) -> TriClassConfusion:
    """Sum the per-dataset matrices; every dataset contributes total weight 1.

    Cell ``3 * predicted + real``, both positions in ``RESPONSE_CLASSES``,
    is the matching field of :class:`TriClassConfusion`.
    """
    records = list(records)
    if not records:
        raise ValueError("no evaluation records")
    cells = [0.0] * len(RESPONSE_CLASSES) ** 2
    for record in records:
        w = 1.0 / record.total
        for e in record.entries:
            predicted = RESPONSE_CLASSES.index(e.predicted_class)
            cells[len(RESPONSE_CLASSES) * predicted + RESPONSE_CLASSES.index(e.real_class)] += w
    return TriClassConfusion(*cells)


@dataclass(frozen=True)
class DatasetMeasures:
    """Per-dataset scores; ``None`` marks an undefined (excluded) measure."""

    pa: float | None
    pr: float | None
    overall_recall: float | None
    g: float | None


def dataset_measures(record: DatasetEvalRecord) -> DatasetMeasures:
    """Accuracy, precision, overall recall and their harmonic G for one dataset.

    Datasets without any relevant (non-zero) transformation yield all-None.
    Precision terms with empty denominators are dropped from the average.
    """
    if not record.has_relevant:
        return DatasetMeasures(None, None, None, None)
    c = triclass_confusion([record])
    inner = c.TP + c.FN_P + c.FP_N + c.TN
    pa = (c.TP + c.TN) / inner if inner > 0 else None
    terms = []
    if c.TP + c.FP_N > 0:
        terms.append(c.TP / (c.TP + c.FP_N))
    if c.TN + c.FN_P > 0:
        terms.append(c.TN / (c.TN + c.FN_P))
    pr = float(np.mean(terms)) if terms else None
    overall = inner / (inner + c.F0_P + c.F0_N)
    if pa is None:
        g = None
    elif pa + overall == 0:
        g = 0.0
    else:
        g = 2.0 * pa * overall / (pa + overall)
    return DatasetMeasures(pa, pr, overall, g)


@dataclass(frozen=True)
class CorpusMeasures(DatasetMeasures):
    #: per measure, the number of datasets where it is defined
    counts: dict[str, int]


def corpus_measures(records) -> CorpusMeasures:
    """Mean of each per-dataset measure over the datasets where it is defined."""
    per = [dataset_measures(r) for r in records]
    out = {}
    counts = {}
    for field in fields(DatasetMeasures):
        vals = [getattr(m, field.name) for m in per if getattr(m, field.name) is not None]
        counts[field.name] = len(vals)
        out[field.name] = float(np.mean(vals)) if vals else None
    return CorpusMeasures(counts=counts, **out)


# --- top-K position calculus --------------------------------------------------


def evaluation_ordering(record: DatasetEvalRecord) -> list[EvalEntry]:
    """Canonical position ordering for top-K accounting.

    Positively predicted transformations come first (by probability), then
    any remaining real positives until position L, then everything else by
    probability.  Ties always break on the transformation text.
    """
    ranked = sorted(record.entries, key=lambda e: (-e.p_positive, e.transformation))
    head = [e for e in ranked if e.predicted_class == POSITIVE]
    leftovers = [e for e in ranked if e.real_class == POSITIVE and e.predicted_class != POSITIVE]
    head += leftovers[: max(0, record.real_positives - len(head))]
    taken = {id(e) for e in head}
    return head + [e for e in ranked if id(e) not in taken]


@dataclass(frozen=True)
class LKCell:
    """Pooled accuracy for datasets with exactly L real positives at depth K."""

    accuracy: float
    mean_ratio: float
    successes: int
    trials: int
    dataset_count: int


@dataclass(frozen=True)
class LKMatrix:
    cells: dict[tuple[int, int], LKCell]
    weighted_average: dict[int, float]


def _lk_cells(records, per_dataset):
    """Per (L, K) cell in sorted order: pooled (successes, trials, values).

    ``values`` holds ``per_dataset(record, L, K, successes, trials)`` of each
    member dataset, one per dataset at every depth K <= T; see :func:`lk_matrix`.
    A dataset's trials are K at or below the diagonal and K - L above it,
    so never 0.
    """
    cells: dict[tuple[int, int], list] = {}
    for record in records:
        ordering = evaluation_ordering(record)
        flags = [(e.predicted_class == POSITIVE, e.real_class == POSITIVE) for e in ordering]
        # true positives and true non-positives among the first c positions, per c
        tp = list(itertools.accumulate((p and r for p, r in flags), initial=0))
        tn = list(itertools.accumulate((not (p or r) for p, r in flags), initial=0))
        l_total = record.real_positives
        for k in range(1, record.total + 1):
            hits, trials = (tp[k], k) if k <= l_total else (tn[k] - tn[l_total], k - l_total)
            cell = cells.setdefault((l_total, k), [0, 0, []])
            cell[0] += hits
            cell[1] += trials
            cell[2].append(per_dataset(record, l_total, k, hits, trials))
    return sorted(cells.items())


def lk_matrix(records) -> LKMatrix:
    """Aggregate position accuracies into the L-by-K matrix.

    At or below the diagonal (K <= L) cells pool true positives over the top
    K positions; above it they pool true non-positives over positions L+1..K.
    Counts are pooled across datasets; the per-dataset mean ratio is kept
    alongside.  The weighted-average row weights cells by dataset count.
    """

    def ratio(record, l_total, k, hits, trials):
        return hits / trials

    cells = {
        key: LKCell(
            accuracy=hits / trials,
            mean_ratio=float(np.mean(ratios)),
            successes=hits,
            trials=trials,
            dataset_count=len(ratios),
        )
        for key, (hits, trials, ratios) in _lk_cells(records, ratio)
    }
    weighted = {}
    for k in sorted({k for _, k in cells}):
        members = [(cell.accuracy, cell.dataset_count) for (l, kk), cell in cells.items() if kk == k]
        total = sum(count for _, count in members)
        weighted[k] = sum(a * count for a, count in members) / total
    return LKMatrix(cells=cells, weighted_average=weighted)


def random_pick_probability(t: int, l_real: int, k: int, p_positive_rate: float) -> float:
    """Per-cell success probability of a user picking transformations at random.

    Models a picker that flags ``y' = T * rate`` transformations as positive,
    ordered the same way the system's output is: true-positive chances fill
    the first min(K, y') positions; above the diagonal the chance of hitting
    a true non-positive is the unpicked share of the non-positives.
    """
    if not 0 <= l_real <= t:
        raise ValueError("need 0 <= L <= T")
    if not 1 <= k <= t:
        raise ValueError("need 1 <= K <= T")
    if not 0.0 <= p_positive_rate <= 1.0:
        raise ValueError("rate must be in [0, 1]")
    y = t * p_positive_rate
    head = min(k, y) * l_real / t
    if y >= l_real:
        tail = max(0.0, k - y) * (t - l_real) / t
    else:
        # the bracketed share ((T-L) - y'(T-L)/T) / (T-L) reduces to 1 - y'/T,
        # which also covers the degenerate T == L denominator by its limit
        tail = max(0.0, k - l_real) * (1.0 - y / t)
    return (head + tail) / k


def expected_cell_counts(t: int, l_real: int, k: int) -> tuple[float, float]:
    """Expected true positives and true non-positives of the random picker."""
    return k * l_real / t, k * (t - l_real) / t


def binomial_significance(successes: int, trials: int, p0: float) -> float:
    """Exact upper-tail binomial probability P(X >= successes), in log space."""
    if not 0 <= successes <= trials:
        raise ValueError("need 0 <= successes <= trials")
    if not 0.0 <= p0 <= 1.0:
        raise ValueError("p0 must be in [0, 1]")
    if successes == 0:
        return 1.0
    if p0 == 0.0:
        return 0.0
    if p0 == 1.0:
        return 1.0
    log_p = math.log(p0)
    log_q = math.log1p(-p0)
    terms = [
        math.lgamma(trials + 1)
        - math.lgamma(i + 1)
        - math.lgamma(trials - i + 1)
        + i * log_p
        + (trials - i) * log_q
        for i in range(successes, trials + 1)
    ]
    peak = max(terms)
    total = peak + math.log(sum(math.exp(term - peak) for term in terms))
    return min(1.0, math.exp(total))


@dataclass(frozen=True)
class SignificanceCell:
    successes: int
    trials: int
    accuracy: float
    random_probability: float
    p_value: float
    dataset_count: int

    @property
    def significant(self) -> bool:
        return self.p_value <= 0.001


def significance_matrix(records, p_positive_rate: float):
    """Binomial test of each L-K cell against the random-pick baseline.

    The baseline probability of a cell averages the per-dataset random-pick
    probability over its member datasets (their totals differ).
    """

    def baseline(record, l_total, k, hits, trials):
        return random_pick_probability(record.total, l_total, k, p_positive_rate)

    out = {}
    for key, (hits, trials, p0s) in _lk_cells(records, baseline):
        p0 = float(np.mean(p0s))
        out[key] = SignificanceCell(
            successes=hits,
            trials=trials,
            accuracy=hits / trials,
            random_probability=p0,
            p_value=binomial_significance(hits, trials, p0),
            dataset_count=len(p0s),
        )
    return out


# --- discounted cumulative gain -----------------------------------------------


def dcg(gains_in_rank_order) -> float:
    """Sum of gains discounted by log2(position + 1); position is 1-based."""
    return float(
        sum(g / math.log2(i + 1) for i, g in enumerate(gains_in_rank_order, start=1))
    )


def _dcgs(record: DatasetEvalRecord, top_k: int | None = None):
    """DCG of the recommended, best and worst orderings cut to ``top_k``, and their nDCG."""
    if not record.has_relevant:
        raise ValueError(f"dataset {record.dataset_name!r} has no relevant transformation")
    ranked = sorted(record.entries, key=lambda e: (-e.p_positive, e.transformation))
    gains = [e.real_value for e in ranked]
    recommended, best, worst = (
        dcg(g[:top_k]) for g in (gains, sorted(gains, reverse=True), sorted(gains))
    )
    normalized = None if best == worst else (recommended - worst) / (best - worst)
    return recommended, best, worst, normalized


def ndcg(record: DatasetEvalRecord, top_k: int | None = None) -> float | None:
    """Worst-to-best normalized DCG of the production ranking.

    Gains are the signed real impact values.  Raises on an all-neutral
    dataset; returns ``None`` when all gains are equal (best == worst, the
    dataset is excluded from averages).  ``top_k`` truncates the recommended,
    best and worst orderings alike before summation.
    """
    return _dcgs(record, top_k)[3]


@dataclass(frozen=True)
class GainRow:
    dataset_name: str
    dcg_recommended: float
    dcg_best: float
    dcg_worst: float
    ndcg: float | None
    ndcg_top: float | None


@dataclass(frozen=True)
class GainReport:
    rows: tuple[GainRow, ...]
    mean_ndcg: float | None
    mean_ndcg_top: float | None
    considered: int
    top_k: int


def gain_report(records, top_k: int = 1) -> GainReport:
    """Per-dataset DCG extremes plus corpus means over the considered datasets.

    Only datasets with at least one relevant transformation participate;
    degenerate (all-equal-gain) datasets are reported but excluded from means.
    """
    rows = tuple(
        GainRow(r.dataset_name, *_dcgs(r), _dcgs(r, top_k)[3])
        for r in records
        if r.has_relevant
    )
    full = [row.ndcg for row in rows if row.ndcg is not None]
    top = [row.ndcg_top for row in rows if row.ndcg_top is not None]
    return GainReport(
        rows=rows,
        mean_ndcg=float(np.mean(full)) if full else None,
        mean_ndcg_top=float(np.mean(top)) if top else None,
        considered=len(rows),
        top_k=top_k,
    )


# --- impact distributions -------------------------------------------------------

GROUP_BY_ALGORITHM = "algorithm_total"
GROUP_BY_KIND = "transformation_kind"


@dataclass(frozen=True)
class DistributionRecord:
    """Class-share summary of one group of meta-instances."""

    group: str
    n_rows: int
    pct_positive: float
    pct_negative: float
    pct_zero: float
    distance: float
    rgb: tuple[int, int, int]


def distribution_distance(pct_positive: float, pct_negative: float, pct_zero: float) -> float:
    """Euclidean distance of the percentage triple from the uniform (33,33,33)."""
    return math.sqrt(
        (pct_positive - 33.0) ** 2 + (pct_negative - 33.0) ** 2 + (pct_zero - 33.0) ** 2
    )


def _distribution(group: str, classes: list[str]) -> DistributionRecord:
    n = len(classes)
    pos = 100.0 * sum(c == POSITIVE for c in classes) / n
    neg = 100.0 * sum(c == NEGATIVE for c in classes) / n
    zero = 100.0 * sum(c == ZERO for c in classes) / n
    # shares drive the color channels: negative->red, positive->green, zero->blue
    rgb = (round(255 * neg / 100), round(255 * pos / 100), round(255 * zero / 100))
    return DistributionRecord(
        group=group,
        n_rows=n,
        pct_positive=pos,
        pct_negative=neg,
        pct_zero=zero,
        distance=distribution_distance(pos, neg, zero),
        rgb=rgb,
    )


def impact_distribution(db: MetaDatabase, group_by: str) -> list[DistributionRecord]:
    """Positive/negative/zero shares per group, with bubble size and color."""
    if not db.rows:
        raise ValueError("empty meta-database")
    if group_by == GROUP_BY_ALGORITHM:
        groups = {db.algorithm.name: [r.meta_response_class for r in db.rows]}
    elif group_by == GROUP_BY_KIND:
        groups = {}
        for row in db.rows:
            groups.setdefault(spec_kind(row.transformation), []).append(
                row.meta_response_class
            )
    else:
        raise ValueError(f"unknown grouping {group_by!r}")
    return [_distribution(name, classes) for name, classes in sorted(groups.items())]
