"""Mutated mini-corpus ARFF and CSV texts through the whole pipeline: measures or a typed error.

Each text goes through ``parse_arff`` (or ``parse_csv`` with its default
class column), ``compute_meta_features`` with one column cache shared by the
dataset and its versions, every applicable ``apply``, and one catalog
``cross_validate``, as ``build-metadb`` takes a dataset.  A NumPy
``RuntimeWarning`` still fails the test (pyproject.toml).
"""

import math

from conftest import CORPUS_DIR, mutated_texts
from hypothesis import event, given, settings, strategies as st

from preprank.classifiers import LOGISTIC, MEASURES, NAIVE_BAYES, TREE, cross_validate, knn
from preprank.dataset import DatasetError, parse_arff, parse_csv
from preprank.metafeatures import compute_meta_features
from preprank.transforms import apply, enumerate_applicable

TEXTS = [p.read_text(encoding="utf-8") for p in sorted((CORPUS_DIR / "mini").glob("*.arff"))]


def _csv(ds):
    """``ds`` as CSV: its attribute names, then per row category names, floats or ``?``."""
    lines = [",".join(a.name for a in ds.attributes)]
    for row in ds.rows:
        lines.append(
            ",".join(
                "?" if math.isnan(v) else repr(v) if a.is_continuous else a.categories[int(v)]
                for a, v in zip(ds.attributes, row.tolist())
            )
        )
    return "\n".join(lines) + "\n"


CSV_TEXTS = [_csv(parse_arff(text)) for text in TEXTS]
LEARNERS = (TREE, NAIVE_BAYES, knn(1), LOGISTIC)
#: the package's own ValueErrors that a parsed dataset may still raise
TYPED = ("its statistics leave the float range", "cannot split")


def _assert_measures_or_a_typed_error(parse, text, learner):
    try:
        ds = parse(text)
    except DatasetError:
        event("DatasetError at parse")
        return
    try:
        columns = {}
        compute_meta_features(ds, columns)
        versions = [apply(spec, ds) for spec in enumerate_applicable(ds)]
        for version in versions:
            compute_meta_features(version, columns)
        measured = cross_validate(learner, [ds, *versions], seed=0)
    except ValueError as exc:
        assert any(message in str(exc) for message in TYPED), exc
        event("typed ValueError")
        return
    event("measured")
    assert len(measured) == len(versions) + 1
    for pm in measured:
        for measure in MEASURES:
            assert 0.0 <= pm.get(measure) <= 1.0, (measure, pm)


@settings(max_examples=150, deadline=None)
@given(mutated_texts(TEXTS), st.sampled_from(LEARNERS))
def test_mutated_arff_gives_measures_or_a_typed_error(text, learner):
    _assert_measures_or_a_typed_error(parse_arff, text, learner)


@settings(max_examples=150, deadline=None)
@given(mutated_texts(CSV_TEXTS, "'\"?,"), st.sampled_from(LEARNERS))
def test_mutated_csv_gives_measures_or_a_typed_error(text, learner):
    _assert_measures_or_a_typed_error(parse_csv, text, learner)
