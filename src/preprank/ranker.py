"""Production-time recommendation: prune by expert rules, score, rank.

Ranking a dataset runs the target classifier exactly once (for the base
performance); every candidate transformation is then judged from its
meta-feature deltas alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from pathlib import Path

from .classifiers import FAMILIES, ClassifierKind, cross_validate
from .dataset import Dataset
from .forest import ForestModel, predict_proba, predicted_class
from .metadb import feature_vector
from .metafeatures import compute_meta_features, delta
from .transforms import (
    KIND_ORDER,
    NORMALIZE,
    STANDARDIZE,
    TransformationSpec,
    apply,
    enumerate_applicable,
)

EXCLUDE = "exclude"
ANY_ALGORITHM = "any"


class RulesError(Exception):
    """Unparsable expert-rules text."""


@dataclass(frozen=True)
class ExpertRule:
    """Declarative filter: exclude one transformation kind for one learner family or any."""

    algorithm: str
    transformation_kind: str

    def __post_init__(self):
        if self.transformation_kind not in KIND_ORDER:
            raise ValueError(f"unknown transformation kind {self.transformation_kind!r}")
        if self.algorithm not in (ANY_ALGORITHM, *FAMILIES):
            raise ValueError(f"unknown learner family {self.algorithm!r}")

    def matches(self, algorithm: ClassifierKind, spec: TransformationSpec) -> bool:
        if self.transformation_kind != spec.kind:
            return False
        return self.algorithm in (ANY_ALGORITHM, algorithm.family)


#: shipped defaults: scaling operators cannot change these learners' decisions
DEFAULT_RULES: tuple[ExpertRule, ...] = tuple(
    ExpertRule(family, kind)
    for family in ("knn", "logistic", "tree")
    for kind in (NORMALIZE, STANDARDIZE)
)


def prune(
    rules, algorithm: ClassifierKind, candidates: list[TransformationSpec]
) -> list[TransformationSpec]:
    """Drop candidates matched by any rule; order is preserved."""
    return [
        spec
        for spec in candidates
        if not any(rule.matches(algorithm, spec) for rule in rules)
    ]


def parse_rules(text: str) -> tuple[ExpertRule, ...]:
    """Parse a rules file: ``exclude <algorithm|any> <kind>`` lines and ``#`` comments."""
    rules = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.partition("#")[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 3 or parts[0] != EXCLUDE:
            raise RulesError(f"line {lineno}: expected 'exclude <algorithm|any> <kind>'")
        try:
            rules.append(ExpertRule(parts[1], parts[2]))
        except ValueError as exc:
            raise RulesError(f"line {lineno}: {exc}") from exc
    return tuple(rules)


def load_rules(path) -> tuple[ExpertRule, ...]:
    return parse_rules(Path(path).read_text(encoding="utf-8-sig"))


@dataclass(frozen=True)
class Recommendation:
    spec: TransformationSpec
    p_positive: float
    p_negative: float
    p_zero: float
    predicted_class: str
    rank: int


def rank_transformations(
    model: ForestModel,
    rules,
    algorithm: ClassifierKind,
    ds: Dataset,
    seed: int,
) -> list[Recommendation]:
    """Rank the applicable transformations by predicted probability of helping.

    Sorted by p_positive descending, ties broken by canonical spec text.
    Returns an empty list when pruning leaves no candidate.
    """
    if model.algorithm and model.algorithm != algorithm.name:
        raise ValueError(
            f"model was trained for {model.algorithm!r}, not {algorithm.name!r}"
        )
    candidates = prune(rules, algorithm, enumerate_applicable(ds))
    # the catalog makes its versions one at a time as it is read: they are never all held
    mfs = compute_meta_features(chain([ds], (apply(spec, ds) for spec in candidates)))
    base_mf = mfs[0]
    base_pm = cross_validate(algorithm, [ds], seed=seed)[0].get(model.measure or "acc")
    scored = [
        (spec, predict_proba(model, feature_vector(base_mf, change, base_pm)))
        for spec, change in zip(candidates, delta(base_mf, mfs[1:]))
    ]
    scored.sort(key=lambda item: (-item[1][0], item[0].text))
    out = []
    for rank, (spec, proba) in enumerate(scored, start=1):
        out.append(
            Recommendation(
                spec=spec,
                p_positive=proba[0],
                p_negative=proba[1],
                p_zero=proba[2],
                predicted_class=predicted_class(proba),
                rank=rank,
            )
        )
    return out
