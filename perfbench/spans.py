"""In-memory spans around preprank's layer functions, and the per-layer metrics.

Each wrapper replaces a function at the name its caller looks up (for
example ``preprank.metadb.cross_validate``, the name ``build_metadb`` calls),
so nothing under ``src/`` changes.  A span records its name, start, end,
parent span and request id; start and end are read from the clock the
tracer is given, the runner's CPU clock that leaves out host-speed probes.  Self time is a span's duration minus the
time its child spans cover; spans run on one thread, so children never
overlap.
"""

from __future__ import annotations

import functools
import json
import os
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field

LEARNER_SLUGS = {"tree": "tree", "nb": "nb", "knn:1": "knn", "logistic": "logistic"}
TRANSFORM_KINDS = (
    "discretize_unsup",
    "discretize_sup",
    "nom2bin_unsup",
    "nom2bin_sup",
    "normalize",
    "standardize",
    "impute_cont",
    "impute_cat",
    "pca",
)
EVALUATION_REPORTS = (
    "records_from_loov",
    "corpus_measures",
    "triclass_confusion",
    "lk_matrix",
    "significance_matrix",
    "gain_report",
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    request: str
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans from the wrappers that :func:`installed` puts in place."""

    def __init__(self, clock=time.thread_time):
        self.clock = clock
        self.spans: list[Span] = []
        self.request = ""
        self._stack: list[int] = []

    def wrap(self, fn, name, before=None, after=None):
        """``before(args)`` may extend the name; ``after(args, result)`` gives attrs."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(
                name + (before(args) if before else ""),
                self.clock(),
                0.0,
                self._stack[-1] if self._stack else None,
                self.request,
            )
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = self.clock()
                self._stack.pop()
            if after:
                span.attrs = after(args, result)
            return result

        return traced

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span)) + "\n")


def _learner(args):
    return "." + LEARNER_SLUGS.get(args[0].name, args[0].family)


def _kind(args):
    return "." + args[0].kind


def _file_bytes(path):
    return {"bytes": os.path.getsize(path)}


def _count_nodes(node: dict) -> int:
    count, stack = 0, [node]
    while stack:
        node = stack.pop()
        count += 1
        if "l" in node:
            stack += (node["l"], node["r"])
    return count


def _patch_points(prog):
    """(module, attribute, span name, before, after) for every traced call."""
    cli, dataset, evaluation, forest, metadb, openml, ranker, classifiers = (
        prog.cli,
        prog.dataset,
        prog.evaluation,
        prog.forest,
        prog.metadb,
        prog.openml,
        prog.ranker,
        prog.classifiers,
    )
    points = [
        (cli, "main", "cli.main", None, None),
        (openml, "load_corpus", "openml.load_corpus", None, None),
        (
            dataset,
            "parse_arff",
            "dataset.parse_arff",
            None,
            lambda a, r: {"bytes": len(a[0].encode("utf-8")) if isinstance(a[0], str) else 0},
        ),
        (
            metadb,
            "build_metadb",
            "metadb.build_metadb",
            None,
            lambda a, r: {
                "rows": len(r.rows),
                "skipped": len(a[0]) - len(r.dataset_names()),
            },
        ),
        (metadb, "save", "metadb.save", None, None),
        (metadb, "load", "metadb.load", None, None),
        (forest, "feature_matrix", "metadb.feature_matrix", None, None),
        (classifiers, "fit_predict", "classifiers.fit_predict", _learner, None),
        (
            forest,
            "train_forest",
            "forest.train_forest",
            None,
            lambda a, r: {"nodes": sum(_count_nodes(t) for t in r.trees)},
        ),
        (forest, "loov_evaluate", "forest.loov_evaluate", None, None),
        (forest, "predict_proba", "forest.predict_proba", None, None),
        (forest, "save_model", "forest.save_model", None, lambda a, r: _file_bytes(a[1])),
        (forest, "load_model", "forest.load_model", None, lambda a, r: _file_bytes(a[0])),
        (ranker, "predict_proba", "forest.predict_proba", None, None),
        (
            ranker,
            "rank_transformations",
            "ranker.rank_transformations",
            None,
            lambda a, r: {"scored": len(r)},
        ),
    ]
    for caller in (metadb, ranker):
        points += [
            (caller, "cross_validate", "classifiers.cross_validate", _learner, None),
            (caller, "compute_meta_features", "metafeatures.compute_meta_features", None, None),
            (caller, "delta", "metafeatures.delta", None, None),
            (caller, "apply", "transforms.apply", _kind, None),
            (
                caller,
                "enumerate_applicable",
                "transforms.enumerate_applicable",
                None,
                lambda a, r: {"candidates": len(r)},
            ),
        ]
    points += [
        (evaluation, fn, f"evaluation.{fn}", None, None) for fn in EVALUATION_REPORTS
    ]
    return points


@contextmanager
def installed(tracer: Tracer, prog):
    """Wrap every patch point for the duration of the block, then restore."""
    saved = []
    try:
        for module, attr, name, before, after in _patch_points(prog):
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, tracer.wrap(original, name, before, after))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


# --- per-layer metrics -----------------------------------------------------------


def layer_metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units: dict[str, str] = {}
    for fn in ("cross_validate", "fit_predict"):
        for slug in LEARNER_SLUGS.values():
            units[f"classifiers.{fn}.{slug}.calls"] = "count"
            units[f"classifiers.{fn}.{slug}.s"] = "s"
    for kind in TRANSFORM_KINDS:
        units[f"transforms.apply.{kind}.s"] = "s"
    units["transforms.apply.calls"] = "count"
    units["transforms.enumerate_applicable.candidates"] = "count"
    units["metafeatures.compute_meta_features.calls"] = "count"
    units["metafeatures.compute_meta_features.s"] = "s"
    units["metafeatures.delta.s"] = "s"
    units["dataset.parse_arff.calls"] = "count"
    units["dataset.parse_arff.s"] = "s"
    units["dataset.parse_arff.bytes"] = "bytes"
    units["openml.load_corpus.s"] = "s"
    units["forest.train_forest.calls"] = "count"
    units["forest.train_forest.s"] = "s"
    units["forest.nodes"] = "count"
    units["forest.loov_evaluate.s"] = "s"
    units["forest.predict_proba.calls"] = "count"
    units["forest.predict_proba.s"] = "s"
    units["forest.load_model.calls"] = "count"
    units["forest.load_model.s"] = "s"
    units["forest.model_bytes"] = "bytes"
    units["forest.save_model.s"] = "s"
    units["metadb.build_metadb.s"] = "s"
    units["metadb.rows"] = "count"
    units["metadb.skipped"] = "count"
    units["metadb.save.s"] = "s"
    units["metadb.load.s"] = "s"
    units["metadb.feature_matrix.s"] = "s"
    units["ranker.rank_transformations.s"] = "s"
    units["ranker.cv_runs_per_request"] = "count"
    units["ranker.kept_ratio"] = "ratio"
    units["evaluation.reports.s"] = "s"
    units["cli.main.s"] = "s"
    units["trace.overhead_s"] = "s"
    units["trace.spans"] = "count"
    return units


#: span attributes that add up into a count metric
_ATTR_METRICS = {
    ("transforms.enumerate_applicable", "candidates"): "transforms.enumerate_applicable.candidates",
    ("dataset.parse_arff", "bytes"): "dataset.parse_arff.bytes",
    ("forest.train_forest", "nodes"): "forest.nodes",
    ("metadb.build_metadb", "rows"): "metadb.rows",
    ("metadb.build_metadb", "skipped"): "metadb.skipped",
}


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the summed durations of its direct children."""
    child = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            child[span.parent] += span.seconds
    return [span.seconds - c for span, c in zip(spans, child)]


def layer_metrics(spans: list[Span], overhead_s: float, scale=None) -> dict[str, int | float]:
    """Aggregate one traced round into the metrics of :func:`layer_metric_units`.

    Counts are exact; ``.s`` values are summed self times, each multiplied
    by ``scale(start, end)`` of its span when given (host speed, see
    :mod:`perfbench.speed`).  A layer the round never calls reports 0.
    """
    own = self_times(spans)
    if scale is not None:
        own = [s * scale(span.start, span.end) for s, span in zip(own, spans)]
    values: dict[str, int | float] = {}
    for name, unit in layer_metric_units().items():
        values[name] = 0.0 if unit in ("s", "ratio") else 0

    def add(key, amount):
        if key in values:
            values[key] += amount

    for span, self_s in zip(spans, own):
        add(f"{span.name}.calls", 1)
        add(f"{span.name}.s", self_s)
        if span.name.startswith("transforms.apply."):
            add("transforms.apply.calls", 1)
        elif span.name.startswith("evaluation."):
            add("evaluation.reports.s", self_s)
        for attr, amount in span.attrs.items():
            key = _ATTR_METRICS.get((span.name, attr))
            if key:
                add(key, amount)

    model_files = [
        s.attrs["bytes"] for s in spans if s.name in ("forest.save_model", "forest.load_model")
    ]
    if model_files:
        values["forest.model_bytes"] = sum(model_files) / len(model_files)

    ranks = [i for i, s in enumerate(spans) if s.name == "ranker.rank_transformations"]
    if ranks:
        inside = set(ranks)
        cv_runs = sum(
            1
            for s in spans
            if s.parent in inside and s.name.startswith("classifiers.cross_validate.")
        )
        enumerated = sum(
            s.attrs["candidates"]
            for s in spans
            if s.parent in inside and s.name == "transforms.enumerate_applicable"
        )
        scored = sum(spans[i].attrs["scored"] for i in ranks)
        values["ranker.cv_runs_per_request"] = cv_runs / len(ranks)
        values["ranker.kept_ratio"] = scored / enumerated if enumerated else 0.0

    values["trace.overhead_s"] = overhead_s
    values["trace.spans"] = len(spans)
    return values
