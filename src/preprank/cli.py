"""Command-line surface: featurize, impact-scan, build-metadb, train,
recommend, evaluate.

Every command is deterministic given its flags and seed; output files embed
the resolved configuration in a leading comment so runs are reproducible.
"""

from __future__ import annotations

import argparse
import gc
import logging
import math
import sys
from dataclasses import astuple, fields
from pathlib import Path

from . import evaluation, forest, metadb, openml, ranker
from .classifiers import MEASURES, parse_classifier
from .dataset import DatasetError, load_dataset_file, write_file
from .metafeatures import FEATURE_IDS, compute_meta_features

DEFAULT_SEED = 42
#: report names of the fields of ``evaluation.DatasetMeasures``, in order
_MEASURE_NAMES = ("PA", "Pr", "OR", "G")


def _config_line(command: str, args: argparse.Namespace, keys) -> str:
    parts = [f"{key}={getattr(args, key)}" for key in sorted(keys)]
    return f"# preprank {command} " + " ".join(parts)


def _fmt(value) -> str:
    if value is None:
        return "NA"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _row(*cells) -> str:
    """One report line: the cells' :func:`_fmt` text, tab-separated."""
    return "\t".join(_fmt(cell) for cell in cells)


def _write(path: Path, lines) -> None:
    write_file(path, "\n".join(lines) + "\n")


def _load_corpus(args) -> openml.CorpusResult:
    manifest = openml.read_manifest(args.datasets)
    cache = args.cache or openml.default_cache_dir()
    return openml.load_corpus(manifest, cache)


def _alg_slug(name: str) -> str:
    return name.replace(":", "")


# --- commands ----------------------------------------------------------------


def cmd_featurize(args) -> int:
    ds = load_dataset_file(args.dataset, class_column=args.class_column)
    [values] = compute_meta_features([ds]).tolist()
    for fid, value in zip(FEATURE_IDS, values):
        print(f"{fid}\t{'NA' if math.isnan(value) else repr(value)}")
    return 0


def _distribution_lines(db, header: str) -> list[str]:
    return [
        header,
        _row("group", "n", "pct_positive", "pct_negative", "pct_zero", "distance", "rgb"),
        *(
            _row(*astuple(rec)[:-1], ",".join(map(str, rec.rgb)))  # rgb, the last field, as r,g,b
            for group_by in (evaluation.GROUP_BY_ALGORITHM, evaluation.GROUP_BY_KIND)
            for rec in evaluation.impact_distribution(db, group_by)
        ),
    ]


def cmd_impact_scan(args) -> int:
    corpus = _load_corpus(args)
    out_dir = Path(args.out)
    header = _config_line(
        "impact-scan", args, ["datasets", "measure", "seed", "jobs"]
    )
    skipped = []  # one (dataset, reason) per dataset and learner
    for name in args.algorithm:
        kind = parse_classifier(name)
        db = metadb.build_metadb(
            corpus.datasets, kind, args.measure, args.seed, jobs=args.jobs
        )
        skipped += [(dataset, f"{reason} ({kind.name})") for dataset, reason in db.skipped]
        lines = _distribution_lines(db, header + f" algorithm={kind.name}")
        _write(out_dir / f"impact_{_alg_slug(kind.name)}.tsv", lines)
        print(f"wrote impact report for {kind.name}", file=sys.stderr)
    return _failures_exit(args, [*corpus.failures, *skipped])


def cmd_build_metadb(args) -> int:
    corpus = _load_corpus(args)
    kind = parse_classifier(args.algorithm)
    db = metadb.build_metadb(
        corpus.datasets, kind, args.measure, args.seed, jobs=args.jobs
    )
    config = _config_line(
        "build-metadb", args, ["datasets", "algorithm", "measure", "seed", "jobs"]
    )
    metadb.save(db, args.out, header_comment=config)
    print(
        f"meta-database: {len(db.rows)} rows over {len(db.dataset_names())} datasets "
        f"-> {args.out}",
        file=sys.stderr,
    )
    return _failures_exit(args, tuple(corpus.failures) + db.skipped)


def cmd_train(args) -> int:
    db = metadb.load(args.metadb)
    model = forest.train_forest(db, args.trees, seed=args.seed)
    config = {
        "metadb": str(args.metadb),
        "trees": args.trees,
        "seed": args.seed,
    }
    forest.save_model(model, args.out, extra=config)
    print(f"forest of {args.trees} trees -> {args.out}", file=sys.stderr)
    return 0


def cmd_recommend(args) -> int:
    ds = load_dataset_file(args.dataset, class_column=args.class_column)
    kind = parse_classifier(args.algorithm)
    enabled = gc.isenabled()
    gc.disable()  # the model's ~14k containers hold no cycles: none is rescanned until it is freed
    try:
        model = forest.load_model(args.model)
        rules = ranker.load_rules(args.rules) if args.rules else ranker.DEFAULT_RULES
        recommendations = ranker.rank_transformations(model, rules, kind, ds, args.seed)
        del model  # before the collector is back
    finally:
        if enabled:
            gc.enable()
    if args.top is not None:
        recommendations = recommendations[: args.top]
    print(_config_line("recommend", args, ["dataset", "algorithm", "seed", "top"]))
    print("rank\ttransformation\tp_positive\tp_negative\tp_zero\tpredicted")
    for rec in recommendations:
        print(
            f"{rec.rank}\t{rec.spec.text}\t{_fmt(rec.p_positive)}\t"
            f"{_fmt(rec.p_negative)}\t{_fmt(rec.p_zero)}\t{rec.predicted_class}"
        )
    return 0


def cmd_evaluate(args) -> int:
    db = metadb.load(args.metadb)
    report = forest.loov_evaluate(db, args.trees, seed=args.seed)
    records = evaluation.records_from_loov(db, report)
    out_dir = Path(args.out)
    header = _config_line("evaluate", args, ["metadb", "trees", "seed", "top"])

    corpus_m = evaluation.corpus_measures(records)
    confusion = evaluation.triclass_confusion(records)
    matrix = evaluation.lk_matrix(records)
    rate = db.positive_rate()
    significance = evaluation.significance_matrix(records, rate)
    gains = evaluation.gain_report(records, top_k=args.top)

    _write(
        out_dir / "measures.tsv",
        [
            header,
            _row("dataset", *_MEASURE_NAMES),
            *(_row(r.dataset_name, *astuple(evaluation.dataset_measures(r))) for r in records),
        ],
    )
    _write(
        out_dir / "lk_matrix.tsv",
        [
            header,
            _row("L", "K", "accuracy", "mean_ratio", "successes", "trials", "datasets"),
            *(_row(*key, *astuple(cell)) for key, cell in matrix.cells.items()),
            "",
            _row("K", "weighted_average"),
            *(_row(k, value) for k, value in sorted(matrix.weighted_average.items())),
        ],
    )
    _write(
        out_dir / "significance.tsv",
        [
            header,
            _row("L", "K", "accuracy", "random", "successes", "trials", "p_value", "significant"),
            *(
                _row(
                    l_real, k, cell.accuracy, cell.random_probability, cell.successes,
                    cell.trials, cell.p_value, "yes" if cell.significant else "no",
                )
                for (l_real, k), cell in significance.items()
            ),
        ],
    )
    _write(
        out_dir / "ndcg.tsv",
        [
            header,
            _row("algorithm", "ndcg_all", "ndcg_top", "datasets_considered"),
            _row(db.algorithm.name, gains.mean_ndcg, gains.mean_ndcg_top, gains.considered),
            "",
            _row("dataset", "dcg_recommended", "dcg_best", "dcg_worst", "ndcg", "ndcg_top"),
            *(_row(*astuple(row)) for row in gains.rows),
        ],
    )
    _write(out_dir / "distribution.tsv", _distribution_lines(db, header))

    cells = " ".join(f"{f.name}={_fmt(getattr(confusion, f.name))}" for f in fields(confusion))
    summary = [
        header,
        _row("algorithm", db.algorithm.name),
        _row("measure", db.measure),
        _row("datasets", len(records)),
        _row("meta_instances", len(db.rows)),
        _row("positive_rate", rate),
        *(
            _row(f"mean_{name}", getattr(corpus_m, f.name))
            + f" (over {corpus_m.counts[f.name]} datasets)"
            for name, f in zip(_MEASURE_NAMES, fields(evaluation.DatasetMeasures))
        ),
        _row("mean_nDCG", gains.mean_ndcg),
        _row(f"mean_nDCG_top{gains.top_k}", gains.mean_ndcg_top),
        _row("confusion", cells),
    ]
    if report.single_class:
        summary.append(
            _row(
                "single_class_folds",
                f"{','.join(report.single_class)} (training fold held one "
                "response class; predicted with probability 1)",
            )
        )
    if db.skipped:
        summary.append(
            _row("skipped_datasets", "; ".join(f"{name}: {reason}" for name, reason in db.skipped))
        )
    _write(out_dir / "summary.txt", summary)
    print(f"evaluation reports -> {out_dir}", file=sys.stderr)
    return 0


def _failures_exit(args, failures) -> int:
    if not failures:
        return 0
    for entry, reason in failures:
        print(f"failed: {entry}: {reason}", file=sys.stderr)
    if getattr(args, "allow_partial", False):
        return 0
    return 1


# --- argument plumbing ---------------------------------------------------------

COMMANDS = ("featurize", "impact-scan", "build-metadb", "train", "recommend", "evaluate")


def _add_corpus_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--datasets", required=True, help="manifest of ids/paths")
    p.add_argument("--cache", default=None, help="dataset cache directory")
    p.add_argument("--jobs", type=int, default=1, help="parallel workers")
    p.add_argument(
        "--allow-partial",
        action="store_true",
        help="exit 0 even when some datasets fail",
    )


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The full CLI parser; given one of COMMANDS, a parser of that command alone.

    It parses that command's arguments, and writes help, usage and errors, as the full one does.
    """
    alone = command in COMMANDS
    parser = argparse.ArgumentParser(
        prog="preprank",
        description="Rank data pre-processing operators by predicted impact",
    )
    # with one command added, usage lines still name every command, as the full parser's do
    metavar = "{" + ",".join(COMMANDS) + "}" if alone else None
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)

    def add(name, help_text, fn):
        if alone and name != command:
            return None
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(fn=fn)
        return p

    if p := add("featurize", "print a dataset's characteristics", cmd_featurize):
        p.add_argument("dataset")
        p.add_argument(
            "--class-column", default=None, help="header name of a .csv file's class column"
        )

    if p := add("impact-scan", "measure per-operator impact shares", cmd_impact_scan):
        _add_corpus_flags(p)
        p.add_argument("--algorithm", action="append", required=True)
        p.add_argument("--measure", choices=MEASURES, default="acc")
        p.add_argument("--seed", type=int, default=DEFAULT_SEED)
        p.add_argument("--out", required=True)

    if p := add("build-metadb", "measure transformations over a corpus", cmd_build_metadb):
        _add_corpus_flags(p)
        p.add_argument("--algorithm", required=True)
        p.add_argument("--measure", choices=MEASURES, default="acc")
        p.add_argument("--seed", type=int, default=DEFAULT_SEED)
        p.add_argument("--out", required=True)

    if p := add("train", "train the forest meta-model", cmd_train):
        p.add_argument("--metadb", required=True)
        p.add_argument("--trees", type=int, default=forest.DEFAULT_TREES)
        p.add_argument("--seed", type=int, default=DEFAULT_SEED)
        p.add_argument("--out", required=True)

    if p := add("recommend", "rank transformations for one dataset", cmd_recommend):
        p.add_argument("--dataset", required=True)
        p.add_argument("--algorithm", required=True)
        p.add_argument("--model", required=True)
        p.add_argument("--rules", default=None)
        p.add_argument("--top", type=int, default=None)
        p.add_argument("--seed", type=int, default=DEFAULT_SEED)
        p.add_argument(
            "--class-column", default=None, help="header name of a .csv file's class column"
        )

    if p := add("evaluate", "leave-one-dataset-out report suite", cmd_evaluate):
        p.add_argument("--metadb", required=True)
        p.add_argument("--trees", type=int, default=forest.DEFAULT_TREES)
        p.add_argument("--seed", type=int, default=DEFAULT_SEED)
        p.add_argument("--top", type=int, default=1)
        p.add_argument("--out", required=True)

    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, stream=sys.stderr, format="%(message)s")
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser(argv[0] if argv else None).parse_args(argv)  # "-h" or "--": the full one
    if hasattr(args, "seed"):
        print(f"seed: {args.seed}", file=sys.stderr)
    for flag in ("top", "jobs"):
        value = getattr(args, flag, None)
        if value is not None and value < 1:
            print(f"error: --{flag} must be at least 1, got {value}", file=sys.stderr)
            return 2
    try:
        return args.fn(args)
    except (
        DatasetError,
        openml.OpenMLError,
        metadb.MetaDbError,
        forest.ModelError,
        ranker.RulesError,
        ValueError,
        OSError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - e.g. RecursionError: one line, not a traceback
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
