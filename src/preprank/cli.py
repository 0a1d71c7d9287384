"""Command-line surface: featurize, impact-scan, build-metadb, train,
recommend, evaluate.

Every command is deterministic given its flags and seed; output files embed
the resolved configuration in a leading comment so runs are reproducible.
"""

from __future__ import annotations

import argparse
import logging
import math
import sys
from pathlib import Path

from . import evaluation, forest, metadb, openml, ranker
from .classifiers import MEASURES, parse_classifier
from .dataset import DatasetError, load_dataset_file
from .metafeatures import FEATURE_IDS, compute_meta_features

DEFAULT_SEED = 42


def _config_line(command: str, args: argparse.Namespace, keys) -> str:
    parts = [f"{key}={getattr(args, key)}" for key in sorted(keys)]
    return f"# preprank {command} " + " ".join(parts)


def _fmt(value) -> str:
    if value is None:
        return "NA"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write(path: Path, lines) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _load_corpus(args) -> openml.CorpusResult:
    manifest = openml.read_manifest(args.datasets)
    cache = args.cache or openml.default_cache_dir()
    return openml.load_corpus(manifest, cache)


def _alg_slug(name: str) -> str:
    return name.replace(":", "")


# --- commands ----------------------------------------------------------------


def cmd_featurize(args) -> int:
    ds = load_dataset_file(args.dataset, class_column=args.class_column)
    values = compute_meta_features(ds).values.tolist()
    for fid, value in zip(FEATURE_IDS, values):
        print(f"{fid}\t{'NA' if math.isnan(value) else repr(value)}")
    return 0


def _distribution_lines(db, header: str) -> list[str]:
    lines = [header, "group\tn\tpct_positive\tpct_negative\tpct_zero\tdistance\trgb"]
    for group_by in (evaluation.GROUP_BY_ALGORITHM, evaluation.GROUP_BY_KIND):
        for rec in evaluation.impact_distribution(db, group_by):
            rgb = f"{rec.rgb[0]},{rec.rgb[1]},{rec.rgb[2]}"
            lines.append(
                f"{rec.group}\t{rec.n_rows}\t{_fmt(rec.pct_positive)}\t"
                f"{_fmt(rec.pct_negative)}\t{_fmt(rec.pct_zero)}\t"
                f"{_fmt(rec.distance)}\t{rgb}"
            )
    return lines


def cmd_impact_scan(args) -> int:
    corpus = _load_corpus(args)
    out_dir = Path(args.out)
    header = _config_line(
        "impact-scan", args, ["datasets", "measure", "seed", "jobs"]
    )
    skipped: dict[str, str] = {}
    for name in args.algorithm:
        kind = parse_classifier(name)
        db = metadb.build_metadb(
            corpus.datasets, kind, args.measure, args.seed, jobs=args.jobs
        )
        for name, reason in db.skipped:
            skipped[name] = f"{reason} ({kind.name})"
        lines = _distribution_lines(db, header + f" algorithm={kind.name}")
        _write(out_dir / f"impact_{_alg_slug(kind.name)}.tsv", lines)
        print(f"wrote impact report for {kind.name}", file=sys.stderr)
    return _failures_exit(args, tuple(corpus.failures) + tuple(skipped.items()))


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
    model = forest.load_model(args.model)
    rules = ranker.load_rules(args.rules) if args.rules else ranker.DEFAULT_RULES
    recommendations = ranker.rank_transformations(model, rules, kind, ds, args.seed)
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

    measure_lines = [header, "dataset\tPA\tPr\tOR\tG"]
    for record in records:
        m = evaluation.dataset_measures(record)
        measure_lines.append(
            f"{record.dataset_name}\t{_fmt(m.pa)}\t{_fmt(m.pr)}\t"
            f"{_fmt(m.overall_recall)}\t{_fmt(m.g)}"
        )
    _write(out_dir / "measures.tsv", measure_lines)

    lk_lines = [header, "L\tK\taccuracy\tmean_ratio\tsuccesses\ttrials\tdatasets"]
    for (l_real, k), cell in matrix.cells.items():
        lk_lines.append(
            f"{l_real}\t{k}\t{_fmt(cell.accuracy)}\t{_fmt(cell.mean_ratio)}\t"
            f"{cell.successes}\t{cell.trials}\t{cell.dataset_count}"
        )
    lk_lines.append("")
    lk_lines.append("K\tweighted_average")
    for k, value in sorted(matrix.weighted_average.items()):
        lk_lines.append(f"{k}\t{_fmt(value)}")
    _write(out_dir / "lk_matrix.tsv", lk_lines)

    sig_lines = [
        header,
        "L\tK\taccuracy\trandom\tsuccesses\ttrials\tp_value\tsignificant",
    ]
    for (l_real, k), cell in significance.items():
        sig_lines.append(
            f"{l_real}\t{k}\t{_fmt(cell.accuracy)}\t{_fmt(cell.random_probability)}\t"
            f"{cell.successes}\t{cell.trials}\t{_fmt(cell.p_value)}\t"
            f"{'yes' if cell.significant else 'no'}"
        )
    _write(out_dir / "significance.tsv", sig_lines)

    ndcg_lines = [
        header,
        "algorithm\tndcg_all\tndcg_top\tdatasets_considered",
        f"{db.algorithm.name}\t{_fmt(gains.mean_ndcg)}\t{_fmt(gains.mean_ndcg_top)}\t"
        f"{gains.considered}",
        "",
        "dataset\tdcg_recommended\tdcg_best\tdcg_worst\tndcg\tndcg_top",
    ]
    for row in gains.rows:
        ndcg_lines.append(
            f"{row.dataset_name}\t{_fmt(row.dcg_recommended)}\t{_fmt(row.dcg_best)}\t"
            f"{_fmt(row.dcg_worst)}\t{_fmt(row.ndcg)}\t{_fmt(row.ndcg_top)}"
        )
    _write(out_dir / "ndcg.tsv", ndcg_lines)
    _write(out_dir / "distribution.tsv", _distribution_lines(db, header))

    summary = [
        header,
        f"algorithm\t{db.algorithm.name}",
        f"measure\t{db.measure}",
        f"datasets\t{len(records)}",
        f"meta_instances\t{len(db.rows)}",
        f"positive_rate\t{_fmt(rate)}",
        f"mean_PA\t{_fmt(corpus_m.pa)} (over {corpus_m.counts['pa']} datasets)",
        f"mean_Pr\t{_fmt(corpus_m.pr)} (over {corpus_m.counts['pr']} datasets)",
        f"mean_OR\t{_fmt(corpus_m.overall_recall)} "
        f"(over {corpus_m.counts['overall_recall']} datasets)",
        f"mean_G\t{_fmt(corpus_m.g)} (over {corpus_m.counts['g']} datasets)",
        f"mean_nDCG\t{_fmt(gains.mean_ndcg)}",
        f"mean_nDCG_top{gains.top_k}\t{_fmt(gains.mean_ndcg_top)}",
        "confusion\tTP={0} FP_N={1} FP_0={2} FN_P={3} TN={4} FN_0={5} "
        "F0_P={6} F0_N={7} T0={8}".format(
            *[
                _fmt(getattr(confusion, f))
                for f in (
                    "TP",
                    "FP_N",
                    "FP_0",
                    "FN_P",
                    "TN",
                    "FN_0",
                    "F0_P",
                    "F0_N",
                    "T0",
                )
            ]
        ),
    ]
    single = [f.dataset_name for f in report.per_dataset if f.single_class]
    if single:
        summary.append(
            f"single_class_folds\t{','.join(single)} (training fold held one "
            "response class; predicted with probability 1)"
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


def _add_corpus_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--datasets", required=True, help="manifest of ids/paths")
    p.add_argument("--cache", default=None, help="dataset cache directory")
    p.add_argument("--jobs", type=int, default=1, help="parallel workers")
    p.add_argument(
        "--allow-partial",
        action="store_true",
        help="exit 0 even when some datasets fail",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="preprank",
        description="Rank data pre-processing operators by predicted impact",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("featurize", help="print a dataset's characteristics")
    p.add_argument("dataset")
    p.add_argument("--class-column", default=None)
    p.set_defaults(fn=cmd_featurize)

    p = sub.add_parser("impact-scan", help="measure per-operator impact shares")
    _add_corpus_flags(p)
    p.add_argument("--algorithm", action="append", required=True)
    p.add_argument("--measure", choices=MEASURES, default="acc")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_impact_scan)

    p = sub.add_parser("build-metadb", help="measure transformations over a corpus")
    _add_corpus_flags(p)
    p.add_argument("--algorithm", required=True)
    p.add_argument("--measure", choices=MEASURES, default="acc")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_build_metadb)

    p = sub.add_parser("train", help="train the forest meta-model")
    p.add_argument("--metadb", required=True)
    p.add_argument("--trees", type=int, default=forest.DEFAULT_TREES)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("recommend", help="rank transformations for one dataset")
    p.add_argument("--dataset", required=True)
    p.add_argument("--algorithm", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--rules", default=None)
    p.add_argument("--top", type=int, default=None)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--class-column", default=None)
    p.set_defaults(fn=cmd_recommend)

    p = sub.add_parser("evaluate", help="leave-one-dataset-out report suite")
    p.add_argument("--metadb", required=True)
    p.add_argument("--trees", type=int, default=forest.DEFAULT_TREES)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--top", type=int, default=1)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_evaluate)

    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, stream=sys.stderr, format="%(message)s")
    args = build_parser().parse_args(argv)
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
