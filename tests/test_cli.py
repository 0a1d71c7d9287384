import contextlib
import dataclasses
import gc
import io
import json
import re
import tempfile
import weakref
from pathlib import Path

import numpy as np
import pytest
from conftest import CORPUS_DIR, mutated_texts, single_class_fold_metadb
from hypothesis import event, given, settings, strategies as st

import preprank.forest as forest_mod
import preprank.metadb as metadb_mod
import preprank.openml as openml_mod
import preprank.ranker as ranker_mod
from preprank.cli import COMMANDS, build_parser, main

SMALL = ["syn00", "syn01", "syn06", "syn12"]


@pytest.fixture(scope="module")
def small_manifest(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("manifest")
    lines = [str(CORPUS_DIR / "mini" / f"{name}.arff") for name in SMALL]
    path = tmp / "small.manifest"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory, small_manifest):
    """metadb + model built once through the real CLI."""
    out = tmp_path_factory.mktemp("pipeline")
    db_path = out / "tree.metadb.tsv"
    model_path = out / "tree.model.json"
    assert main([
        "build-metadb",
        "--datasets", str(small_manifest),
        "--algorithm", "tree",
        "--seed", "42",
        "--out", str(db_path),
    ]) == 0
    assert main([
        "train",
        "--metadb", str(db_path),
        "--trees", "15",
        "--seed", "42",
        "--out", str(model_path),
    ]) == 0
    return db_path, model_path


def test_featurize_prints_61_lines(capsys):
    code = main(["featurize", str(CORPUS_DIR / "mini" / "syn00.arff")])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 61
    assert lines[0].startswith("NumberOfContinuousAttributes\t")
    assert any(line.endswith("\tNA") for line in lines)  # no categorical predictors


def test_featurize_deterministic(capsys):
    main(["featurize", str(CORPUS_DIR / "mini" / "syn12.arff")])
    first = capsys.readouterr().out
    main(["featurize", str(CORPUS_DIR / "mini" / "syn12.arff")])
    assert capsys.readouterr().out == first


def test_featurize_missing_file(capsys):
    code = main(["featurize", "no-such-file.arff"])
    captured = capsys.readouterr()
    assert code != 0
    assert "error" in captured.err


def test_featurize_csv_input(tmp_path, capsys):
    csv = tmp_path / "d.csv"
    csv.write_text("x,class\n1,a\n2,b\n3,a\n4,b\n", encoding="utf-8")
    assert main(["featurize", str(csv)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 61


def test_featurize_csv_class_column_by_name(tmp_path, capsys):
    csv = tmp_path / "d.csv"
    csv.write_text("cls,x\na,1\nb,2\na,3\nb,4\n", encoding="utf-8")
    assert main(["featurize", str(csv), "--class-column", "cls"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert "NumberOfContinuousAttributes\t1.0" in lines
    assert "NumberOfClasses\t2.0" in lines


def test_featurize_csv_class_column_index_exits_2(tmp_path, capsys):
    csv = tmp_path / "d.csv"
    csv.write_text("cls,x\na,1\nb,2\na,3\nb,4\n", encoding="utf-8")
    assert main(["featurize", str(csv), "--class-column", "0"]) == 2
    captured = capsys.readouterr()
    errors = [line for line in captured.err.splitlines() if line.startswith("error:")]
    assert errors == ["error: missing class column '0'"]
    assert captured.out == "" and "Traceback" not in captured.err


ARFF = str(CORPUS_DIR / "mini" / "syn00.arff")


@pytest.mark.parametrize(
    "argv",
    [
        ["featurize", ARFF],
        ["recommend", "--dataset", ARFF, "--algorithm", "tree", "--model", "unused.json"],
    ],
)
def test_class_column_on_arff_exits_2_with_one_line(argv, capsys):
    code = main([*argv, "--class-column", "foo"])
    captured = capsys.readouterr()
    assert code == 2
    errors = [line for line in captured.err.splitlines() if line.startswith("error:")]
    assert errors == ["error: --class-column applies to .csv files only"]
    assert captured.out == "" and "Traceback" not in captured.err


def test_recommend_top_1(pipeline, capsys):
    _, model_path = pipeline
    code = main([
        "recommend",
        "--dataset", str(CORPUS_DIR / "mini" / "syn06.arff"),
        "--algorithm", "tree",
        "--model", str(model_path),
        "--top", "1",
        "--seed", "42",
    ])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("# preprank recommend")
    assert lines[1].startswith("rank\t")
    assert len(lines) == 3  # config + header + exactly one row
    assert lines[2].startswith("1\t")


def test_recommend_excludes_pruned_kinds(pipeline, capsys):
    _, model_path = pipeline
    main([
        "recommend",
        "--dataset", str(CORPUS_DIR / "mini" / "syn06.arff"),
        "--algorithm", "tree",
        "--model", str(model_path),
        "--seed", "42",
    ])
    out = capsys.readouterr().out
    assert "normalize" not in out and "standardize" not in out
    assert "discretize" in out


def test_recommend_custom_rules_file(pipeline, tmp_path, capsys):
    _, model_path = pipeline
    rules = tmp_path / "rules.txt"
    rules.write_text("exclude any pca  # too fragile here\n", encoding="utf-8")
    main([
        "recommend",
        "--dataset", str(CORPUS_DIR / "mini" / "syn06.arff"),
        "--algorithm", "tree",
        "--model", str(model_path),
        "--rules", str(rules),
        "--seed", "42",
    ])
    out = capsys.readouterr().out
    assert "pca" not in out
    assert "normalize(global)" in out  # default scaling rules replaced


def _recommend(model_path):
    return main([
        "recommend",
        "--dataset", str(CORPUS_DIR / "mini" / "syn06.arff"),
        "--algorithm", "tree",
        "--model", str(model_path),
    ])


@pytest.fixture
def gc_state():
    """The collector's state and thresholds, put back after the test."""
    was, thresholds = gc.isenabled(), gc.get_threshold()
    yield
    gc.set_threshold(*thresholds)
    gc.enable() if was else gc.disable()


@pytest.mark.parametrize("enabled", [True, False])
def test_recommend_restores_the_callers_gc_state(pipeline, tmp_path, capsys, gc_state, enabled):
    _, model_path = pipeline
    damaged = tmp_path / "damaged.json"
    damaged.write_text(model_path.read_text(encoding="utf-8")[:-20], encoding="utf-8")
    for path, code in ((model_path, 0), (damaged, 2)):
        gc.enable() if enabled else gc.disable()
        assert _recommend(path) == code
        assert gc.isenabled() is enabled
    assert "\nerror: malformed model file: " in capsys.readouterr().err


def _collections(run):
    """The generation of each collection that starts while ``run()`` runs."""
    started = []

    def record(phase, info):
        if phase == "start":
            started.append(info["generation"])

    gc.callbacks.append(record)
    try:
        run()
    finally:
        gc.callbacks.remove(record)
    return started


def test_a_recommend_request_runs_no_collection(pipeline, gc_state):
    # loading the model makes ~1k containers per 15 trees, and none of them is ever rescanned
    _, model_path = pipeline
    gc.enable()
    gc.collect()
    assert _collections(lambda: _recommend(model_path)) == []


def test_no_collection_runs_while_recommend_holds_the_model(pipeline, monkeypatch, gc_state):
    _, model_path = pipeline
    load, held, during = forest_mod.load_model, [], []

    def load_model(path):
        model = load(path)
        held.append(weakref.ref(model))
        return model

    def record(phase, info):
        if phase == "start" and held and held[0]() is not None:
            during.append(info["generation"])

    monkeypatch.setattr(forest_mod, "load_model", load_model)
    gc.enable()
    gc.set_threshold(1)  # a collection at almost every allocation while the collector is on
    gc.callbacks.append(record)
    try:
        outside = _collections(lambda: _recommend(model_path))
    finally:
        gc.callbacks.remove(record)
    assert len(held) == 1 and held[0]() is None
    assert during == [] and len(outside) > 100


def _parsed(parse, argv):
    """What ``parse(argv)`` returns or exits with, and what it writes."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = vars(parse(argv))
        except SystemExit as exc:
            result = exc.code
    return result, out.getvalue(), err.getvalue()


#: argv that argparse answers with help, usage or an error, exiting
EXITING_ARGV = [
    [], ["-h"], ["--help"], ["--bogus"], ["bogus"], ["bogus", "--help"], ["-h", "recommend"],
    *([command, "--help"] for command in COMMANDS),
    *([command] for command in COMMANDS),
    ["recommend", "--bogus"],
    ["recommend", "--dataset", "d.arff", "--algorithm", "tree", "--model", "m.json", "extra"],
    ["train", "--metadb", "db.tsv", "--out", "m.json", "--trees", "many"],
    ["build-metadb", "--datasets", "m", "--algorithm", "tree", "--out", "o", "--measure", "x"],
    ["featurize", "a.arff", "b.arff"],
    ["--", "train", "--metadb", "db.tsv", "--out", "m.json"],
]
PARSED_ARGV = [
    ["featurize", "a.csv", "--class-column", "label"],
    ["impact-scan", "--datasets", "m", "--algorithm", "tree", "--algorithm", "nb", "--out", "o"],
    ["build-metadb", "--datasets", "m", "--algorithm", "knn:1", "--out", "o", "--jobs", "2",
     "--allow-partial", "--measure", "auc", "--cache", "c"],
    ["train", "--metadb", "db.tsv", "--out", "m.json", "--trees", "7", "--seed", "3"],
    ["recommend", "--dataset", "d.arff", "--algorithm", "tree", "--model", "m.json",
     "--rules", "r.txt", "--top", "2", "--seed", "5", "--class-column", "c"],
    ["evaluate", "--metadb", "db.tsv", "--out", "reports", "--trees", "5", "--top", "3"],
]


@pytest.mark.parametrize("argv", EXITING_ARGV)
def test_main_answers_help_usage_and_errors_as_the_full_parser(argv):
    full = _parsed(build_parser().parse_args, argv)
    assert full[0] in (0, 2)
    assert _parsed(main, argv) == full


@pytest.mark.parametrize("argv", PARSED_ARGV)
def test_the_parser_of_one_command_parses_as_the_full_parser(argv):
    command = argv[0]
    full = _parsed(build_parser().parse_args, argv)
    assert isinstance(full[0], dict) and full[0]["command"] == command
    assert _parsed(build_parser(command).parse_args, argv) == full
    for other in COMMANDS:  # it holds no other command
        if other != command:
            assert _parsed(build_parser(command).parse_args, [other, "--help"])[0] == 2


def test_evaluate_report_suite(pipeline, tmp_path):
    db_path, _ = pipeline
    out_dir = tmp_path / "reports"
    code = main([
        "evaluate",
        "--metadb", str(db_path),
        "--trees", "15",
        "--seed", "42",
        "--out", str(out_dir),
    ])
    assert code == 0
    summary = (out_dir / "summary.txt").read_text()
    for token in ("mean_PA", "mean_Pr", "mean_OR", "mean_G", "mean_nDCG", "confusion"):
        assert token in summary
    for name in (
        "lk_matrix.tsv",
        "significance.tsv",
        "ndcg.tsv",
        "measures.tsv",
        "distribution.tsv",
    ):
        assert (out_dir / name).exists()
        assert (out_dir / name).read_text().startswith("# preprank evaluate")
    for path in out_dir.iterdir():
        assert "np." not in path.read_text(), path.name  # no NumPy scalar repr in a report


def test_evaluate_survives_single_class_fold(tmp_path):
    db_path = tmp_path / "db.tsv"
    metadb_mod.save(single_class_fold_metadb(), db_path)
    out_dir = tmp_path / "reports"
    args = ["evaluate", "--metadb", str(db_path), "--trees", "5", "--seed", "1"]
    assert main(args + ["--out", str(out_dir)]) == 0
    summary = (out_dir / "summary.txt").read_text().splitlines()
    assert summary[-1].startswith("single_class_folds\tds00 (")
    assert (out_dir / "measures.tsv").read_text().count("\nds0") == 4


def test_evaluate_summary_has_no_single_class_line_normally(pipeline, tmp_path):
    db_path, _ = pipeline
    out_dir = tmp_path / "reports"
    args = ["evaluate", "--metadb", str(db_path), "--trees", "3", "--seed", "1"]
    assert main(args + ["--out", str(out_dir)]) == 0
    summary = (out_dir / "summary.txt").read_text()
    assert "single_class_folds" not in summary and "skipped_datasets" not in summary


def test_evaluate_deterministic(pipeline, tmp_path):
    db_path, _ = pipeline
    a = tmp_path / "a"
    b = tmp_path / "b"
    for out in (a, b):
        assert main([
            "evaluate",
            "--metadb", str(db_path),
            "--trees", "10",
            "--seed", "7",
            "--out", str(out),
        ]) == 0
    for name in ("summary.txt", "measures.tsv", "lk_matrix.tsv", "significance.tsv", "ndcg.tsv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_impact_scan_writes_per_algorithm_reports(small_manifest, tmp_path):
    out_dir = tmp_path / "impact"
    code = main([
        "impact-scan",
        "--datasets", str(small_manifest),
        "--algorithm", "tree",
        "--algorithm", "nb",
        "--seed", "42",
        "--out", str(out_dir),
    ])
    assert code == 0
    tree_report = (out_dir / "impact_tree.tsv").read_text()
    nb_report = (out_dir / "impact_nb.tsv").read_text()
    assert tree_report != nb_report
    # scaling cannot move a decision tree: its rows are all zero-impact
    norm_row = [l for l in tree_report.splitlines() if l.startswith("normalize\t")]
    assert norm_row and "\t100.0\t" in norm_row[0]


def test_partial_failure_exit_codes(tmp_path, capsys):
    manifest = tmp_path / "broken.manifest"
    manifest.write_text(
        f"{CORPUS_DIR / 'mini' / 'syn00.arff'}\nmissing.arff\n", encoding="utf-8"
    )
    args = [
        "build-metadb",
        "--datasets", str(manifest),
        "--algorithm", "nb",
        "--seed", "1",
        "--out", str(tmp_path / "db.tsv"),
    ]
    assert main(args) == 1
    assert main(args + ["--allow-partial"]) == 0


def test_a_manifest_line_of_non_ascii_digits_is_a_missing_path(tmp_path, capsys):
    # "²".isdigit() is true, but int("²") raises: the line is a path, and one failed entry
    manifest = tmp_path / "digits.manifest"
    manifest.write_text(f"²\n{CORPUS_DIR / 'mini' / 'syn00.arff'}\n", encoding="utf-8")
    args = [
        "build-metadb",
        "--datasets", str(manifest),
        "--algorithm", "nb",
        "--seed", "1",
        "--out", str(tmp_path / "db.tsv"),
    ]
    assert main(args) == 1
    err = capsys.readouterr().err
    assert f"failed: {tmp_path / '²'}: FileNotFoundError: " in err
    assert main(args + ["--allow-partial"]) == 0
    assert "5 rows over 1 datasets" in capsys.readouterr().err


def test_a_manifest_path_holding_a_line_feed_builds_a_metadb_that_trains(tmp_path):
    # the path goes into the metadb's config comment, which must stay one line
    manifest = tmp_path / "lf\ndir" / "small.manifest"
    manifest.parent.mkdir()
    manifest.write_text(f"{CORPUS_DIR / 'mini' / 'syn00.arff'}\n", encoding="utf-8")
    db_path = tmp_path / "db.tsv"
    assert main([
        "build-metadb", "--datasets", str(manifest), "--algorithm", "nb", "--seed", "1",
        "--out", str(db_path),
    ]) == 0
    assert f"datasets={tmp_path / 'lf dir' / 'small.manifest'}" in db_path.read_text("utf-8")
    assert main([
        "train", "--metadb", str(db_path), "--trees", "3", "--seed", "1",
        "--out", str(tmp_path / "model.json"),
    ]) == 0


@pytest.fixture
def failing_syn01(monkeypatch):
    """Makes measuring syn01 raise inside ``build_metadb``."""
    real = metadb_mod.compute_meta_features

    def compute(catalog):
        catalog = list(catalog)  # a generator in _dataset_rows
        if catalog[0].name == "syn01":
            raise ArithmeticError("no meta-features for syn01")
        return real(catalog)

    monkeypatch.setattr(metadb_mod, "compute_meta_features", compute)


def _syn01_frame():
    """`` [metadb.py:line]``: where ``_dataset_rows`` calls the patched ``compute_meta_features``."""
    path = Path(metadb_mod.__file__)
    [lineno] = [
        i for i, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1)
        if "mfs = compute_meta_features(catalog())" in line
    ]
    return f" [{path.name}:{lineno}]"


def test_build_metadb_reports_failure_reason(small_manifest, tmp_path, capsys, failing_syn01):
    args = [
        "build-metadb",
        "--datasets", str(small_manifest),
        "--algorithm", "nb",
        "--seed", "1",
        "--out", str(tmp_path / "db.tsv"),
    ]
    assert main(args) == 1
    err = capsys.readouterr().err
    assert f"failed: syn01: ArithmeticError: no meta-features for syn01{_syn01_frame()}\n" in err
    assert main(args + ["--allow-partial"]) == 0


def test_a_skipped_dataset_is_kept_in_the_metadb_and_named_by_evaluate(
    small_manifest, tmp_path, failing_syn01
):
    db_path, out_dir = tmp_path / "db.tsv", tmp_path / "reports"
    assert main([
        "build-metadb", "--datasets", str(small_manifest), "--algorithm", "nb", "--seed", "1",
        "--allow-partial", "--out", str(db_path),
    ]) == 0
    reason = f"ArithmeticError: no meta-features for syn01{_syn01_frame()}"
    assert metadb_mod.load(db_path).skipped == (("syn01", reason),)
    assert main([
        "evaluate", "--metadb", str(db_path), "--trees", "3", "--seed", "1", "--out", str(out_dir)
    ]) == 0
    summary = (out_dir / "summary.txt").read_text(encoding="utf-8").splitlines()
    assert summary[-1] == f"skipped_datasets\tsyn01: {reason}"


def test_impact_scan_reports_failure_reason(small_manifest, tmp_path, capsys, failing_syn01):
    args = [
        "impact-scan",
        "--datasets", str(small_manifest),
        "--algorithm", "tree",
        "--algorithm", "nb",
        "--seed", "1",
        "--out", str(tmp_path / "impact"),
    ]
    assert main(args) == 1
    failed = [line for line in capsys.readouterr().err.splitlines() if line.startswith("failed:")]
    # one line per learner the dataset failed under, not only the last learner's
    assert failed == [
        f"failed: syn01: ArithmeticError: no meta-features for syn01{_syn01_frame()} ({learner})"
        for learner in ("tree", "nb")
    ]


def test_train_writes_finite_thresholds_between_values_whose_sum_overflows(
    tree_metadb, tmp_path
):
    rows = []
    for i, row in enumerate(tree_metadb.rows):
        features = row.features.copy()
        features[0] = 1e308 if i % 2 else 1.5e308  # finite cells whose sum is not
        rows.append(dataclasses.replace(row, features=features))
    db_path, model_path = tmp_path / "big.metadb.tsv", tmp_path / "big.model.json"
    metadb_mod.save(dataclasses.replace(tree_metadb, rows=tuple(rows)), db_path)
    assert main([
        "train", "--metadb", str(db_path), "--trees", "20", "--seed", "7",
        "--out", str(model_path),
    ]) == 0
    text = model_path.read_text(encoding="utf-8")
    assert '"t": 1.25e+308' in text
    assert "NaN" not in text and "Infinity" not in text


def test_train_rejects_bad_metadb(tmp_path, capsys):
    bad = tmp_path / "bad.tsv"
    bad.write_text("nonsense\n", encoding="utf-8")
    code = main([
        "train", "--metadb", str(bad), "--trees", "5", "--seed", "1",
        "--out", str(tmp_path / "m.json"),
    ])
    assert code == 2


@pytest.mark.parametrize("command", ["train", "evaluate"])
def test_zero_trees_exit_2_with_one_line(pipeline, tmp_path, capsys, command):
    db_path, _ = pipeline
    code = main([
        command, "--metadb", str(db_path), "--trees", "0", "--seed", "1",
        "--out", str(tmp_path / "out"),
    ])
    err = capsys.readouterr().err
    assert code == 2
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert errors == ["error: a forest needs at least one tree, got 0"]
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "command, flag, value",
    [
        ("recommend", "--top", "-1"),
        ("recommend", "--top", "0"),
        ("evaluate", "--top", "-3"),
        ("evaluate", "--top", "0"),
        ("build-metadb", "--jobs", "0"),
        ("impact-scan", "--jobs", "-2"),
    ],
)
def test_counts_below_one_exit_2_with_one_line(
    pipeline, small_manifest, tmp_path, capsys, command, flag, value
):
    db_path, model_path = pipeline
    argv = {
        "recommend": ["--dataset", str(CORPUS_DIR / "mini" / "syn06.arff"),
                      "--algorithm", "tree", "--model", str(model_path)],
        "evaluate": ["--metadb", str(db_path), "--trees", "3", "--out", str(tmp_path / "out")],
        "build-metadb": ["--datasets", str(small_manifest), "--algorithm", "tree",
                         "--out", str(tmp_path / "out")],
        "impact-scan": ["--datasets", str(small_manifest), "--algorithm", "tree",
                        "--out", str(tmp_path / "out")],
    }[command]
    code = main([command, *argv, flag, value])
    captured = capsys.readouterr()
    assert code == 2
    errors = [line for line in captured.err.splitlines() if line.startswith("error:")]
    assert errors == [f"error: {flag} must be at least 1, got {value}"]
    assert captured.out == ""
    assert not (tmp_path / "out").exists()


def _raise(exc):
    def fail(*args, **kwargs):
        raise exc

    return fail


def test_recommend_unexpected_error_exits_2_with_one_line(pipeline, monkeypatch, capsys):
    _, model_path = pipeline
    monkeypatch.setattr(ranker_mod, "rank_transformations", _raise(RuntimeError("ranker broke")))
    code = main([
        "recommend",
        "--dataset", str(CORPUS_DIR / "mini" / "syn06.arff"),
        "--algorithm", "tree",
        "--model", str(model_path),
        "--seed", "42",
    ])
    err = capsys.readouterr().err
    assert code == 2
    assert "error: RuntimeError: ranker broke\n" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("exc", [RuntimeError("build broke"), RecursionError("too deep")])
def test_build_metadb_unexpected_error_exits_2_with_one_line(
    small_manifest, tmp_path, monkeypatch, capsys, exc
):
    monkeypatch.setattr(metadb_mod, "build_metadb", _raise(exc))
    code = main([
        "build-metadb",
        "--datasets", str(small_manifest),
        "--algorithm", "nb",
        "--seed", "1",
        "--out", str(tmp_path / "db.tsv"),
    ])
    err = capsys.readouterr().err
    assert code == 2
    assert f"error: {type(exc).__name__}: {exc}\n" in err
    assert "Traceback" not in err
    assert not (tmp_path / "db.tsv").exists()


def test_keyboard_interrupt_is_not_caught(small_manifest, tmp_path, monkeypatch):
    monkeypatch.setattr(metadb_mod, "build_metadb", _raise(KeyboardInterrupt()))
    with pytest.raises(KeyboardInterrupt):
        main([
            "build-metadb",
            "--datasets", str(small_manifest),
            "--algorithm", "nb",
            "--seed", "1",
            "--out", str(tmp_path / "db.tsv"),
        ])


def test_recommend_with_a_malformed_model_node_names_the_tree(pipeline, tmp_path, capsys):
    _, model_path = pipeline
    doc = json.loads(model_path.read_text(encoding="utf-8"))
    del doc["trees"][0]["l"], doc["trees"][0]["r"]  # the root splits: every walk fails
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps(doc), encoding="utf-8")
    code = main([
        "recommend",
        "--dataset", str(CORPUS_DIR / "mini" / "syn06.arff"),
        "--algorithm", "tree",
        "--model", str(broken),
    ])
    [line] = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error:")]
    assert code == 2
    assert line.startswith("error: tree 0 of the model is malformed: ")
    assert "Error" not in line


# --- mutated input files through the CLI: an exit code and typed errors only ----------

#: the line ``main`` prints for an exception it has no type for
UNTYPED_ERROR = re.compile(r"^error: [A-Z]\w*Error: ", re.MULTILINE)
HEADS, BODIES = zip(*(
    p.read_text(encoding="utf-8").split("@data\n", 1)
    for p in sorted((CORPUS_DIR / "mini").glob("*.arff"))
))
HEADER_TOKENS = ("'", '"', "{", "}", ",", "%", "@", " ", "\t", "\\", "?", "numeric", "string",
                 "date", "{a,b}", "{}", "@attribute x numeric", "@relation", "@data", "@end")
RULES = "exclude any pca  # keep it for experts\nexclude nb discretize_unsup\n\n# the end"
RULE_TOKENS = ("exclude ", "any ", "tree", "nb", "knn", "knn:3", "logistic", "pca", "normalize",
               "#", " ", "\t", "\r", "\x0b", "\x85", "\ufeff", "\x00", "'", "é")
MANIFEST = "# corpus\n{mini}/syn00.arff\n{mini}/syn06.arff"
MANIFEST_TOKENS = ("#", " ", "61", "0", "-1", "\u00b2", "\uff11", "1.5", "\x00", "\ufeff", "~",
                   "/", "..", "mini/syn00.arff", "{mini}/syn12.arff", "9" * 30, "a" * 300)


def _run_cli(argv):
    """Run ``main(argv)``: it exits 0, 1 or 2 and prints no untyped error line."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    assert not UNTYPED_ERROR.search(err.getvalue()), err.getvalue()
    return code


@st.composite
def mutated_arff_headers(draw):
    """A mini-corpus ARFF text whose header lines, and only those, are mutated."""
    i = draw(st.integers(0, len(HEADS) - 1))
    return draw(mutated_texts([HEADS[i] + "@data"], HEADER_TOKENS)) + "\n" + BODIES[i]


@settings(max_examples=150, deadline=None)
@given(mutated_arff_headers())
def test_mutated_arff_headers_through_featurize(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "mutated.arff")
        path.write_text(text, encoding="utf-8")
        _run_cli(["featurize", str(path)])


@settings(max_examples=60, deadline=None)
@given(mutated_texts([RULES], RULE_TOKENS))
def test_mutated_rules_through_recommend(pipeline, text):
    _, model_path = pipeline
    with tempfile.TemporaryDirectory() as tmp:
        rules = Path(tmp, "rules.txt")
        rules.write_text(text, encoding="utf-8")
        _run_cli(["recommend", "--dataset", str(CORPUS_DIR / "mini" / "syn00.arff"),
                  "--algorithm", "tree", "--model", str(model_path), "--rules", str(rules)])


#: a mini-corpus ARFF text per file, its data rows written sparse: ``{index value, ...}``
SPARSE_TEXTS = [
    head + "@data\n" + "\n".join(
        "{" + ", ".join(f"{i} {v}" for i, v in enumerate(row.split(","))) + "}" if row else row
        for row in body.split("\n")
    )
    for head, body in zip(HEADS, BODIES)
]
SPARSE_TOKENS = ("{", "}", ",", " ", "\t", "0", "1", "-1", "99", "?", "'", "%", "{}", "c0", "0 0")
METADB_TOKENS = ("\t", " ", "#", "-", "+", "e", "_", "?", "é", "\r", "\x00", "nan", "inf",
                 "1e999", "0x1p3", "positive", "negative", "neutral", "schema_version=")


@settings(max_examples=150, deadline=None)
@given(mutated_texts(SPARSE_TEXTS, SPARSE_TOKENS))
def test_mutated_sparse_arff_rows_through_featurize(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "sparse.arff")
        path.write_text(text, encoding="utf-8")
        event(f"featurize exits {_run_cli(['featurize', str(path)])}")


@pytest.fixture(scope="module")
def metadb_text(pipeline):
    return pipeline[0].read_text(encoding="utf-8")


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_mutated_metadb_cells_through_train_and_evaluate(metadb_text, data):
    text = data.draw(mutated_texts([metadb_text], METADB_TOKENS))
    with tempfile.TemporaryDirectory() as tmp:
        db = Path(tmp, "db.tsv")
        db.write_text(text, encoding="utf-8")
        common = ["--metadb", str(db), "--trees", "3", "--seed", "1"]
        event(f"train exits {_run_cli(['train', *common, '--out', str(Path(tmp, 'model.json'))])}")
        event(f"evaluate exits {_run_cli(['evaluate', *common, '--out', str(Path(tmp, 'out'))])}")


def _offline(url):
    raise openml_mod.OpenMLError(f"cannot reach {url}: offline")


@settings(max_examples=60, deadline=None)
@given(mutated_texts([MANIFEST], MANIFEST_TOKENS))
def test_mutated_manifest_entries_through_build_metadb(text):
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        mp.setattr(openml_mod, "_default_fetch", _offline)  # an id entry fails, offline
        manifest = Path(tmp, "corpus.manifest")
        manifest.write_text(text.replace("{mini}", str(CORPUS_DIR / "mini")), encoding="utf-8")
        _run_cli(["build-metadb", "--datasets", str(manifest), "--algorithm", "nb",
                  "--cache", str(Path(tmp, "cache")), "--out", str(Path(tmp, "db.tsv"))])
