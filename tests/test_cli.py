import pytest
from conftest import CORPUS_DIR, single_class_fold_metadb

import preprank.metadb as metadb_mod
import preprank.ranker as ranker_mod
from preprank.cli import main

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
    assert "single_class_folds" not in (out_dir / "summary.txt").read_text()


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


@pytest.fixture
def failing_syn01(monkeypatch):
    """Makes measuring syn01 raise inside ``build_metadb``."""
    real = metadb_mod.compute_meta_features

    def compute(ds):
        if ds.name == "syn01":
            raise ArithmeticError("no meta-features for syn01")
        return real(ds)

    monkeypatch.setattr(metadb_mod, "compute_meta_features", compute)


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
    assert "failed: syn01: ArithmeticError: no meta-features for syn01\n" in err
    assert main(args + ["--allow-partial"]) == 0


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
        f"failed: syn01: ArithmeticError: no meta-features for syn01 ({learner})"
        for learner in ("tree", "nb")
    ]


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
