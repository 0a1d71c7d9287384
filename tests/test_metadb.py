import re

import numpy as np
import pytest
from conftest import distinct_columns

from preprank.classifiers import CV_RUNS, TREE, cross_validate, knn
from preprank.cli import main
from preprank.dataset import serialize_arff
from preprank.metadb import (
    FEATURE_COLUMNS,
    MetaDatabase,
    MetaDbError,
    MetaInstance,
    build_metadb,
    feature_matrix,
    label_response,
    load,
    save,
)
from preprank.metafeatures import COLUMN_STATS, MODIFIABLE_IDS
from preprank.synthetic import random_dataset
from preprank.transforms import apply, enumerate_applicable


def toy_corpus(n=3, seed=100):
    return [
        random_dataset(seed + 7 * i, n_rows=40, n_continuous=2, n_categorical=1, name=f"d{i}")
        for i in range(n)
    ]


def test_label_response_examples():
    value, cls = label_response(0.80, 0.88)
    assert value == pytest.approx(0.10) and cls == "positive"
    value, cls = label_response(0.80, 0.80)
    assert value == 0.0 and cls == "zero"
    value, cls = label_response(0.80, 0.72)
    assert value == pytest.approx(-0.10) and cls == "negative"


def test_label_response_zero_base_falls_back_to_difference():
    value, cls = label_response(0.0, 0.3)
    assert value == pytest.approx(0.3) and cls == "positive"
    assert label_response(0.0, 0.0) == (0.0, "zero")


def test_label_response_epsilon_band():
    assert label_response(0.5, 0.5 + 1e-12)[1] == "zero"


def test_build_counts_and_weights():
    ds = random_dataset(3, n_rows=30, n_continuous=1, n_categorical=0, name="solo")
    specs = enumerate_applicable(ds)
    assert len(specs) == 5
    db = build_metadb([ds], TREE, "acc", seed=42)
    assert len(db.rows) == 5
    assert np.allclose(db.weights(), 0.2)
    assert db.weights().sum() == pytest.approx(1.0)


def test_weights_sum_to_one_per_dataset():
    db = build_metadb(toy_corpus(), TREE, "acc", seed=42)
    w = db.weights()
    for name in db.dataset_names():
        mask = [r.dataset_name == name for r in db.rows]
        assert w[mask].sum() == pytest.approx(1.0, abs=1e-12)


def test_scaling_rows_are_zero_class_for_tree():
    db = build_metadb(toy_corpus(1), TREE, "acc", seed=42)
    scaling = [r for r in db.rows if r.transformation in ("normalize(global)", "standardize(global)")]
    assert scaling
    assert all(r.meta_response_class == "zero" for r in scaling)
    assert all(r.meta_response_value == 0.0 for r in scaling)


def test_rows_match_independent_recomputation():
    corpus = toy_corpus(3)
    db = build_metadb(corpus, knn(1), "auc", seed=7)
    by_name = {ds.name: ds for ds in corpus}
    for row in db.rows:
        ds = by_name[row.dataset_name]
        base = cross_validate(knn(1), [ds], 10, seed=7)[0].auc
        [spec] = [s for s in enumerate_applicable(ds) if s.text == row.transformation]
        transformed = apply(spec, ds)
        after = cross_validate(knn(1), [transformed], 10, seed=7)[0].auc
        expected_value, expected_class = label_response(base, after)
        assert row.features[-1] == base  # the base performance
        assert row.meta_response_value == expected_value
        assert row.meta_response_class == expected_class


def test_build_counts_one_cv_run_per_dataset_and_version():
    corpus = toy_corpus(3)
    CV_RUNS.reset()
    db = build_metadb(corpus, knn(1), "acc", seed=7)
    assert CV_RUNS.value == len(corpus) + len(db.rows)


def test_build_computes_each_distinct_column_once_per_catalog():
    corpus = toy_corpus(3)
    COLUMN_STATS.reset()
    build_metadb(corpus, knn(1), "acc", seed=7)
    catalogs = [[ds, *(apply(spec, ds) for spec in enumerate_applicable(ds))] for ds in corpus]
    assert COLUMN_STATS.value == sum(len(distinct_columns(catalog)) for catalog in catalogs)


def test_failed_datasets_are_skipped(caplog):
    good = random_dataset(5, n_rows=30, n_continuous=1, name="good")
    tiny = random_dataset(6, n_rows=8, n_continuous=1, name="tiny")  # fewer rows than folds
    db = build_metadb([tiny, good], TREE, "acc", seed=1)
    assert db.dataset_names() == ("good",)


def test_all_failed_raises():
    tiny = random_dataset(6, n_rows=8, n_continuous=1, name="tiny")
    with pytest.raises(MetaDbError):
        build_metadb([tiny], TREE, "acc", seed=1)
    with pytest.raises(ValueError):
        build_metadb([], TREE, "acc", seed=1)


def test_jobs_do_not_change_output(tmp_path):
    corpus = toy_corpus(2)
    serial = build_metadb(corpus, TREE, "acc", seed=3, jobs=1)
    parallel = build_metadb(corpus, TREE, "acc", seed=3, jobs=2)
    save(serial, tmp_path / "a.tsv")
    save(parallel, tmp_path / "b.tsv")
    assert (tmp_path / "a.tsv").read_bytes() == (tmp_path / "b.tsv").read_bytes()


def test_save_load_round_trip(tmp_path):
    db = build_metadb(toy_corpus(2), TREE, "prec", seed=11)
    path = tmp_path / "db.tsv"
    save(db, path)
    again = load(path)
    save(again, tmp_path / "again.tsv")
    assert (tmp_path / "again.tsv").read_bytes() == path.read_bytes()
    assert (again.algorithm, again.measure) == (db.algorithm, db.measure)
    labels = [
        (r.dataset_name, r.transformation, r.meta_response_value, r.meta_response_class)
        for r in db.rows
    ]
    assert [
        (r.dataset_name, r.transformation, r.meta_response_value, r.meta_response_class)
        for r in again.rows
    ] == labels
    for loaded, built in zip(feature_matrix(again), feature_matrix(db)):
        np.testing.assert_array_equal(loaded, built)  # NaN cells compare equal


def test_load_skips_a_byte_order_mark(tmp_path):
    db = build_metadb(toy_corpus(2), TREE, "prec", seed=11)
    path = tmp_path / "db.tsv"
    save(db, path)
    path.write_bytes("\ufeff".encode() + path.read_bytes())
    assert load(path) == db


def test_load_of_save_equals_the_mini_tree_metadb(tree_metadb, tmp_path):
    path = tmp_path / "db.tsv"
    save(tree_metadb, path)
    again = load(path)
    assert any(np.isnan(row.features).any() for row in again.rows)
    assert again == tree_metadb
    assert not again != tree_metadb


def test_equality_is_nan_aware_and_exact():
    features = np.array([1.0, np.nan, 0.5])
    one_ulp_up = features.copy()
    one_ulp_up[0] = np.nextafter(1.0, 2.0)
    number_for_nan = np.array([1.0, 0.0, 0.5])

    def instance(values):
        return MetaInstance("d", "t", values, 0.25, "positive")

    def database(values):
        return MetaDatabase(TREE, "acc", (instance(values),))

    for make in (instance, database):
        assert make(features) == make(features.copy())
        assert make(features) != make(one_ulp_up)
        assert make(features) != make(number_for_nan)
    assert instance(features) != MetaInstance("d", "t", features, 0.25, "zero")
    with pytest.raises(TypeError):
        hash(instance(features))


def test_rebuild_is_byte_identical(tmp_path):
    corpus = toy_corpus(2)
    save(build_metadb(corpus, TREE, "acc", seed=5), tmp_path / "a.tsv")
    save(build_metadb(corpus, TREE, "acc", seed=5), tmp_path / "b.tsv")
    assert (tmp_path / "a.tsv").read_bytes() == (tmp_path / "b.tsv").read_bytes()


def test_file_shape_and_version_check(tmp_path):
    db = build_metadb(toy_corpus(1), TREE, "acc", seed=2)
    path = tmp_path / "db.tsv"
    save(db, path)
    lines = path.read_text().splitlines()
    assert len(lines) == len(db.rows) + 2  # comment + header
    assert lines[0].startswith("# preprank-metadb schema_version=1")

    hacked = path.read_text().replace("schema_version=1", "schema_version=9")
    (tmp_path / "bad.tsv").write_text(hacked)
    with pytest.raises(MetaDbError):
        load(tmp_path / "bad.tsv")
    hacked = path.read_text().replace("schema_version=1", "schema_version=x")
    (tmp_path / "bad.tsv").write_text(hacked)
    with pytest.raises(MetaDbError, match="schema_version 'x' is not an integer"):
        load(tmp_path / "bad.tsv")
    (tmp_path / "junk.tsv").write_text("not a metadb\n")
    with pytest.raises((MetaDbError, ValueError)):
        load(tmp_path / "junk.tsv")


@pytest.mark.parametrize("column", ["mf_MeanStdOfContinuousAttributes", "base_perf"])
@pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "abc"])
def test_load_rejects_bad_cells(tmp_path, column, cell):
    db = build_metadb(toy_corpus(1), TREE, "acc", seed=2)
    path = tmp_path / "db.tsv"
    save(db, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    cells = lines[2].split("\t")
    cells[lines[1].split("\t").index(column)] = cell
    lines[2] = "\t".join(cells)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(MetaDbError, match=f"^line 3: cell '{cell}' is not"):
        load(path)


@pytest.mark.parametrize("odd", ["\t", "\r", "\n", "\r\n"])
def test_save_rejects_a_dataset_name_that_breaks_the_file(tmp_path, odd):
    ds = random_dataset(31, n_rows=30, n_continuous=1, name=f"my{odd}data")
    db = build_metadb([ds], TREE, "acc", seed=2)
    path = tmp_path / "db.tsv"
    with pytest.raises(MetaDbError, match=f"^dataset name {re.escape(repr(ds.name))} holds a tab"):
        save(db, path)
    assert not path.exists()
    path.write_text("kept\n", encoding="utf-8")
    with pytest.raises(MetaDbError):
        save(db, path)
    assert path.read_text(encoding="utf-8") == "kept\n"
    assert list(tmp_path.iterdir()) == [path]  # nor any partial file


@pytest.mark.parametrize("name", [f"my{c}data" for c in "\x0b\x0c\x1c\x85\u2028"] + ["#data"])
def test_names_with_other_line_separators_or_a_hash_round_trip(tmp_path, name):
    # str.splitlines would break a line at each of these; load splits at LF only,
    # and only lines before the header are comments
    ds = random_dataset(33, n_rows=30, n_continuous=1, name=name)
    db = build_metadb([ds, random_dataset(34, n_rows=30, name="plain")], TREE, "acc", seed=2)
    save(db, tmp_path / "db.tsv")
    assert load(tmp_path / "db.tsv") == db


def test_build_metadb_cli_rejects_a_relation_name_holding_a_tab(tmp_path, capsys):
    arff = tmp_path / "tab.arff"
    arff.write_text(
        serialize_arff(random_dataset(32, n_rows=30, n_continuous=1)).replace(
            "@relation", "@relation 'my\tdata' %", 1
        ),
        encoding="utf-8",
    )
    manifest = tmp_path / "tab.manifest"
    manifest.write_text(f"{arff}\n", encoding="utf-8")
    out = tmp_path / "db.tsv"
    args = ["build-metadb", "--datasets", str(manifest), "--algorithm", "nb", "--seed", "1"]
    assert main([*args, "--out", str(out)]) == 2
    assert capsys.readouterr().err.splitlines()[-1] == (
        "error: dataset name 'my\\tdata' holds a tab, CR or LF"
    )
    assert not out.exists()


def test_load_names_the_line_of_a_row_with_too_many_cells(tmp_path):
    path = tmp_path / "db.tsv"
    save(build_metadb(toy_corpus(1), TREE, "acc", seed=2), path)
    lines = path.read_text(encoding="utf-8").splitlines()
    lines[3] = "my\t" + lines[3]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    n = len(lines[1].split("\t"))
    with pytest.raises(MetaDbError, match=f"^line 4: row with {n + 1} cells, expected {n}$"):
        load(path)


def test_feature_columns_and_nan_encoding():
    assert len(FEATURE_COLUMNS) == 2 * len(MODIFIABLE_IDS) + 1
    assert FEATURE_COLUMNS[-1] == "base_perf"
    ds = random_dataset(8, n_rows=30, n_continuous=0, n_categorical=2, name="nc")
    db = build_metadb([ds], TREE, "acc", seed=4)
    row = db.rows[0].features
    assert row.shape == (len(FEATURE_COLUMNS),)
    idx = FEATURE_COLUMNS.index("mf_MeanKurtosisOfContinuousAttributes")
    assert np.isnan(row[idx])
    x, y, w = feature_matrix(db)
    assert x.shape == (len(db.rows), len(FEATURE_COLUMNS))
    assert set(y) <= {0, 1, 2}


def test_positive_rate():
    db = build_metadb(toy_corpus(2), TREE, "acc", seed=9)
    manual = sum(r.meta_response_class == "positive" for r in db.rows) / len(db.rows)
    assert db.positive_rate() == manual
