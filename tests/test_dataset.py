import pickle
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from preprank.dataset import (
    ArffError,
    CsvFormatError,
    Dataset,
    DatasetError,
    Attribute,
    MalformedHeaderError,
    RowArityError,
    SparseArffError,
    UndeclaredNominalValueError,
    UnknownAttributeTypeError,
    _split_quoted,
    load_dataset_file,
    parse_arff,
    parse_csv,
    serialize_arff,
    stratified_folds,
)
from preprank.synthetic import mini_corpus, random_dataset
from preprank.transforms import apply, enumerate_applicable

SIMPLE_ARFF = """\
@relation demo
@attribute a numeric
@attribute b numeric
@attribute class {yes,no}
@data
1.0,2.0,yes
2.0,?,no
3.5,0.5,yes
4.0,1.0,no
"""


def test_parse_simple_arff_with_missing():
    ds = parse_arff(SIMPLE_ARFF)
    assert ds.name == "demo"
    assert ds.n_rows == 4
    assert ds.class_index == 2
    assert [a.kind for a in ds.attributes] == ["continuous", "continuous", "categorical"]
    assert int(np.isnan(ds.rows).sum()) == 1
    assert list(ds.class_labels) == [0, 1, 0, 1]


def test_undeclared_nominal_value_carries_line():
    text = SIMPLE_ARFF.replace("3.5,0.5,yes", "3.5,0.5,maybe")
    with pytest.raises(UndeclaredNominalValueError) as err:
        parse_arff(text)
    assert err.value.line == 8
    assert "maybe" in str(err.value)


def test_row_arity_mismatch():
    with pytest.raises(RowArityError) as err:
        parse_arff(SIMPLE_ARFF + "1.0,2.0\n")
    assert err.value.line == 10


def test_unknown_attribute_type():
    text = SIMPLE_ARFF.replace("@attribute b numeric", "@attribute b string")
    with pytest.raises(UnknownAttributeTypeError):
        parse_arff(text)


def test_sparse_rows_rejected():
    with pytest.raises(SparseArffError):
        parse_arff(SIMPLE_ARFF + "{0 1.0, 2 yes}\n")


def test_malformed_header():
    with pytest.raises(MalformedHeaderError):
        parse_arff("@relation x\nnot a directive\n@data\n")
    with pytest.raises(MalformedHeaderError):
        parse_arff("@relation x\n@attribute a {a,b}\n1,2\n")  # no @data


def test_missing_class_cell_rejected():
    text = SIMPLE_ARFF.replace("2.0,?,no", "2.0,1.0,?")
    with pytest.raises(ArffError):
        parse_arff(text)


def test_class_detection_prefers_name_over_position():
    text = """\
@relation t
@attribute Class {p,n}
@attribute other {x,y}
@attribute a numeric
@data
p,x,1.0
n,y,2.0
"""
    ds = parse_arff(text)
    assert ds.class_index == 0
    assert ds.class_attribute.name == "Class"


def test_class_detection_falls_back_to_last_nominal():
    text = """\
@relation t
@attribute lab {p,n}
@attribute a numeric
@data
p,1.0
n,2.0
"""
    assert parse_arff(text).class_index == 0


def test_quoted_names_and_values_round_trip():
    attrs = (
        Attribute("the attr", "continuous"),
        Attribute("class", "categorical", ("a b", "c,d", "it's")),
    )
    rows = np.array([[1.5, 0.0], [np.nan, 1.0], [2.0, 2.0]])
    ds = Dataset("odd name", attrs, 1, rows)
    assert parse_arff(serialize_arff(ds)) == ds


@st.composite
def dataset_shapes(draw):
    seed = draw(st.integers(0, 10_000))
    n_continuous = draw(st.integers(0, 4))
    n_categorical = draw(st.integers(0 if n_continuous else 1, 3))
    return dict(
        seed=seed,
        n_rows=draw(st.integers(6, 40)),
        n_continuous=n_continuous,
        n_categorical=n_categorical,
        n_classes=draw(st.integers(2, 3)),
        missing_rate=draw(st.sampled_from([0.0, 0.1])),
    )


@settings(max_examples=40, deadline=None)
@given(dataset_shapes())
def test_arff_round_trip_identity(shape):
    ds = random_dataset(**shape)
    assert parse_arff(serialize_arff(ds)) == ds


def test_csv_basic_inference():
    ds = parse_csv("x,y,class\n1,a,yes\n2,b,no\n", "class")
    assert ds.attributes[0].kind == "continuous"
    assert ds.attributes[1].kind == "categorical"
    assert ds.class_attribute.categories == ("yes", "no")


def test_csv_mixed_column_is_categorical():
    ds = parse_csv("x,class\n1,yes\n2,no\nthree,yes\n", "class")
    assert ds.attributes[0].kind == "categorical"
    assert len(ds.attributes[0].categories) == 3


@pytest.mark.parametrize("cell", ["inf", "-inf", "nan", "1e999"])
def test_csv_non_finite_number_makes_the_column_categorical(cell):
    ds = parse_csv(f"x,class\n1,yes\n{cell},no\n2,yes\n1,no\n", "class")
    assert ds.attributes[0].categories == ("1", cell, "2")
    assert list(ds.rows[:, 0]) == [0.0, 1.0, 2.0, 0.0]


def test_csv_categorical_columns_code_in_first_appearance_order():
    ds = parse_csv("g,x,class\nb,NA,3\n?,,1\na,?,3\nb,,2\n", "class")
    assert ds.attributes[0].categories == ("b", "a")
    assert np.array_equal(ds.rows[:, 0], [0.0, np.nan, 1.0, 0.0], equal_nan=True)
    assert ds.attributes[1].categories == ("_empty",)  # no present cell
    assert ds.class_attribute.categories == ("3", "1", "2")  # numeric, yet categorical
    assert list(ds.class_labels) == [0, 1, 0, 2]
    with pytest.raises(CsvFormatError, match="at least two distinct values"):
        parse_csv("x,class\n1,yes\n2,yes\n", "class")


def test_class_column_is_rejected_for_arff(tmp_path):
    path = tmp_path / "d.arff"
    path.write_text(serialize_arff(random_dataset(3, n_rows=10)), encoding="utf-8")
    assert load_dataset_file(path).n_rows == 10
    with pytest.raises(DatasetError, match="--class-column applies to .csv files only"):
        load_dataset_file(path, class_column="class")


def test_a_byte_order_mark_does_not_rename_the_first_column(tmp_path):
    # spreadsheet "CSV UTF-8" exports start with one
    csv = tmp_path / "d.csv"
    csv.write_text("\ufeffclass,x,y\nyes,1,2\nno,2,3\nyes,3,1\n", encoding="utf-8")
    ds = load_dataset_file(csv)
    assert ds.class_index == 0 and ds.attributes[0].name == "class"
    assert [a.kind for a in ds.attributes[1:]] == ["continuous", "continuous"]
    arff = tmp_path / "d.arff"
    text = serialize_arff(random_dataset(3, n_rows=10))
    arff.write_text("\ufeff" + text, encoding="utf-8")
    assert load_dataset_file(arff) == parse_arff(text)


def test_csv_class_missing_cell_rejected():
    with pytest.raises(CsvFormatError):
        parse_csv("x,class\n1,yes\n2,\n", "class")


def test_csv_empty_file_rejected():
    with pytest.raises(CsvFormatError):
        parse_csv("", "class")


def test_csv_class_by_name_and_missing_markers():
    ds = parse_csv("a,b\nNA,x\n?,y\n3,x\n4,y\n", "b")
    assert ds.class_index == 1
    assert int(np.isnan(ds.rows[:, 0]).sum()) == 2
    with pytest.raises(CsvFormatError, match="missing class column '1'"):
        parse_csv("a,b\nNA,x\n?,y\n3,x\n4,y\n", "1")


@pytest.mark.parametrize(
    "text, class_index",
    [
        ("x,Class,y\n1,a,2\n2,b,3\n", 1),  # the header named class, in any case
        ("x,y,cls\n1,2,a\n2,3,b\n", 2),  # else the last header
        ("\nx,cls\n1,a\n2,b\n", 1),  # the header is the first non-blank line
    ],
)
def test_csv_file_default_class_column(tmp_path, text, class_index):
    path = tmp_path / "d.csv"
    path.write_text(text, encoding="utf-8")
    assert load_dataset_file(path).class_index == class_index
    assert parse_csv(text).class_index == class_index


def test_csv_file_empty_rejected(tmp_path):
    path = tmp_path / "d.csv"
    for text in ("", "\n\n"):
        path.write_text(text, encoding="utf-8")
        with pytest.raises(CsvFormatError, match="empty file"):
            load_dataset_file(path)


def test_csv_round_trip():
    ds = random_dataset(5, n_rows=12, n_continuous=2, n_categorical=1, missing_rate=0.2)

    def decode(d, i, j):
        v = d.rows[i, j]
        if np.isnan(v):
            return None
        a = d.attributes[j]
        return a.categories[int(v)] if a.is_categorical else v

    lines = [",".join(a.name for a in ds.attributes)]
    for i in range(ds.n_rows):
        cells = [decode(ds, i, j) for j in range(ds.n_attributes)]
        lines.append(",".join("" if v is None else str(v) for v in cells))
    again = parse_csv("\n".join(lines) + "\n", "class", name=ds.name)

    # category order is first-appearance on re-parse, so compare decoded cells
    for i in range(ds.n_rows):
        for j in range(ds.n_attributes):
            assert decode(ds, i, j) == decode(again, i, j)


def test_stratified_folds_forced_balance():
    labels = [0] * 5 + [1] * 5
    rows = np.column_stack([np.arange(10.0), np.array(labels, dtype=float)])
    ds = Dataset(
        "t",
        (Attribute("x", "continuous"), Attribute("class", "categorical", ("a", "b"))),
        1,
        rows,
    )
    fold_of_row = stratified_folds(ds, 5, seed=3)
    per_fold = np.zeros((5, 2), dtype=int)
    for row, fold in enumerate(fold_of_row):
        per_fold[fold, labels[row]] += 1
    assert (per_fold == 1).all()


def test_stratified_folds_deterministic():
    ds = random_dataset(9, n_rows=30)
    a = stratified_folds(ds, 2, seed=11)
    b = stratified_folds(ds, 2, seed=11)
    assert np.array_equal(a, b)
    assert not np.array_equal(stratified_folds(ds, 2, seed=12), a)
    assert not a.flags.writeable


def test_stratified_folds_counting_oracle():
    ds = random_dataset(123, n_rows=100, n_continuous=2, n_classes=3)
    fold_of_row = stratified_folds(ds, 10, seed=0)
    labels = ds.class_labels
    for c in np.unique(labels):
        counts = np.bincount(fold_of_row[labels == c], minlength=10)
        assert counts.max() - counts.min() <= 1


def _loop_stratified_folds(ds, k, seed):
    """The per-row loop that ``stratified_folds`` ran, kept as its oracle."""
    rng = np.random.default_rng(seed)
    labels = ds.class_labels
    fold_of_row = np.empty(ds.n_rows, dtype=int)
    cursor = 0
    for c in range(len(ds.class_attribute.categories)):
        members = np.flatnonzero(labels == c)
        if members.size == 0:
            continue
        members = rng.permutation(members)
        for i, row in enumerate(members):
            fold_of_row[row] = (cursor + i) % k
        cursor += members.size
    return fold_of_row


def test_stratified_folds_match_the_per_row_loop():
    datasets = [*mini_corpus(7), *mini_corpus(11), random_dataset(
        2018, n_rows=4000, n_continuous=10, n_categorical=5, n_classes=3, missing_rate=0.03
    )]
    for ds in datasets:
        for k in (2, 3, 10):
            for seed in (1, 7, 42):
                fold_of_row = stratified_folds(ds, k, seed)
                assert fold_of_row.dtype == int
                assert np.array_equal(fold_of_row, _loop_stratified_folds(ds, k, seed))


@settings(max_examples=30, deadline=None)
@given(dataset_shapes(), st.integers(2, 8), st.integers(0, 99))
def test_stratified_folds_bound_property(shape, k, seed):
    ds = random_dataset(**shape)
    if k > ds.n_rows:
        return
    fold_of_row = stratified_folds(ds, k, seed)
    labels = ds.class_labels
    total = np.zeros(k, dtype=int)
    for c in np.unique(labels):
        counts = np.bincount(fold_of_row[labels == c], minlength=k)
        total += counts
        assert counts.max() - counts.min() <= 1
    assert total.min() >= 0 and total.sum() == ds.n_rows


def test_folds_error_when_k_exceeds_rows():
    ds = random_dataset(2, n_rows=6)
    with pytest.raises(ValueError):
        stratified_folds(ds, 7, seed=0)


def test_folds_ignore_predictor_content():
    # transformed datasets must keep their source's folds
    ds = random_dataset(77, n_rows=40, n_continuous=2, n_categorical=0)
    scaled = Dataset(ds.name, ds.attributes, ds.class_index, ds.rows * [2.0, 2.0, 1.0])
    assert np.array_equal(stratified_folds(ds, 10, seed=5), stratified_folds(scaled, 10, seed=5))


def test_dataset_invariants():
    attrs = (Attribute("x", "continuous"), Attribute("class", "categorical", ("a", "b")))
    with pytest.raises(ValueError):
        Dataset("bad", attrs, 1, np.array([[np.inf, 0.0]]))
    with pytest.raises(ValueError):
        Dataset("bad", attrs, 1, np.array([[1.0, 2.0]]))  # category out of range
    with pytest.raises(ValueError):
        Dataset("bad", attrs, 1, np.array([[1.0, np.nan]]))  # missing class
    with pytest.raises(ValueError):
        Dataset("bad", (attrs[1],), 0, np.array([[0.0]]))  # no predictor


def test_dataset_rows_immutable():
    ds = random_dataset(1, n_rows=8)
    with pytest.raises(ValueError):
        ds.rows[0, 0] = 99.0


def test_subset_equals_validated_constructor():
    # a row subset goes through the validating constructor: a read-only copy of its rows
    ds = random_dataset(3, n_rows=50, n_continuous=2, n_categorical=2, missing_rate=0.1)
    rng = np.random.default_rng(0)
    for trial in range(100):
        size = int(rng.integers(1, 80))
        idx = rng.choice(ds.n_rows, size=size, replace=size > ds.n_rows or trial % 2 == 1)
        if trial % 3 == 0:
            idx = idx - ds.n_rows  # negative indices count from the end
        picked = idx.tolist() if trial % 5 == 0 else idx
        sub = replace(ds, rows=ds.rows[picked])
        expected = Dataset(ds.name, ds.attributes, ds.class_index, ds.rows[idx])
        assert sub == expected
        assert sub.rows.dtype == expected.rows.dtype and sub.rows.shape == expected.rows.shape
        assert not sub.rows.flags.writeable
        assert not np.shares_memory(sub.rows, ds.rows)
    expected = Dataset(ds.name, ds.attributes, ds.class_index, ds.rows[5:9])
    assert replace(ds, rows=ds.rows[range(5, 9)]) == expected
    with pytest.raises(ValueError):
        replace(ds, rows=ds.rows[[]])
    with pytest.raises(ValueError):
        replace(ds, rows=ds.rows[np.array([], dtype=int)])
    with pytest.raises(ValueError):
        replace(ds, rows=ds.rows[3])  # a single index is not a table


# --- oracle: the character loop of _split_quoted before its quote-free fast path ---


def _oracle_split_quoted(text, lineno, sep=","):
    """Split on ``sep`` honoring single/double quotes and backslash escapes."""
    out = []
    buf = []
    quote = None
    escaped = False
    for ch in text:
        if escaped:
            buf.append(ch)
            escaped = False
        elif quote:
            if ch == "\\":
                escaped = True
            elif ch == quote:
                quote = None
            else:
                buf.append(ch)
        elif ch in "'\"":
            quote = ch
        elif ch == sep:
            out.append("".join(buf).strip())
            buf = []
        else:
            buf.append(ch)
    if quote:
        raise ArffError("unterminated quote", lineno)
    out.append("".join(buf).strip())
    return out


@settings(max_examples=2000, deadline=None)
@given(st.text(alphabet=",  \t\\'\"?{abXY", max_size=30))
def test_split_quoted_matches_character_loop(text):
    try:
        expected = _oracle_split_quoted(text, 3)
    except ArffError as exc:
        with pytest.raises(ArffError, match=str(exc)):
            _split_quoted(text, 3)
        return
    cells = _split_quoted(text, 3)
    assert cells == expected
    if "'" not in text and '"' not in text:  # the fast path: plain strings, never _Quoted
        assert all(type(cell) is str for cell in cells)


QUOTED_MISSING_MARK = """\
@relation q
@attribute a {'?',x}
@attribute b numeric
@attribute class {'?',p}
@data
'?',?,p
?,2.0,'?'
x,?,"?"
"""


def test_only_an_unquoted_question_mark_is_missing():
    ds = parse_arff(QUOTED_MISSING_MARK)
    assert ds.attributes[0].categories == ("?", "x")
    assert all(type(c) is str for a in ds.attributes for c in a.categories)
    expected = np.array([[0.0, np.nan, 1.0], [np.nan, 2.0, 0.0], [1.0, np.nan, 0.0]])
    np.testing.assert_array_equal(ds.rows, expected)
    # the class column's quoted "?" is its category, and an unquoted one is still missing
    assert ds.class_labels.tolist() == [1, 0, 0]
    with pytest.raises(ArffError, match="line 7: missing value in class column"):
        parse_arff(QUOTED_MISSING_MARK.replace("?,2.0,'?'", "?,2.0,?"))
    with pytest.raises(ArffError, match="line 8: cannot parse '\\?' as a number"):
        parse_arff(QUOTED_MISSING_MARK.replace("x,?,", "x,'?',"))


def test_question_mark_category_round_trips():
    attrs = (
        Attribute("a", "categorical", ("?", "x")),
        Attribute("b", "continuous"),
        Attribute("class", "categorical", ("p", "?")),
    )
    rows = np.array([[0.0, 1.0, 1.0], [np.nan, np.nan, 0.0], [1.0, 2.5, 1.0], [0.0, 0.0, 0.0]])
    ds = Dataset("marks", attrs, 2, rows)
    text = serialize_arff(ds)
    assert "'?',1.0,'?'" in text and "?,?,p" in text
    assert parse_arff(text) == ds


PREDICTOR_PROPERTIES = ("predictor_indices", "continuous_predictors", "categorical_predictors")


def _predictor_properties(ds):
    return tuple(getattr(ds, name) for name in PREDICTOR_PROPERTIES)


def _computed_predictor_properties(ds):
    """Oracle: the three index tuples, built afresh."""
    predictors = tuple(j for j in range(ds.n_attributes) if j != ds.class_index)
    return (
        predictors,
        tuple(j for j in predictors if ds.attributes[j].is_continuous),
        tuple(j for j in predictors if ds.attributes[j].is_categorical),
    )


def test_predictor_index_properties_are_computed_once_per_dataset(mini_datasets):
    for base in mini_datasets:
        for ds in [base, *(apply(spec, base) for spec in enumerate_applicable(base))]:
            first = _predictor_properties(ds)
            assert first == _computed_predictor_properties(ds)
            assert all(a is b for a, b in zip(first, _predictor_properties(ds)))
            copy = replace(ds, rows=ds.rows[::2])
            assert not set(PREDICTOR_PROPERTIES) & copy.__dict__.keys()  # none inherited
            assert _predictor_properties(copy) == _computed_predictor_properties(copy)
            # ``--jobs`` sends datasets through a process pool
            assert _predictor_properties(pickle.loads(pickle.dumps(ds))) == first
