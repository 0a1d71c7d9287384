"""Every file the package writes is replaced all or nothing, by dataset.write_file."""

import ast
import os
import stat

import pytest
from conftest import ROOT, make_rule_metadb
from test_openml import ARFF_61, transport_for

from preprank.cli import build_parser
from preprank.forest import load_model, save_model, train_forest
from preprank.metadb import load, save
from preprank.openml import fetch_dataset

PACKAGE = ROOT / "src" / "preprank"
DB = make_rule_metadb(n_datasets=4, seed=3)


def _metadb(path):
    save(DB, path)


def _evaluate(path):  # writes six reports; ``path`` names the first
    assert path.name == "measures.tsv"
    source = path.parent.parent / "source.metadb.tsv"
    if not source.exists():
        source.parent.mkdir(parents=True, exist_ok=True)
        save(DB, source)
    argv = ["evaluate", "--metadb", str(source), "--trees", "2", "--out", str(path.parent)]
    args = build_parser().parse_args(argv)
    args.fn(args)  # not main, which would turn an OSError into exit code 2


def _openml(path):  # a cache miss writes the .arff, then its .meta.json
    assert path.name == "61.arff"
    fetch_dataset(61, path.parent, fetch=transport_for(61, ARFF_61))


def _model(path):
    save_model(train_forest(DB, 2, seed=1), path)


WRITERS = {"metadb": _metadb, "evaluate": _evaluate, "openml": _openml, "model": _model}
NAMES = {"metadb": "db.tsv", "evaluate": "measures.tsv", "openml": "61.arff", "model": "m.json"}


@pytest.mark.parametrize("exc", [OSError("no space left"), KeyboardInterrupt()])
@pytest.mark.parametrize("kind", WRITERS)
def test_a_failed_write_keeps_the_earlier_bytes_and_leaves_no_partial_file(
    tmp_path, monkeypatch, kind, exc
):
    path = tmp_path / "out" / NAMES[kind]
    path.parent.mkdir()
    path.write_bytes(b"earlier bytes\n")

    def fail(*args):
        raise exc

    monkeypatch.setattr(os, "replace", fail)  # every byte is written, the rename fails
    with pytest.raises(type(exc)):
        WRITERS[kind](path)
    assert path.read_bytes() == b"earlier bytes\n"
    assert list(path.parent.iterdir()) == [path]


@pytest.mark.parametrize("kind", WRITERS)
def test_a_write_into_a_missing_directory_creates_it(tmp_path, kind):
    path = tmp_path / "new" / "dir" / NAMES[kind]
    WRITERS[kind](path)
    assert path.is_file()
    assert not [p for p in path.parent.iterdir() if p.name.endswith(".partial")]
    readers = {"metadb": load, "model": load_model}
    if kind in readers:
        readers[kind](path)


def test_cached_openml_files_get_the_mode_of_a_plain_write(tmp_path):
    _openml(tmp_path / "61.arff")
    (tmp_path / "plain").write_bytes(b"")
    plain = stat.S_IMODE((tmp_path / "plain").stat().st_mode)
    for name in ("61.arff", "61.meta.json"):
        assert stat.S_IMODE((tmp_path / name).stat().st_mode) == plain, name


def test_a_cached_openml_file_holds_the_payload_bytes(tmp_path):
    _openml(tmp_path / "61.arff")
    assert (tmp_path / "61.arff").read_bytes() == ARFF_61.encode()


# --- one writer --------------------------------------------------------------------

#: the one function of the package that writes files: (module file, function)
WRITER = ("dataset.py", "write_file")


def _write_mode(call: ast.Call) -> bool:
    modes = [kw.value for kw in call.keywords if kw.arg == "mode"] + [
        a for a in call.args if isinstance(a, ast.Constant) and isinstance(a.value, str)
    ]
    return any(isinstance(m, ast.Constant) and set(str(m.value)) & set("wax+") for m in modes)


def _file_writes(module: ast.Module):
    """(enclosing top-level name, line, what) of each call that writes or replaces a file."""
    for top in module.body:
        where = getattr(top, "name", "<module>")
        for node in ast.walk(top):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [a.name for a in node.names] + [getattr(node, "module", None) or ""]
                if "tempfile" in names:
                    yield where, node.lineno, "tempfile"
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
            on_os = isinstance(func, ast.Attribute) and getattr(func.value, "id", "") == "os"
            if name in ("write_text", "write_bytes") or (
                on_os and name in ("replace", "rename", "open", "fdopen")
            ):
                yield where, node.lineno, name
            elif name == "open" and _write_mode(node):
                yield where, node.lineno, "open for writing"


def test_one_function_of_the_package_writes_files():
    writes = {
        (path.name, where, lineno, what)
        for path in sorted(PACKAGE.glob("*.py"))
        for where, lineno, what in _file_writes(ast.parse(path.read_text(encoding="utf-8")))
    }
    elsewhere = sorted(w for w in writes if w[:2] != WRITER)
    assert elsewhere == [], "write files through dataset.write_file"
    assert {w[3] for w in writes} >= {"open for writing", "write_bytes", "replace"}


def test_the_scan_finds_each_kind_of_write():
    source = """
import tempfile
from tempfile import mkstemp
def f(p):
    p.write_text("x")
    p.write_bytes(b"x")
    os.replace(p, p)
    open(p, "w")
    open(p, mode="ab")
    p.open("w", encoding="utf-8")
    open(p)
    p.open()
    p.read_text()
"""
    found = [what for _, _, what in _file_writes(ast.parse(source))]
    assert found == [
        "tempfile", "tempfile", "write_text", "write_bytes", "replace",
        "open for writing", "open for writing", "open for writing",
    ]
