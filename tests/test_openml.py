import json

import pytest

from preprank.dataset import serialize_arff
from preprank.openml import (
    CACHE_ENV_VAR,
    ChecksumError,
    CorpusError,
    OpenMLError,
    OpenMLHTTPError,
    cache_entry,
    default_cache_dir,
    fetch_dataset,
    load_corpus,
    read_manifest,
)
from preprank.synthetic import random_dataset

ARFF_61 = serialize_arff(random_dataset(61, n_rows=12, n_continuous=2, name="iris_like"))


class FakeTransport:
    """Recorded-response fetcher counting network calls."""

    def __init__(self, responses):
        self.responses = responses
        self.calls = []

    def __call__(self, url):
        self.calls.append(url)
        if url not in self.responses:
            raise OpenMLError(f"cannot reach {url}: refused")
        return self.responses[url]


def transport_for(dataset_id, arff_text):
    file_url = f"https://files.example/{dataset_id}.arff"
    description = {"data_set_description": {"url": file_url}}
    return FakeTransport(
        {
            f"https://www.openml.org/api/v1/json/data/{dataset_id}": json.dumps(
                description
            ).encode(),
            file_url: arff_text.encode(),
        }
    )


def test_fetch_and_cache(tmp_path):
    transport = transport_for(61, ARFF_61)
    ds = fetch_dataset(61, tmp_path, fetch=transport)
    assert ds.name == "iris_like"
    assert len(transport.calls) == 2
    entry = cache_entry(61, tmp_path)
    assert entry.dataset_id == 61 and entry.path.exists()

    again = fetch_dataset(61, tmp_path, fetch=transport)
    assert len(transport.calls) == 2  # warm cache: no network at all
    assert again == ds


def test_network_error_names_the_id(tmp_path):
    transport = FakeTransport({})
    with pytest.raises(OpenMLHTTPError) as err:
        fetch_dataset(99, tmp_path, fetch=transport)
    assert "99" in str(err.value)


def test_checksum_mismatch_detected(tmp_path):
    transport = transport_for(61, ARFF_61)
    fetch_dataset(61, tmp_path, fetch=transport)
    (tmp_path / "61.arff").write_text("tampered", encoding="utf-8")
    with pytest.raises(ChecksumError):
        fetch_dataset(61, tmp_path, fetch=transport)


def test_malformed_description(tmp_path):
    transport = FakeTransport(
        {"https://www.openml.org/api/v1/json/data/5": b'{"unexpected": 1}'}
    )
    with pytest.raises(OpenMLHTTPError):
        fetch_dataset(5, tmp_path, fetch=transport)


def test_read_manifest_resolves_relative_paths(tmp_path):
    (tmp_path / "local.arff").write_text(ARFF_61, encoding="utf-8")
    manifest = tmp_path / "corpus.manifest"
    manifest.write_text("# comment\n61  # iris\nlocal.arff\n\n", encoding="utf-8")
    entries = read_manifest(manifest)
    assert entries == [61, str(tmp_path / "local.arff")]


def test_a_byte_order_mark_starts_no_entry_or_arff_line(tmp_path):
    (tmp_path / "local.arff").write_text(ARFF_61, encoding="utf-8")
    manifest = tmp_path / "corpus.manifest"
    manifest.write_text("\ufeff61\nlocal.arff\n", encoding="utf-8")
    assert read_manifest(manifest) == [61, str(tmp_path / "local.arff")]
    ds = fetch_dataset(61, tmp_path / "cache", fetch=transport_for(61, "\ufeff" + ARFF_61))
    assert ds == fetch_dataset(61, tmp_path / "plain", fetch=transport_for(61, ARFF_61))


def test_load_corpus_mixed_sources(tmp_path):
    other = serialize_arff(random_dataset(7, n_rows=10, n_continuous=1, name="localds"))
    (tmp_path / "local.arff").write_text(other, encoding="utf-8")
    transport = transport_for(61, ARFF_61)
    result = load_corpus([str(tmp_path / "local.arff"), 61], tmp_path / "cache", fetch=transport)
    assert [d.name for d in result.datasets] == ["localds", "iris_like"]
    assert result.failures == ()


def test_load_corpus_reports_partial_failures(tmp_path):
    (tmp_path / "good.arff").write_text(ARFF_61, encoding="utf-8")
    result = load_corpus(
        [str(tmp_path / "missing.arff"), str(tmp_path / "good.arff")],
        tmp_path / "cache",
        fetch=FakeTransport({}),
    )
    assert len(result.datasets) == 1
    assert len(result.failures) == 1
    assert "missing.arff" in result.failures[0][0]


def test_load_corpus_all_failed(tmp_path):
    with pytest.raises(CorpusError):
        load_corpus([str(tmp_path / "nope.arff")], tmp_path, fetch=FakeTransport({}))
    with pytest.raises(CorpusError):
        load_corpus([], tmp_path)


def test_duplicate_names_disambiguated(tmp_path):
    (tmp_path / "a.arff").write_text(ARFF_61, encoding="utf-8")
    (tmp_path / "b.arff").write_text(ARFF_61, encoding="utf-8")
    result = load_corpus(
        [str(tmp_path / "a.arff"), str(tmp_path / "b.arff")], tmp_path / "cache"
    )
    assert [d.name for d in result.datasets] == ["iris_like", "iris_like~2"]
    # a suffix that a member's own name already holds is skipped
    for name in ("x", "x~2", "x"):
        arff = serialize_arff(random_dataset(61, n_rows=12, n_continuous=2, name=name))
        (tmp_path / f"{name}.arff").write_text(arff, encoding="utf-8")
    paths = [str(tmp_path / f"{name}.arff") for name in ("x", "x~2", "x", "x~2")]
    result = load_corpus(paths, tmp_path / "cache")
    assert [d.name for d in result.datasets] == ["x", "x~2", "x~3", "x~2~2"]


def test_cache_dir_env_override(monkeypatch, tmp_path):
    monkeypatch.setenv(CACHE_ENV_VAR, str(tmp_path / "override"))
    assert default_cache_dir() == tmp_path / "override"
    monkeypatch.delenv(CACHE_ENV_VAR)
    assert default_cache_dir().name == "preprank"


def test_twenty_entry_manifest_fills_cache(tmp_path):
    responses = {}
    ids = list(range(100, 120))
    for dataset_id in ids:
        arff = serialize_arff(
            random_dataset(dataset_id, n_rows=10, n_continuous=1, name=f"ds{dataset_id}")
        )
        file_url = f"https://files.example/{dataset_id}.arff"
        responses[f"https://www.openml.org/api/v1/json/data/{dataset_id}"] = json.dumps(
            {"data_set_description": {"url": file_url}}
        ).encode()
        responses[file_url] = arff.encode()
    transport = FakeTransport(responses)
    cache = tmp_path / "cache"
    result = load_corpus(ids, cache, fetch=transport)
    assert len(result.datasets) == 20 and not result.failures
    cached = sorted(cache.glob("*.arff"))
    assert len(cached) == 20
    from preprank.dataset import parse_arff

    for path in cached:
        parse_arff(path.read_text(encoding="utf-8"))
    # a second pass is answered entirely from the cache
    calls_before = len(transport.calls)
    again = load_corpus(ids, cache, fetch=transport)
    assert len(transport.calls) == calls_before
    assert again.datasets == result.datasets


def test_warm_cache_is_deterministic(tmp_path):
    transport = transport_for(61, ARFF_61)
    fetch_dataset(61, tmp_path, fetch=transport)
    first = (tmp_path / "61.arff").read_bytes()
    ds_a = fetch_dataset(61, tmp_path, fetch=transport)
    ds_b = fetch_dataset(61, tmp_path, fetch=transport)
    assert ds_a == ds_b
    assert (tmp_path / "61.arff").read_bytes() == first
