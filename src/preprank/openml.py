"""Minimal OpenML download client with a local content-addressed cache.

Only the public dataset-description endpoint is used: resolve the ARFF file
URL for a dataset id, download it, cache it.  A warm cache never touches the
network.  The HTTP layer is a plain ``fetch(url) -> bytes`` callable so tests
can substitute recorded responses.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import time
from dataclasses import dataclass, replace
from pathlib import Path

from .dataset import Dataset, load_dataset_file, parse_arff, write_file

log = logging.getLogger("preprank.openml")

DESCRIPTION_URL = "https://www.openml.org/api/v1/json/data/{dataset_id}"
CACHE_ENV_VAR = "PREPRANK_CACHE"


class OpenMLError(Exception):
    pass


class OpenMLHTTPError(OpenMLError):
    def __init__(self, dataset_id: int, detail: str):
        super().__init__(f"dataset {dataset_id}: {detail}")
        self.dataset_id = dataset_id


class ChecksumError(OpenMLError):
    pass


class CorpusError(OpenMLError):
    pass


@dataclass(frozen=True)
class CacheEntry:
    dataset_id: int
    fetched_at: float
    path: Path
    checksum: str


def default_cache_dir() -> Path:
    override = os.environ.get(CACHE_ENV_VAR)
    if override:
        return Path(override)
    return Path.home() / ".cache" / "preprank"


def _default_fetch(url: str) -> bytes:
    from urllib import error, request  # imported when a fetch needs them, not at start-up

    try:
        with request.urlopen(url, timeout=60) as response:
            return response.read()
    except error.HTTPError as exc:
        raise OpenMLError(f"HTTP {exc.code} for {url}") from exc
    except error.URLError as exc:
        raise OpenMLError(f"cannot reach {url}: {exc.reason}") from exc


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def cache_entry(dataset_id: int, cache_dir) -> CacheEntry | None:
    """The verified cache entry for an id, or None when absent."""
    cache_dir = Path(cache_dir)
    arff_path = cache_dir / f"{dataset_id}.arff"
    meta_path = cache_dir / f"{dataset_id}.meta.json"
    if not arff_path.exists() or not meta_path.exists():
        return None
    meta = json.loads(meta_path.read_text(encoding="utf-8"))
    actual = _sha256(arff_path.read_bytes())
    if actual != meta["checksum"]:
        raise ChecksumError(
            f"cached file for dataset {dataset_id} does not match its recorded checksum"
        )
    return CacheEntry(
        dataset_id=dataset_id,
        fetched_at=float(meta["fetched_at"]),
        path=arff_path,
        checksum=actual,
    )


def fetch_dataset(dataset_id: int, cache_dir, fetch=None) -> Dataset:
    """Download (or reuse from cache) one OpenML dataset and parse it.

    A cache hit performs no network I/O at all.
    """
    cache_dir = Path(cache_dir)
    entry = cache_entry(dataset_id, cache_dir)
    if entry is None:
        fetch = fetch or _default_fetch
        try:
            description = json.loads(
                fetch(DESCRIPTION_URL.format(dataset_id=dataset_id)).decode("utf-8")
            )
            file_url = description["data_set_description"]["url"]
            payload = fetch(file_url)
        except OpenMLError as exc:
            raise OpenMLHTTPError(dataset_id, str(exc)) from exc
        except (KeyError, ValueError) as exc:
            raise OpenMLHTTPError(dataset_id, f"malformed description: {exc}") from exc
        write_file(cache_dir / f"{dataset_id}.arff", payload)
        meta = {
            "dataset_id": dataset_id,
            "fetched_at": time.time(),
            "checksum": _sha256(payload),
        }
        write_file(cache_dir / f"{dataset_id}.meta.json", json.dumps(meta, indent=1))
        entry = cache_entry(dataset_id, cache_dir)
    return parse_arff(entry.path.read_text(encoding="utf-8-sig"))


def read_manifest(path) -> list[int | str]:
    """One dataset id or file path per line; '#' starts a comment.

    Relative paths resolve against the manifest's directory.
    """
    path = Path(path)
    entries: list[int | str] = []
    for raw in path.read_text(encoding="utf-8-sig").splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.isascii() and line.isdigit():  # "²" is a digit to isdigit, not to int
            entries.append(int(line))
        else:
            candidate = Path(line)
            if not candidate.is_absolute():
                candidate = path.parent / candidate
            entries.append(str(candidate))
    return entries


@dataclass(frozen=True)
class CorpusResult:
    datasets: tuple[Dataset, ...]
    failures: tuple[tuple[str, str], ...]


def load_corpus(manifest, cache_dir, fetch=None) -> CorpusResult:
    """Load a mixed list of OpenML ids and local files, order preserved.

    Per-entry failures are collected, not fatal; an all-failed manifest is.
    Duplicate dataset names get a disambiguating suffix so each corpus
    member stays individually addressable.
    """
    entries = list(manifest)
    if not entries:
        raise CorpusError("empty manifest")
    datasets: list[Dataset] = []
    failures: list[tuple[str, str]] = []
    taken: set[str] = set()
    for entry in entries:
        try:
            if isinstance(entry, int):
                ds = fetch_dataset(entry, cache_dir, fetch=fetch)
            else:
                ds = load_dataset_file(entry)
        except Exception as exc:  # noqa: BLE001 - reported per entry
            log.warning("corpus entry %r failed: %s", entry, exc)
            failures.append((str(entry), f"{type(exc).__name__}: {exc}"))
            continue
        name, count = ds.name, 1
        while name in taken:  # a suffix that an earlier name holds is skipped too
            count += 1
            name = f"{ds.name}~{count}"
        taken.add(name)
        datasets.append(replace(ds, name=name) if count > 1 else ds)
    if not datasets:
        raise CorpusError("every manifest entry failed")
    return CorpusResult(tuple(datasets), tuple(failures))
