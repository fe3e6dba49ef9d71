"""Matrix corpora: manifests, fetch/cache, and the fast-load format.

The paper's headline claims target unstructured SuiteSparse matrices;
this module is the ingestion side of the corpus runner
(:mod:`repro.corpus`).  Three pieces:

* **Manifests** — a :class:`Corpus` is a named tuple of
  :class:`CorpusEntry` records.  An entry is either *synthetic* (one of
  the twenty :data:`repro.sparse.suite.PAPER_SUITE` generator recipes —
  the built-in family), *local* (a MatrixMarket file on disk, e.g. the
  committed CI fixtures under ``tests/data/corpus/``), or
  *suitesparse* (a SuiteSparse collection name/group/URL, fetched over
  the network only when fetching is explicitly enabled).  Manifests can
  also be loaded from a JSON file (:func:`load_corpus_manifest`).

* **Cache** — :class:`MatrixCache` is a content-addressed on-disk
  cache: each non-synthetic entry is ingested once (download or local
  read → MatrixMarket parse → fast-load write) into
  ``<cache>/<name>-<digest12>.npz`` where the digest identifies the
  source bytes.  Offline mode (the default everywhere) never touches
  the network: a *local* entry may be (re-)ingested from its file, a
  *suitesparse* entry must already be cached and valid or the cache
  raises a clear :class:`~repro.errors.CorpusError`.

* **Fast-load format** — an ``.npz`` holding the CSR arrays plus a
  JSON metadata record with a checksum over the array bytes.
  :func:`load_fastload` validates the checksum on every load, so a
  corrupted cache artifact is detected (and re-ingested when the
  source is still reachable) instead of silently feeding bad indices
  into a sweep.  Loading is a ``np.load`` — no MatrixMarket parsing on
  the hot path.

Engine integration: a cached corpus matrix travels through the sweep
engine under the name ``corpus:<npz path>``
(:func:`matrix_name` / :func:`load_corpus_name`);
:meth:`repro.engine.cache.AnalysisCache.matrix` resolves the prefix, so
every registered sweep backend — and the executor's sharding — works
on corpus entries unchanged.
"""

from __future__ import annotations

import gzip
import hashlib
import io
import json
import os
import tarfile
import tempfile
import zipfile
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from ..errors import CorpusError, ReproError
from .csr import CsrMatrix
from .mmio import read_matrix_market
from .suite import (
    CORPUS_NAME_PREFIX,
    PAPER_SUITE,
    SUITE_SEED,
    get_spec,
    is_corpus_name,
)

#: bump when the on-disk ``.npz`` layout changes shape.
FASTLOAD_VERSION = 1

#: default on-disk cache for ingested corpus matrices (gitignored
#: scratch; override with ``REPRO_CORPUS_CACHE`` or ``cache_dir=``).
DEFAULT_CACHE_DIR = Path("results/corpus_cache")

#: the committed CI fixture files (real MatrixMarket ingestion without
#: network): general / symmetric / pattern / gzipped coordinate files.
FIXTURE_DIR = Path("tests/data/corpus")

_SOURCES = ("synthetic", "local", "suitesparse")


def cache_dir_from_env(default: Path | str = DEFAULT_CACHE_DIR) -> Path:
    """Corpus cache directory from ``REPRO_CORPUS_CACHE``."""
    raw = os.environ.get("REPRO_CORPUS_CACHE", "")
    return Path(raw) if raw else Path(default)


@dataclass(frozen=True)
class CorpusEntry:
    """One corpus matrix: where it comes from and how it is grouped.

    ``family`` is the roll-up axis of the report (structure class for
    synthetic entries, SuiteSparse group or a free-form label for real
    ones).  Exactly one source applies:

    * ``synthetic`` — ``name`` must be a paper-suite matrix; the entry
      is instantiated by the generators (no cache involved).
    * ``local`` — ``path`` names a MatrixMarket file (``.mtx`` or
      ``.mtx.gz``) on disk.
    * ``suitesparse`` — ``url`` names a collection archive
      (``.tar.gz`` with an ``.mtx`` member, or a bare ``.mtx[.gz]``);
      ``sha256`` optionally pins the expected archive digest.
    """

    name: str
    family: str
    source: str = "synthetic"
    url: str = ""
    path: str = ""
    sha256: str = ""
    group: str = ""

    def __post_init__(self) -> None:
        if self.source not in _SOURCES:
            raise CorpusError(
                f"corpus entry {self.name!r}: unknown source {self.source!r}; "
                f"expected one of {_SOURCES}"
            )
        if self.source == "synthetic":
            try:
                get_spec(self.name)
            except ReproError as exc:
                raise CorpusError(
                    f"synthetic corpus entry {self.name!r} is not a suite "
                    f"matrix: {exc}"
                ) from exc
        if self.source == "local" and not self.path:
            raise CorpusError(f"local corpus entry {self.name!r} needs a path")
        if self.source == "suitesparse" and not self.url:
            raise CorpusError(
                f"suitesparse corpus entry {self.name!r} needs a url"
            )

    @property
    def identity(self) -> tuple:
        """The fields that name this entry's source (cache/digest key)."""
        return (
            self.name, self.family, self.source, self.url, self.path,
            self.sha256, self.group,
        )


@dataclass(frozen=True)
class Corpus:
    """A named, ordered set of corpus entries."""

    name: str
    entries: tuple[CorpusEntry, ...]

    def __post_init__(self) -> None:
        seen: set[str] = set()
        for entry in self.entries:
            if entry.name in seen:
                raise CorpusError(
                    f"corpus {self.name!r} repeats entry {entry.name!r}"
                )
            seen.add(entry.name)

    @property
    def digest(self) -> str:
        """12-hex digest of the entry identities (job-key ingredient)."""
        payload = json.dumps(
            [entry.identity for entry in self.entries], separators=(",", ":")
        )
        return hashlib.sha256(payload.encode()).hexdigest()[:12]

    def families(self) -> list[str]:
        """Distinct family labels, sorted."""
        return sorted({entry.family for entry in self.entries})


# -- built-in corpora --------------------------------------------------------


def synthetic_entries(names: tuple[str, ...]) -> tuple[CorpusEntry, ...]:
    """Suite matrices as corpus entries (family = structure class)."""
    return tuple(
        CorpusEntry(name=name, family=get_spec(name).kind) for name in names
    )


def fixture_entries(root: Path | str = FIXTURE_DIR) -> tuple[CorpusEntry, ...]:
    """The committed MatrixMarket fixture files as ``local`` entries."""
    root = Path(root)
    return tuple(
        CorpusEntry(name=name, family="fixture", source="local",
                    path=str(root / filename))
        for name, filename in (
            ("tiny_general", "tiny_general.mtx"),
            ("tiny_symmetric", "tiny_symmetric.mtx"),
            ("tiny_pattern", "tiny_pattern.mtx"),
            ("tiny_banded", "tiny_banded.mtx.gz"),
        )
    )


def builtin_corpus() -> Corpus:
    """All twenty paper-suite recipes as the built-in synthetic family."""
    return Corpus(
        "builtin", synthetic_entries(tuple(s.name for s in PAPER_SUITE))
    )


def quick_corpus() -> Corpus:
    """The CI canary: the three quick suite matrices plus the committed
    fixture files (real ingestion path, no network)."""
    return Corpus(
        "quick",
        synthetic_entries(("pwtk", "G3_circuit", "msc01440"))
        + fixture_entries(),
    )


def full_corpus() -> Corpus:
    """The committed full-scale tier: every suite recipe plus the
    fixtures — everything regenerable offline."""
    return Corpus(
        "full",
        synthetic_entries(tuple(s.name for s in PAPER_SUITE))
        + fixture_entries(),
    )


def suitesparse_demo_corpus() -> Corpus:
    """Two real SuiteSparse archives — the network fetch path.  Needs
    ``offline=False`` (``corpus run --fetch``) on first use; afterwards
    the cached fast-load artifacts serve offline runs."""
    base = "https://suitesparse-collection-website.engr.tamu.edu/MM"
    return Corpus(
        "suitesparse-demo",
        (
            CorpusEntry(
                name="bcsstk14", family="stiffness", source="suitesparse",
                group="HB", url=f"{base}/HB/bcsstk14.tar.gz",
            ),
            CorpusEntry(
                name="west0479", family="chemical", source="suitesparse",
                group="HB", url=f"{base}/HB/west0479.tar.gz",
            ),
        ),
    )


_BUILTIN_CORPORA: dict[str, Callable[[], Corpus]] = {
    "quick": quick_corpus,
    "builtin": builtin_corpus,
    "full": full_corpus,
    "suitesparse-demo": suitesparse_demo_corpus,
}


def corpus_names() -> tuple[str, ...]:
    """Registered built-in corpus names."""
    return tuple(_BUILTIN_CORPORA)


def get_corpus(name: str) -> Corpus:
    """A registered corpus by name, or a JSON manifest by path."""
    if name in _BUILTIN_CORPORA:
        return _BUILTIN_CORPORA[name]()
    if name.endswith(".json") and Path(name).is_file():
        return load_corpus_manifest(name)
    raise CorpusError(
        f"unknown corpus {name!r}; registered: {', '.join(corpus_names())} "
        "(or a path to a JSON corpus manifest)"
    )


def corpus_definition(corpus: Corpus) -> dict:
    """``corpus`` as a plain-JSON manifest payload (the inverse of
    :func:`corpus_from_definition`).

    The corpus runner embeds this in ``corpus_manifest.json`` so a tier
    built from an ad-hoc ``--corpus path.json`` stays checkable after
    the original manifest file is gone or moved.
    """
    entries = []
    for entry in corpus.entries:
        record = {"name": entry.name, "family": entry.family,
                  "source": entry.source}
        for field in ("url", "path", "sha256", "group"):
            value = getattr(entry, field)
            if value:
                record[field] = value
        entries.append(record)
    return {"name": corpus.name, "entries": entries}


def corpus_from_definition(payload: dict, label: str = "definition") -> Corpus:
    """Build a :class:`Corpus` from a manifest payload (an object with
    a ``name`` and an ``entries`` list); ``label`` names the source in
    error messages."""
    if not isinstance(payload, dict) or not isinstance(payload.get("entries"), list):
        raise CorpusError(
            f"corpus {label} must be an object with an 'entries' list"
        )
    name = payload.get("name") or label
    entries = []
    for record in payload["entries"]:
        if not isinstance(record, dict):
            raise CorpusError(f"corpus {label}: entries must be objects")
        unknown = sorted(
            set(record) - {"name", "family", "source", "url", "path", "sha256", "group"}
        )
        if unknown:
            raise CorpusError(
                f"corpus {label}: unknown entry fields {unknown}"
            )
        try:
            entries.append(CorpusEntry(**record))
        except TypeError as exc:
            raise CorpusError(f"corpus {label}: {exc}") from exc
    return Corpus(str(name), tuple(entries))


def load_corpus_manifest(path: Path | str) -> Corpus:
    """Parse a JSON corpus manifest::

        {"name": "mine", "entries": [
            {"name": "bcsstk14", "family": "stiffness",
             "source": "suitesparse", "group": "HB",
             "url": "https://.../HB/bcsstk14.tar.gz"},
            {"name": "local_case", "family": "fem",
             "source": "local", "path": "cases/local_case.mtx"}]}
    """
    path = Path(path)
    try:
        payload = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise CorpusError(f"cannot read corpus manifest {path}: {exc}") from exc
    if isinstance(payload, dict) and not payload.get("name"):
        payload = {**payload, "name": path.stem}
    return corpus_from_definition(payload, label=f"manifest {path}")


# -- fast-load format --------------------------------------------------------


def _arrays_digest(
    row_ptr: np.ndarray, col_idx: np.ndarray, val: np.ndarray, shape: tuple
) -> str:
    digest = hashlib.sha256()
    digest.update(np.asarray(shape, dtype=np.int64).tobytes())
    for array in (row_ptr, col_idx, val):
        digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()


def save_fastload(
    matrix: CsrMatrix, path: Path | str, source_digest: str = ""
) -> Path:
    """Write ``matrix`` as a checksummed fast-load ``.npz`` (atomic)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    shape = (matrix.nrows, matrix.ncols)
    meta = {
        "version": FASTLOAD_VERSION,
        "shape": list(shape),
        "nnz": int(matrix.nnz),
        "source_digest": source_digest,
        "digest": _arrays_digest(matrix.row_ptr, matrix.col_idx, matrix.val, shape),
    }
    handle, tmp_name = tempfile.mkstemp(
        dir=path.parent, prefix=path.name, suffix=".tmp"
    )
    try:
        with os.fdopen(handle, "wb") as tmp:
            np.savez(
                tmp,
                row_ptr=matrix.row_ptr,
                col_idx=matrix.col_idx,
                val=matrix.val,
                meta=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8),
            )
        os.replace(tmp_name, path)
    except BaseException:
        if os.path.exists(tmp_name):
            os.unlink(tmp_name)
        raise
    return path


def load_fastload(path: Path | str) -> CsrMatrix:
    """Load and checksum-validate one fast-load artifact.

    Raises :class:`~repro.errors.CorpusError` if the file is missing,
    unreadable, from a different format version, or its stored checksum
    does not match the array bytes (bit rot / truncated write).
    """
    path = Path(path)
    if not path.is_file():
        raise CorpusError(f"no fast-load artifact at {path}")
    try:
        with np.load(path) as data:
            meta = json.loads(bytes(data["meta"]).decode())
            row_ptr = data["row_ptr"]
            col_idx = data["col_idx"]
            val = data["val"]
    except (OSError, KeyError, ValueError, zipfile.BadZipFile) as exc:
        raise CorpusError(f"unreadable fast-load artifact {path}: {exc}") from exc
    if meta.get("version") != FASTLOAD_VERSION:
        raise CorpusError(
            f"fast-load artifact {path} is format v{meta.get('version')}; "
            f"this code reads v{FASTLOAD_VERSION} — re-ingest the entry"
        )
    shape = tuple(meta.get("shape", ()))
    if len(shape) != 2:
        raise CorpusError(f"fast-load artifact {path} has a malformed shape")
    if _arrays_digest(row_ptr, col_idx, val, shape) != meta.get("digest"):
        raise CorpusError(
            f"fast-load artifact {path} failed its checksum (corrupt cache); "
            "delete it or re-ingest the entry"
        )
    return CsrMatrix(shape[0], shape[1], row_ptr, col_idx, val)


def matrix_name(path: Path | str) -> str:
    """The engine matrix name of a cached corpus artifact."""
    return CORPUS_NAME_PREFIX + str(path)


def load_corpus_name(name: str) -> CsrMatrix:
    """Resolve a ``corpus:<path>`` engine matrix name."""
    if not is_corpus_name(name):
        raise CorpusError(f"not a corpus matrix name: {name!r}")
    return load_fastload(name[len(CORPUS_NAME_PREFIX):])


# -- fetch -------------------------------------------------------------------


def _fetch_url(url: str, timeout: float = 60.0) -> bytes:
    """Download one archive (only called when fetching is enabled)."""
    from urllib.request import urlopen

    try:
        with urlopen(url, timeout=timeout) as response:  # noqa: S310
            return response.read()
    except Exception as exc:
        raise CorpusError(f"fetch failed for {url}: {exc}") from exc


def _matrix_market_bytes(data: bytes, label: str) -> bytes:
    """Extract the ``.mtx`` payload from an archive's raw bytes.

    SuiteSparse MM archives are ``.tar.gz`` with a ``<group>/<name>/
    <name>.mtx`` member; bare ``.mtx`` and ``.mtx.gz`` payloads pass
    through.
    """
    if data[:2] == b"\x1f\x8b":  # gzip magic: a tarball or a bare .mtx.gz
        try:
            with tarfile.open(fileobj=io.BytesIO(data), mode="r:gz") as archive:
                members = [
                    m for m in archive.getmembers()
                    if m.isfile() and m.name.endswith(".mtx")
                ]
                if not members:
                    raise CorpusError(f"no .mtx member in archive for {label}")
                extracted = archive.extractfile(members[0])
                assert extracted is not None
                return extracted.read()
        except tarfile.ReadError:
            try:
                return gzip.decompress(data)
            except OSError as exc:
                raise CorpusError(
                    f"cannot decompress archive for {label}: {exc}"
                ) from exc
    return data


# -- the cache ---------------------------------------------------------------


class MatrixCache:
    """Content-addressed on-disk cache of ingested corpus matrices.

    ``fetcher`` (a ``url -> bytes`` callable) is injectable for tests;
    the default performs a real download and is only reached when
    ``ensure`` is called with ``offline=False``.
    """

    def __init__(
        self,
        root: Path | str | None = None,
        fetcher: Callable[[str], bytes] | None = None,
    ) -> None:
        self.root = Path(root) if root is not None else cache_dir_from_env()
        self.fetcher = fetcher or _fetch_url

    def source_digest(self, entry: CorpusEntry) -> str:
        """The digest addressing ``entry``'s cache artifact.

        Local files hash their current bytes (an edited fixture gets a
        fresh artifact and a fresh resume key); suitesparse entries use
        the declared ``sha256`` when pinned, else the (name, url)
        identity — their true content digest is recorded inside the
        artifact at ingest time.
        """
        if entry.source == "synthetic":
            raise CorpusError(
                f"synthetic entry {entry.name!r} is generated, not cached"
            )
        if entry.source == "local":
            path = Path(entry.path)
            if not path.is_file():
                raise CorpusError(
                    f"local corpus entry {entry.name!r}: no file at {path}"
                )
            return hashlib.sha256(path.read_bytes()).hexdigest()
        if entry.sha256:
            return entry.sha256
        return hashlib.sha256(f"{entry.name}|{entry.url}".encode()).hexdigest()

    def entry_path(self, entry: CorpusEntry, digest: str | None = None) -> Path:
        """Cache location for ``entry`` (content-addressed filename)."""
        digest = digest if digest is not None else self.source_digest(entry)
        return self.root / f"{entry.name}-{digest[:12]}.npz"

    def ensure(self, entry: CorpusEntry, offline: bool = True) -> tuple[Path, str]:
        """Ingest ``entry`` if needed; return ``(artifact path, digest)``.

        A cached artifact is checksum-validated before reuse.  On a
        failed checksum the entry is re-ingested when its source is
        still reachable (a local file, or the network with
        ``offline=False``); a suitesparse entry in offline mode raises
        a clear :class:`~repro.errors.CorpusError` instead.
        """
        digest = self.source_digest(entry)
        path = self.entry_path(entry, digest)
        if path.is_file():
            try:
                load_fastload(path)
                return path, digest
            except CorpusError:
                if entry.source == "suitesparse" and offline:
                    raise CorpusError(
                        f"cached artifact for {entry.name!r} at {path} is "
                        "corrupt and offline mode forbids re-fetching; "
                        "delete it and rerun with fetching enabled"
                    ) from None
                # fall through: re-ingest from the source
        if entry.source == "local":
            raw = Path(entry.path).read_bytes()
        else:
            if offline:
                raise CorpusError(
                    f"corpus entry {entry.name!r} is not cached under "
                    f"{self.root} and offline mode forbids fetching {entry.url}"
                )
            raw = self.fetcher(entry.url)
            if entry.sha256:
                actual = hashlib.sha256(raw).hexdigest()
                if actual != entry.sha256:
                    raise CorpusError(
                        f"fetched archive for {entry.name!r} hashes to "
                        f"{actual}, expected {entry.sha256}"
                    )
        matrix = self._parse(_matrix_market_bytes(raw, entry.name), entry)
        save_fastload(matrix, path, source_digest=digest)
        return path, digest

    def _parse(self, mtx_bytes: bytes, entry: CorpusEntry) -> CsrMatrix:
        suffix = ".mtx.gz" if mtx_bytes[:2] == b"\x1f\x8b" else ".mtx"
        handle, tmp_name = tempfile.mkstemp(suffix=suffix)
        try:
            with os.fdopen(handle, "wb") as tmp:
                tmp.write(mtx_bytes)
            return read_matrix_market(tmp_name)
        finally:
            os.unlink(tmp_name)
