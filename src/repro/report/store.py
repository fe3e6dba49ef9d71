"""Schema-versioned persistent result store.

One :class:`ResultStore` wraps one directory (``results/store/`` for
the committed quick-scale run, ``results/full/`` for full-scale runs)
holding

* ``<experiment>.csv`` — one tidy table per experiment, byte-stable
  across reruns of the same configuration;
* ``claims.csv`` — the machine-readable paper-claim verdicts
  (:func:`repro.report.claims.claim_verdicts`);
* ``manifest.json`` — the run manifest: schema version, scale,
  adapter model, matrix set, workers, suite seed, per-claim
  tolerances, engine cache hit/miss totals, and each experiment's
  headline summary plus the sweep backends it ran on.

Byte stability is the store's core contract: cells are serialised with
:func:`format_cell` (shortest-repr floats, ``\\n`` line endings) and
parsed back with :func:`parse_cell`, so ``write → read → write``
reproduces the file exactly and ``python -m repro report --check`` can
diff stored tables against a fresh run.
"""

from __future__ import annotations

import csv
import io
import json
from pathlib import Path

from ..errors import ExperimentError

#: Bump when the on-disk layout of tables or manifest changes shape.
#: v2: manifest gained ``cache`` and per-experiment ``backends``
#: records.  Dropping a volatile key is not a shape change: the version
#: is part of every committed manifest's identity, so a bump would read
#: as drift.
STORE_SCHEMA_VERSION = 2

MANIFEST_NAME = "manifest.json"

#: Manifest keys that may legitimately differ between two runs of the
#: same configuration (they do not affect any stored value): the
#: worker fan-out and the cache hit/miss totals (which depend on it).
VOLATILE_MANIFEST_KEYS = ("workers", "cache")


def format_cell(value) -> str:
    """Serialise one table cell deterministically.

    Floats use Python's shortest ``repr`` (``3.43`` not ``3.4300``),
    so a parsed-and-rewritten cell is byte-identical to the original.
    """
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def parse_cell(text: str):
    """Inverse of :func:`format_cell`: int, then float, else str.

    A numeric parse is accepted only when re-serialising it reproduces
    the input exactly, so write → read → write is byte-stable by
    construction: lookalikes that Python's casts would accept but
    reformat (``"1_000"``, ``"  12"``, ``"1e3"``, ``"007"``) stay
    strings.
    """
    for cast in (int, float):
        try:
            value = cast(text)
        except ValueError:
            continue
        if format_cell(value) == text:
            return value
    return text


def _columns(rows: list[dict]) -> list[str]:
    """Union of row keys in first-occurrence order."""
    columns: list[str] = []
    for row in rows:
        for key in row:
            if key not in columns:
                columns.append(key)
    return columns


class ResultStore:
    """Tables + manifest in one directory, written deterministically."""

    def __init__(
        self,
        root: Path | str,
        manifest_name: str = MANIFEST_NAME,
    ) -> None:
        self.root = Path(root)
        #: the corpus runner co-locates its tier in ``results/full/``
        #: under ``corpus_manifest.json``, so a full report run and a
        #: corpus run never clobber each other's manifests.
        self.manifest_name = manifest_name

    # -- tables ---------------------------------------------------------

    def table_path(self, name: str) -> Path:
        return self.root / f"{name}.csv"

    def list_tables(self) -> list[str]:
        """Stored table names, sorted (stable across filesystems)."""
        if not self.root.is_dir():
            return []
        return sorted(p.stem for p in self.root.glob("*.csv"))

    def write_table(self, name: str, rows: list[dict]) -> Path:
        """Persist one result table; returns the file written."""
        if not rows:
            raise ExperimentError(f"refusing to store empty table {name!r}")
        columns = _columns(rows)
        cells = [
            [format_cell(row.get(col, "")) for col in columns] for row in rows
        ]
        self.root.mkdir(parents=True, exist_ok=True)
        path = self.table_path(name)
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows(cells)
        path.write_text(buffer.getvalue())
        return path

    def read_table(self, name: str, parse: bool = True) -> list[dict]:
        """Load one table; ``parse=False`` keeps cells as raw strings."""
        path = self.table_path(name)
        if not path.is_file():
            raise ExperimentError(f"no stored table {name!r} in {self.root}")
        with path.open(newline="") as handle:
            reader = csv.reader(handle)
            try:
                columns = next(reader)
            except StopIteration:
                raise ExperimentError(f"stored table {name!r} is empty") from None
            rows = [
                {
                    col: (parse_cell(value) if parse else value)
                    for col, value in zip(columns, line)
                }
                for line in reader
            ]
        return rows

    def write_summary(self, name: str, summary: dict) -> Path:
        """Sidecar ``<name>.summary.json`` for standalone table writers.

        Benchmarks record one figure at a time and have no whole-run
        manifest; this keeps their headline numbers next to the table
        in the same deterministic serialisation the manifest uses.
        """
        self.root.mkdir(parents=True, exist_ok=True)
        path = self.root / f"{name}.summary.json"
        path.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
        return path

    # -- manifest -------------------------------------------------------

    @property
    def manifest_path(self) -> Path:
        return self.root / self.manifest_name

    def write_manifest(self, manifest: dict) -> Path:
        """Persist the run manifest (sorted keys, trailing newline)."""
        payload = dict(manifest)
        payload["schema_version"] = STORE_SCHEMA_VERSION
        self.root.mkdir(parents=True, exist_ok=True)
        self.manifest_path.write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n"
        )
        return self.manifest_path

    def read_manifest(self) -> dict:
        """Load and validate the manifest (schema version must match)."""
        if not self.manifest_path.is_file():
            raise ExperimentError(
                f"no manifest in {self.root}; "
                "generate the store with `python -m repro report run --quick`"
            )
        manifest = json.loads(self.manifest_path.read_text())
        version = manifest.get("schema_version")
        if version != STORE_SCHEMA_VERSION:
            raise ExperimentError(
                f"store schema v{version} in {self.root} does not match "
                f"this code's v{STORE_SCHEMA_VERSION}; regenerate the store"
            )
        return manifest


def manifest_identity(manifest: dict) -> dict:
    """The manifest minus :data:`VOLATILE_MANIFEST_KEYS`.

    Two runs of the same configuration must agree on this subset;
    ``report --check`` compares identities, not raw manifests, so a
    different ``--workers`` fan-out never reads as drift.
    """
    return {
        key: value
        for key, value in manifest.items()
        if key not in VOLATILE_MANIFEST_KEYS
    }
