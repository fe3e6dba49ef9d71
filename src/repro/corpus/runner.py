"""Resumable, journaled corpus sweeps.

:class:`CorpusRunner` executes one sweep configuration (backend kind,
variant set, format, scale, model) over every entry of a corpus, one
matrix group at a time, and makes the run *resumable*:

* **Job keys.**  Each entry's group is keyed by the full sweep
  configuration plus the entry's identity and source-content digest
  (:meth:`CorpusRunner.group_key`) — never by cache paths, so a
  relocated cache directory cannot alias or orphan completed work.

* **Journal.**  A completed group's rows are written atomically to
  ``<store>/corpus/<slug>.json`` (slug = hash of the job key) and the
  group's slug is appended to the corpus manifest
  (``corpus_manifest.json``).  A crash or SIGTERM between groups loses
  nothing; mid-group it loses at most that in-flight group.

* **Resume.**  A re-invocation recomputes each job key and *skips*
  every group whose slug is in the manifest and whose journal matches
  the key, replaying the journaled rows instead.  Because journaled
  rows are normalised to plain JSON types before use (exactly like
  freshly computed rows), a resumed run's tables are byte-identical to
  an uninterrupted run's.

The skipped/computed/failed tallies are folded into the executor's
``last_stats``/``stats`` via :meth:`SweepExecutor.add_stats`, so CLI
and service consumers observe corpus progress through the same counter
surface as every other sweep.

Fault injection for the crash/resume tests: pass ``fault_hook`` (or
set ``REPRO_CORPUS_FAULT_AFTER=N``) and the runner raises
:class:`InjectedFault` after the N-th *computed* group completes —
after its journal and manifest writes, exactly like a kill between
groups.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import tempfile
from pathlib import Path
from typing import Callable, Iterator, TextIO

import numpy as np

from ..engine import SweepExecutor, grid_points, index_stream_kinds
from ..errors import CorpusError, ReproError
from ..obs import trace as obs_trace
from ..report.claims import corpus_claim_tolerances, corpus_claim_verdicts
from ..report.rollup import corpus_claim_summary, family_rollup
from ..report.store import ResultStore
from ..sparse.corpus import (
    Corpus,
    MatrixCache,
    corpus_definition,
    corpus_names,
    get_corpus,
    matrix_name,
)
from ..sparse.suite import DEFAULT_MAX_NNZ, SUITE_SEED

logger = logging.getLogger(__name__)

#: backend kinds a corpus can sweep: the kinds that read a matrix's
#: index stream (``system`` sweeps need suite recipe metadata and
#: ``strided`` sweeps have no matrix input).
CORPUS_KINDS = index_stream_kinds()

#: default adapter-kind variant set: the paper's no-coalescer baseline,
#: the two headline MLP widths, and the sequential-window reference.
DEFAULT_VARIANTS = ("MLPnc", "MLP64", "MLP256", "SEQ256")

#: the corpus tier's manifest filename — distinct from the report
#: manifest so both tiers can share ``results/full/``.
CORPUS_MANIFEST_NAME = "corpus_manifest.json"

#: subdirectory of the store holding per-group journals.
JOURNAL_DIR = "corpus"


class InjectedFault(RuntimeError):
    """Raised by the fault-injection hook to simulate a mid-run kill.

    Deliberately *not* a :class:`~repro.errors.ReproError`: the runner
    must treat it like SIGTERM (no swallowing under ``keep_going``).
    """


def fault_hook_from_env() -> Callable[[int], None] | None:
    """A fault hook from ``REPRO_CORPUS_FAULT_AFTER`` (unset → None).

    ``REPRO_CORPUS_FAULT_AFTER=N`` kills the run (via
    :class:`InjectedFault`) once N groups have been *computed* this
    invocation — the CI resume job uses it to simulate a crash without
    process gymnastics.
    """
    raw = os.environ.get("REPRO_CORPUS_FAULT_AFTER", "")
    if not raw:
        return None
    try:
        limit = int(raw)
    except ValueError:
        raise CorpusError(
            f"REPRO_CORPUS_FAULT_AFTER={raw!r} is not an integer"
        ) from None

    def hook(computed: int) -> None:
        if computed >= limit:
            raise InjectedFault(
                f"injected fault after {computed} computed groups"
            )

    return hook


def _plain(value):
    """Numpy scalars → Python scalars for JSON round-tripping."""
    if isinstance(value, (np.integer, np.floating, np.bool_)):
        return value.item()
    raise TypeError(f"not JSON-serialisable: {type(value).__name__}")


def _normalize_rows(rows: list[dict]) -> list[dict]:
    """Rows as they look after a JSON round-trip.

    Freshly computed rows may carry numpy scalars; journal-replayed
    rows never do.  Normalising both through JSON makes their store
    serialisation byte-identical — the resume contract's foundation.
    """
    return json.loads(json.dumps(rows, default=_plain))


def _write_json_atomic(path: Path, payload: dict) -> None:
    # No sort_keys: journaled rows must keep their column order, which
    # is what the store serialises tables in.
    path.parent.mkdir(parents=True, exist_ok=True)
    handle, tmp_name = tempfile.mkstemp(dir=path.parent, prefix=path.name)
    try:
        with os.fdopen(handle, "w") as tmp:
            json.dump(payload, tmp, indent=2)
            tmp.write("\n")
        os.replace(tmp_name, path)
    except BaseException:
        if os.path.exists(tmp_name):
            os.unlink(tmp_name)
        raise


class CorpusRunner:
    """Stream one sweep configuration over a corpus, resumably.

    ``store_dir=None`` runs ephemerally (no journal, no resume) — the
    sweep service uses that mode.  ``executor`` may be shared (the
    runner then leaves it open); when the runner creates its own it
    closes it at the end of :meth:`run`.

    Example — fixture corpus, ephemeral::

        >>> from repro.sparse.corpus import get_corpus
        >>> runner = CorpusRunner(get_corpus("quick"), max_nnz=12_000)
        >>> result = runner.run()          # doctest: +SKIP
        >>> sorted(result)                 # doctest: +SKIP
        ['counts', 'rollup', 'rows', 'summary']
    """

    def __init__(
        self,
        corpus: Corpus,
        executor: SweepExecutor | None = None,
        store_dir: Path | str | None = None,
        cache: MatrixCache | None = None,
        kind: str = "adapter",
        variants: tuple[str, ...] = DEFAULT_VARIANTS,
        fmt: str = "sell",
        max_nnz: int = DEFAULT_MAX_NNZ,
        model: str = "fast",
        offline: bool = True,
        keep_going: bool = False,
        claims: bool = False,
        fault_hook: Callable[[int], None] | None = None,
        stream: TextIO | None = None,
    ) -> None:
        if kind not in CORPUS_KINDS:
            raise CorpusError(
                f"corpus sweeps support kinds {CORPUS_KINDS}, not {kind!r}"
            )
        if not variants:
            raise CorpusError("corpus sweep needs at least one variant")
        self.corpus = corpus
        self._owns_executor = executor is None
        self.executor = executor or SweepExecutor()
        self.store = (
            ResultStore(store_dir, manifest_name=CORPUS_MANIFEST_NAME)
            if store_dir is not None
            else None
        )
        self.cache = cache or MatrixCache()
        self.kind = kind
        self.variants = tuple(variants)
        self.fmt = fmt
        self.max_nnz = int(max_nnz)
        self.model = model
        self.offline = offline
        self.keep_going = keep_going
        self.claims = claims
        self.fault_hook = fault_hook or fault_hook_from_env()
        self.stream = stream
        self.counts = {
            "corpus_groups": 0,
            "corpus_computed": 0,
            "corpus_skipped": 0,
            "corpus_failed": 0,
        }

    # -- identity and keys -------------------------------------------------

    def identity(self) -> dict:
        """The sweep-configuration fields every resume must match."""
        return {
            "corpus": self.corpus.name,
            "corpus_digest": self.corpus.digest,
            "kind": self.kind,
            "fmt": self.fmt,
            "scale_nnz": self.max_nnz,
            "model": self.model,
            "variants": list(self.variants),
            "seed": SUITE_SEED,
        }

    def _manifest_base(self) -> dict:
        """Identity plus, for ad-hoc corpora, the inline corpus
        definition.

        A tier built from ``--corpus path.json`` embeds its entry list
        in ``corpus_manifest.json`` so ``corpus check`` can rebuild the
        corpus without the original manifest file.  Registered corpora
        whose name still resolves to the same entry set skip the
        embedding — their definition is code, and the committed tiers'
        manifests stay byte-stable.
        """
        base = self.identity()
        needs_definition = True
        if self.corpus.name in corpus_names():
            needs_definition = (
                get_corpus(self.corpus.name).digest != self.corpus.digest
            )
        if needs_definition:
            base["corpus_definition"] = corpus_definition(self.corpus)
        return base

    def group_key(self, entry, source_digest: str) -> list:
        """The resumable job key of one entry's matrix group.

        Built from the sweep identity, the entry identity and the
        entry's source-content digest — never from cache paths, so the
        key survives cache relocation and changes when the source
        bytes (or the generators' seed) change.
        """
        # pure JSON types throughout: the key must compare equal to its
        # journaled (JSON round-tripped) form, so no tuples anywhere.
        return [
            "corpus-group",
            [[field, value] for field, value in self.identity().items()],
            list(entry.identity),
            source_digest,
        ]

    @staticmethod
    def _slug(key: list) -> str:
        payload = json.dumps(key, separators=(",", ":"), sort_keys=True)
        return hashlib.sha256(payload.encode()).hexdigest()[:16]

    def _journal_path(self, slug: str) -> Path:
        assert self.store is not None
        return self.store.root / JOURNAL_DIR / f"{slug}.json"

    # -- resume bookkeeping ------------------------------------------------

    def _manifest_completed(self) -> set[str]:
        """Slugs the store manifest records as completed — empty when
        there is no store, no manifest, or the identity changed."""
        if self.store is None:
            return set()
        try:
            manifest = self.store.read_manifest()
        except (ReproError, json.JSONDecodeError):
            return set()
        identity = self.identity()
        if {key: manifest.get(key) for key in identity} != identity:
            return set()
        completed = manifest.get("completed", [])
        return set(completed) if isinstance(completed, list) else set()

    def _replay(self, slug: str, key: list) -> list[dict] | None:
        """Journaled rows for ``slug`` iff the journal matches ``key``."""
        path = self._journal_path(slug)
        if not path.is_file():
            return None
        try:
            payload = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            logger.warning(
                "corpus journal %s unreadable (%s); recomputing the group",
                path.name,
                exc,
            )
            return None
        if payload.get("key") != key or not isinstance(payload.get("rows"), list):
            logger.warning(
                "corpus journal %s does not match its job key; recomputing "
                "the group",
                path.name,
            )
            return None
        return payload["rows"]

    def _record_completed(self, slug: str, key: list, entry, rows: list[dict]) -> None:
        """Journal one computed group and mark it completed (atomic)."""
        if self.store is None:
            return
        _write_json_atomic(
            self._journal_path(slug),
            {"key": key, "entry": entry.name, "rows": rows},
        )
        try:
            manifest = self.store.read_manifest()
        except ReproError:
            manifest = {}
        identity = self.identity()
        if {key_: manifest.get(key_) for key_ in identity} != identity:
            manifest = {}
        completed = [s for s in manifest.get("completed", []) if s != slug]
        manifest = {
            **self._manifest_base(),
            "completed": completed + [slug],
            "complete": False,
        }
        self.store.write_manifest(manifest)

    # -- execution ---------------------------------------------------------

    def _note(self, message: str) -> None:
        if self.stream is not None:
            print(message, file=self.stream)

    def _resolve(self, entry) -> tuple[str, str, int]:
        """(engine matrix name, source digest, max_nnz slot) for one
        entry — ingesting non-synthetic entries into the cache."""
        if entry.source == "synthetic":
            return entry.name, f"suite-seed-{SUITE_SEED}", self.max_nnz
        path, digest = self.cache.ensure(entry, offline=self.offline)
        return matrix_name(path), digest, 0

    def _present(self, entry, raw_rows: list[dict]) -> list[dict]:
        """Engine rows → corpus rows: entry-named, family-tagged, plain.

        Cache paths never reach a table (they are machine-local); the
        ``matrix`` column carries the corpus entry name and ``family``/
        ``source`` tag the roll-up axes.
        """
        rows = []
        for raw in raw_rows:
            row = {
                "matrix": entry.name,
                "family": entry.family,
                "source": entry.source,
            }
            row.update(
                (k, v) for k, v in raw.items() if k not in ("matrix", "max_nnz")
            )
            rows.append(row)
        return _normalize_rows(rows)

    def iter_groups(self) -> Iterator[tuple]:
        """Yield ``(entry, status, rows, slug)`` per corpus entry, in
        corpus order; status ∈ ``computed`` / ``skipped`` / ``failed``,
        and ``slug`` names the entry's job key (``None`` when it
        failed).

        Counter totals are folded into the executor's stats when the
        iteration ends — including via an injected fault or an error —
        so interrupted runs still report their progress.
        """
        completed = self._manifest_completed()
        try:
            for entry in self.corpus.entries:
                self.counts["corpus_groups"] += 1
                # The span closes before the yield so consumer time
                # (store writes, protocol framing) never pollutes the
                # entry's attributed wall-time.
                with obs_trace.span(
                    "corpus.entry", entry=entry.name
                ) as entry_span:
                    status, rows, slug = self._run_entry(entry, completed)
                    entry_span.set(status=status, rows=len(rows))
                yield entry, status, rows, slug
        finally:
            self.executor.add_stats(**self.counts)

    def _run_entry(
        self, entry, completed: set[str]
    ) -> tuple[str, list[dict], str | None]:
        """Resolve, replay-or-compute, and journal one corpus entry;
        returns its ``(status, rows, slug)``.  Non-``keep_going``
        failures propagate."""
        try:
            engine_name, digest, nnz_slot = self._resolve(entry)
        except ReproError as exc:
            self.counts["corpus_failed"] += 1
            self._note(f"  {entry.name}: FAILED ({exc})")
            if not self.keep_going:
                raise
            return "failed", [], None
        key = self.group_key(entry, digest)
        slug = self._slug(key)
        rows = self._replay(slug, key) if slug in completed else None
        if rows is not None:
            self.counts["corpus_skipped"] += 1
            self._note(f"  {entry.name}: skipped (journaled)")
            return "skipped", rows, slug
        try:
            points = grid_points(
                self.kind, (engine_name,), self.variants,
                (self.fmt,), nnz_slot, self.model,
            )
            rows = self._present(entry, self.executor.run(points))
        except ReproError as exc:
            self.counts["corpus_failed"] += 1
            self._note(f"  {entry.name}: FAILED ({exc})")
            if not self.keep_going:
                raise
            return "failed", [], None
        self._record_completed(slug, key, entry, rows)
        self.counts["corpus_computed"] += 1
        self._note(f"  {entry.name}: computed ({len(rows)} rows)")
        if self.fault_hook is not None:
            self.fault_hook(self.counts["corpus_computed"])
        return "computed", rows, slug

    def run(self) -> dict:
        """Execute (or resume) the whole corpus; persist tier tables.

        Returns ``{"rows", "rollup", "summary", "counts"}`` (plus
        ``"claims"`` when claim scoring is enabled).  With a store, the
        tier files are ``corpus_<kind>.csv``, ``corpus_rollup.csv``,
        optionally ``corpus_claims.csv``, and ``corpus_manifest.json``
        — all byte-stable across serial/pooled/sharded/resumed runs of
        the same configuration.
        """
        with obs_trace.span(
            "corpus.run",
            corpus=self.corpus.name,
            entries=len(self.corpus.entries),
        ):
            return self._run()

    def _run(self) -> dict:
        self._note(
            f"corpus {self.corpus.name!r}: {len(self.corpus.entries)} entries, "
            f"kind={self.kind}, variants={','.join(self.variants)}"
        )
        all_rows: list[dict] = []
        entry_records: list[dict] = []
        completed_slugs: list[str] = []
        try:
            for entry, _status, rows, slug in self.iter_groups():
                all_rows.extend(rows)
                entry_records.append(
                    {
                        "name": entry.name,
                        "family": entry.family,
                        "source": entry.source,
                        "rows": len(rows),
                    }
                )
                if slug is not None:
                    completed_slugs.append(slug)
        finally:
            if self._owns_executor:
                self.executor.close()
        if not all_rows:
            raise CorpusError(
                f"corpus {self.corpus.name!r} produced no rows "
                f"({self.counts['corpus_failed']} entries failed)"
            )
        with obs_trace.span("corpus.finalize", rows=len(all_rows)):
            rollup = family_rollup(all_rows)
            result: dict = {
                "rows": all_rows,
                "rollup": rollup,
                "summary": corpus_claim_summary(all_rows),
                "counts": dict(self.counts),
            }
            if self.claims:
                result["claims"] = corpus_claim_verdicts(result["summary"])
            if self.store is not None:
                tables = [f"corpus_{self.kind}", "corpus_rollup"]
                self.store.write_table(f"corpus_{self.kind}", all_rows)
                self.store.write_table("corpus_rollup", rollup)
                if self.claims:
                    self.store.write_table("corpus_claims", result["claims"])
                    tables.append("corpus_claims")
                manifest = {
                    **self._manifest_base(),
                    "completed": completed_slugs,
                    "complete": True,
                    "entries": entry_records,
                    "tables": sorted(tables),
                    "summary": result["summary"],
                }
                if self.claims:
                    manifest["tolerances"] = corpus_claim_tolerances()
                self.store.write_manifest(manifest)
        self._note(
            "  done: {corpus_computed} computed, {corpus_skipped} skipped, "
            "{corpus_failed} failed".format(**self.counts)
        )
        return result


def check_corpus(
    store_dir: Path | str,
    cache: MatrixCache | None = None,
    executor: SweepExecutor | None = None,
    stream: TextIO | None = None,
) -> list[str]:
    """Re-run a committed corpus tier and report drifting files.

    Reads the configuration from the committed ``corpus_manifest.json``,
    re-executes the corpus offline into a scratch store, and
    byte-compares every tier file.  Returns the names of files that
    differ (empty list = no drift).

    Ad-hoc tiers (built from ``--corpus path.json``) carry their corpus
    definition inline in the manifest, so they are checkable without
    re-supplying the original manifest path; registered corpora resolve
    by name as before.
    """
    from ..sparse.corpus import corpus_from_definition

    committed = ResultStore(store_dir, manifest_name=CORPUS_MANIFEST_NAME)
    manifest = committed.read_manifest()
    if not manifest.get("complete"):
        raise CorpusError(
            f"corpus tier in {store_dir} is incomplete; finish the run "
            "before checking it"
        )
    definition = manifest.get("corpus_definition")
    corpus = (
        corpus_from_definition(definition, label="inline corpus definition")
        if definition is not None
        else get_corpus(manifest["corpus"])
    )
    with tempfile.TemporaryDirectory() as scratch:
        runner = CorpusRunner(
            corpus,
            executor=executor,
            store_dir=scratch,
            cache=cache,
            kind=manifest["kind"],
            variants=tuple(manifest["variants"]),
            fmt=manifest["fmt"],
            max_nnz=manifest["scale_nnz"],
            model=manifest["model"],
            claims="tolerances" in manifest,
            stream=stream,
        )
        runner.run()
        fresh = runner.store
        assert fresh is not None
        drift = []
        names = sorted(
            set(manifest.get("tables", []))
            | set(committed.list_tables())
            | set(fresh.list_tables())
        )
        names = [name for name in names if name.startswith("corpus_")]
        for name in names:
            ours = committed.table_path(name)
            theirs = fresh.table_path(name)
            if not ours.is_file() or not theirs.is_file():
                drift.append(f"{name}: missing on one side")
            elif ours.read_bytes() != theirs.read_bytes():
                drift.append(f"{name}: table differs from a fresh run")
        if (
            committed.manifest_path.read_bytes()
            != fresh.manifest_path.read_bytes()
        ):
            drift.append(f"{CORPUS_MANIFEST_NAME}: manifest differs")
    return drift
