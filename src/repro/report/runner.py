"""Report orchestration: ``report run`` / ``render`` / ``check``.

* :func:`run_report` executes the experiment runners (routing every
  figure/table's rows through the result store), writes the claim
  verdicts and run manifest, and renders EXPERIMENTS.md.
* :func:`render_report` rewrites EXPERIMENTS.md from the store alone —
  no experiment is re-run, so it is instant and scale-independent.
* :func:`check_report` re-runs the committed configuration into a
  temporary store and reports every table, verdict, manifest, or
  document drift as a human-readable message (empty list = clean).
"""

from __future__ import annotations

import sys
import tempfile
import time
from itertools import zip_longest
from pathlib import Path

from ..engine import SweepExecutor, workers_from_env
from ..errors import ExperimentError
from ..obs import trace as obs_trace
from ..experiments import (
    adapter_model_from_env,
    run_fig3,
    run_fig4,
    run_fig5a,
    run_fig5b,
    run_fig6a,
    run_fig6b,
    run_table1,
    scale_from_env,
)
from ..experiments.common import QUICK_MATRICES, QUICK_NNZ
from ..sparse.suite import SUITE_SEED
from .claims import claim_tolerances, claim_verdicts
from .render import EXPERIMENT_ORDER, render_document
from .store import ResultStore, manifest_identity

#: Committed quick-scale store + document (the `--check` reference).
DEFAULT_STORE_DIR = Path("results/store")
DEFAULT_DOC_PATH = Path("EXPERIMENTS.md")

#: Defaults for full-scale runs — regenerable, never committed.
FULL_STORE_DIR = Path("results/full")
FULL_DOC_PATH = Path("results/full/EXPERIMENTS.md")

#: The experiment registry — the CLI, ``report run`` and the serve
#: protocol dispatch off this single map, so a new experiment is added
#: exactly once.
RUNNERS = {
    "table1": run_table1,
    "fig3": run_fig3,
    "fig4": run_fig4,
    "fig5a": run_fig5a,
    "fig5b": run_fig5b,
    "fig6a": run_fig6a,
    "fig6b": run_fig6b,
}

#: Runners with no matrix grid: they take no engine kwargs.
PARAMLESS = ("table1", "fig6a")


def _resolve(
    quick: bool,
    max_nnz: int | None,
    model: str | None,
    workers: int | None,
    matrices: tuple[str, ...] | None = None,
) -> dict:
    """Turn CLI/env knobs into the manifest's run configuration."""
    if matrices is None and quick:
        matrices = QUICK_MATRICES
    return {
        "matrices": list(matrices) if matrices else None,
        "scale_nnz": max_nnz or (QUICK_NNZ if quick else scale_from_env()),
        "adapter_model": model or adapter_model_from_env(),
        "workers": workers if workers is not None else workers_from_env(),
        "seed": SUITE_SEED,
    }


def _runner_kwargs(name: str, config: dict, executor: SweepExecutor) -> dict:
    if name in PARAMLESS:
        return {}
    kwargs = {
        "max_nnz": config["scale_nnz"],
        "model": config["adapter_model"],
        "executor": executor,
    }
    if config["matrices"]:
        kwargs["matrices"] = tuple(config["matrices"])
    return kwargs


def run_report(
    store_dir: Path | str = DEFAULT_STORE_DIR,
    doc_path: Path | str = DEFAULT_DOC_PATH,
    *,
    quick: bool = False,
    max_nnz: int | None = None,
    model: str | None = None,
    workers: int | None = None,
    matrices: tuple[str, ...] | None = None,
    experiments: tuple[str, ...] | None = None,
    corpus: str | None = None,
    stream=None,
) -> dict:
    """Run the experiments, persist the store, render the document.

    Returns the manifest that was written.  ``experiments`` restricts
    the run to a subset of :data:`repro.report.render.EXPERIMENT_ORDER`
    (tests use this to keep store round-trips fast); claims whose
    experiment is excluded are recorded as ``missing``.  The manifest
    records each experiment's sweep backends (drift-checked) alongside
    the volatile execution knobs (workers, cache totals).

    ``corpus`` names a corpus whose family roll-up rides along in the
    store (``corpus_<kind>.csv`` + ``corpus_rollup.csv`` tables and a
    drift-checked ``corpus`` manifest record).  The default: canonical
    quick runs (``quick=True`` with the full experiment set) include
    the offline ``quick`` corpus, so the docs-drift gate validates the
    roll-up tables too; pass ``corpus=""`` to disable explicitly.
    """
    stream = sys.stdout if stream is None else stream
    names = experiments or EXPERIMENT_ORDER
    unknown = [n for n in names if n not in RUNNERS]
    if unknown:
        raise ExperimentError(f"unknown experiments {unknown}")
    if corpus is None:
        corpus = "quick" if (quick and experiments is None) else ""

    config = _resolve(quick, max_nnz, model, workers, matrices)
    executor = SweepExecutor(config["workers"])
    store = ResultStore(store_dir)

    results: dict[str, dict] = {}
    recorded: dict[str, dict] = {}
    started = time.time()
    print(
        f"# report run (scale={config['scale_nnz']}, "
        f"model={config['adapter_model']}, workers={config['workers']})",
        file=stream,
    )
    try:
        for name in names:
            t0 = time.time()
            stats_before = dict(executor.stats)
            with obs_trace.span("report.experiment", name=name) as espan:
                result = RUNNERS[name](**_runner_kwargs(name, config, executor))
                espan.set(rows=len(result["rows"]))
            results[name] = result
            store.write_table(name, result["rows"])
            recorded[name] = {
                "rows": len(result["rows"]),
                # The sweep backends this experiment runs on — declared by
                # the runner, unioned with any `kind` column its rows kept
                # (empty for paramless experiments).  Part of the drift-
                # checked identity, so silently rerouting an experiment
                # onto a different backend fails `report check`.
                "backends": sorted(
                    set(result.get("backends", ()))
                    | {row["kind"] for row in result["rows"] if "kind" in row}
                ),
                "summary": result["summary"],
            }
            delta = {
                key: executor.stats[key] - stats_before[key]
                for key in executor.stats
            }
            print(
                f"  {name}: {len(result['rows'])} rows, {delta['tasks']} tasks, "
                f"{delta['row_hits']} reused, "
                f"cache {delta['cache_hits']}/{delta['cache_misses']} hit/miss "
                f"[{time.time() - t0:.1f}s]",
                file=stream,
            )
        corpus_record = None
        if corpus:
            # Imported lazily: repro.corpus builds on this module.
            from ..corpus import CorpusRunner
            from ..sparse.corpus import get_corpus

            t0 = time.time()
            runner = CorpusRunner(
                get_corpus(corpus),
                executor=executor,
                max_nnz=config["scale_nnz"],
                model=config["adapter_model"],
            )
            corpus_result = runner.run()
            store.write_table(f"corpus_{runner.kind}", corpus_result["rows"])
            store.write_table("corpus_rollup", corpus_result["rollup"])
            corpus_record = {
                "name": runner.corpus.name,
                "digest": runner.corpus.digest,
                "kind": runner.kind,
                "variants": list(runner.variants),
                "entries": len(runner.corpus.entries),
                "families": runner.corpus.families(),
                "rows": len(corpus_result["rows"]),
                "summary": corpus_result["summary"],
            }
            print(
                f"  corpus {runner.corpus.name!r}: "
                f"{len(corpus_result['rows'])} rows over "
                f"{len(runner.corpus.entries)} entries "
                f"[{time.time() - t0:.1f}s]",
                file=stream,
            )
    finally:
        # The persistent pool belongs to this run; release its workers.
        executor.close()

    store.write_table("claims", claim_verdicts(results))
    manifest = dict(config)
    manifest["tolerances"] = claim_tolerances()
    manifest["experiments"] = recorded
    if corpus_record is not None:
        manifest["corpus"] = corpus_record
    manifest["cache"] = {
        "hits": executor.stats["cache_hits"],
        "misses": executor.stats["cache_misses"],
        "evictions": executor.stats["cache_evictions"],
    }
    store.write_manifest(manifest)

    doc_path = Path(doc_path)
    doc_path.parent.mkdir(parents=True, exist_ok=True)
    doc_path.write_text(render_document(store))
    print(
        f"wrote {store.root}/ ({len(names)} tables + claims + manifest) "
        f"and {doc_path} "
        f"[{time.time() - started:.1f}s; {executor.stats['tasks']} tasks, "
        f"{executor.stats['row_hits']} reused, "
        f"cache {executor.stats['cache_hits']}/{executor.stats['cache_misses']} "
        f"hit/miss]",
        file=stream,
    )
    return store.read_manifest()


def render_report(
    store_dir: Path | str = DEFAULT_STORE_DIR,
    doc_path: Path | str = DEFAULT_DOC_PATH,
    *,
    stream=None,
) -> Path:
    """Rewrite ``doc_path`` from the store alone (no experiment runs)."""
    stream = sys.stdout if stream is None else stream
    doc_path = Path(doc_path)
    doc_path.parent.mkdir(parents=True, exist_ok=True)
    doc_path.write_text(render_document(ResultStore(store_dir)))
    print(f"rendered {doc_path} from {store_dir}/", file=stream)
    return doc_path


def _first_diff(committed: str, fresh: str) -> str:
    pairs = zip_longest(committed.splitlines(), fresh.splitlines())
    for lineno, (old, new) in enumerate(pairs, 1):
        if old != new:
            return f"first difference at line {lineno}: {old!r} != {new!r}"
    return "content identical, trailing bytes differ"


def check_report(
    store_dir: Path | str = DEFAULT_STORE_DIR,
    doc_path: Path | str = DEFAULT_DOC_PATH,
    *,
    quick: bool = False,
    max_nnz: int | None = None,
    model: str | None = None,
    workers: int | None = None,
    stream=None,
) -> list[str]:
    """Diff a fresh run against the committed store and document.

    With no explicit scale flags the committed manifest's own
    configuration is re-run, so a bare ``report check`` always compares
    like against like; explicit ``--quick``/``--nnz``/``--model`` are
    honoured and any disagreement with the committed manifest is
    itself reported as drift.  ``workers`` only changes how the fresh
    run executes (it is a volatile manifest key), so a pooled check
    proves the committed store byte-stable under parallel execution.
    Returns drift messages, empty if clean.
    """
    stream = sys.stdout if stream is None else stream
    committed = ResultStore(store_dir)
    doc_path = Path(doc_path)
    try:
        manifest = committed.read_manifest()
    except ExperimentError as exc:
        return [str(exc)]

    explicit_scale = quick or max_nnz is not None
    committed_matrices = manifest.get("matrices")
    run_kwargs = {
        "quick": quick,
        "max_nnz": max_nnz if explicit_scale else manifest.get("scale_nnz"),
        "model": model or manifest.get("adapter_model"),
        "workers": workers,
        "matrices": None
        if explicit_scale
        else (tuple(committed_matrices) if committed_matrices else None),
        "experiments": tuple(
            n for n in EXPERIMENT_ORDER if n in manifest.get("experiments", {})
        ),
        # Re-run whatever corpus the committed manifest recorded (or
        # none), so the roll-up tables are part of the drift check.
        "corpus": manifest.get("corpus", {}).get("name", ""),
    }

    drift: list[str] = []
    with tempfile.TemporaryDirectory(prefix="repro-report-check-") as tmp:
        fresh_store_dir = Path(tmp) / "store"
        fresh_doc = Path(tmp) / "EXPERIMENTS.md"
        fresh_manifest = run_report(
            fresh_store_dir, fresh_doc, stream=stream, **run_kwargs
        )
        fresh = ResultStore(fresh_store_dir)

        identity_old = manifest_identity(manifest)
        identity_new = manifest_identity(fresh_manifest)
        for key in sorted(set(identity_old) | set(identity_new)):
            if identity_old.get(key) != identity_new.get(key):
                drift.append(
                    f"manifest drift in {key!r}: committed "
                    f"{identity_old.get(key)!r} != fresh {identity_new.get(key)!r}"
                )

        committed_tables = committed.list_tables()
        fresh_tables = fresh.list_tables()
        for name in sorted(set(committed_tables) | set(fresh_tables)):
            if name not in committed_tables:
                drift.append(f"table {name!r} missing from committed store")
                continue
            if name not in fresh_tables:
                drift.append(f"stale table {name!r} in committed store")
                continue
            old = committed.table_path(name).read_text()
            new = fresh.table_path(name).read_text()
            if old != new:
                drift.append(f"table {name!r} drifted: {_first_diff(old, new)}")

        rendered = fresh_doc.read_text()
        if not doc_path.is_file():
            drift.append(f"document {doc_path} is missing")
        elif doc_path.read_text() != rendered:
            drift.append(
                f"document {doc_path} is stale: "
                f"{_first_diff(doc_path.read_text(), rendered)}"
            )

    for message in drift:
        print(f"DRIFT: {message}", file=stream)
    if not drift:
        print(f"check clean: {store_dir}/ and {doc_path} match a fresh run", file=stream)
    return drift
