"""Command-line entry point.

::

    python -m repro suite                 # list the 20-matrix suite
    python -m repro report run --quick    # run experiments, write the
                                          #   result store + EXPERIMENTS.md
    python -m repro report render         # rewrite EXPERIMENTS.md from
                                          #   the store alone (no runs)
    python -m repro report check          # re-run the committed config,
                                          #   exit 1 on any drift
    python -m repro fig3|fig4|fig5a|...   # one experiment's table
    python -m repro stream pwtk MLP256    # one adapter run
    python -m repro sweep pwtk,hood MLP64,MLP256   # ad-hoc engine sweep
    python -m repro sweep pwtk ch1,ch2,ch4 --backend multichannel
    python -m repro serve                 # long-lived sweep service (HTTP)
    python -m repro serve --stdio         # same service over JSON lines
    python -m repro corpus list           # registered matrix corpora
    python -m repro corpus run --quick    # resumable corpus sweep (offline)
    python -m repro corpus run --full     # regenerate the committed
                                          #   results/full/ corpus tier
    python -m repro corpus check          # re-run the committed corpus
                                          #   tier, exit 1 on drift

Experiment, sweep and report commands accept engine flags:

``--workers N``   fan the grid out over N worker processes (a
                  cycle-model matrix group splits its variants over
                  them; the engine plans the split)
``--nnz N``       per-matrix nonzero budget
``--model M``     adapter timing model, ``fast`` or ``cycle``
``--quick``       tiny canary run (3 small matrices, 12k nonzeros)
``--trace PATH``  write an NDJSON span trace of the run (also honoured
                  by stream/serve/corpus; ``REPRO_TRACE`` supplies a
                  default; render it with ``tools/trace_summary.py``)

``stream`` runs one point and takes only ``--nnz``/``--model``;
``table1`` and ``fig6a`` have no matrix grid and take no engine flags.

``sweep`` additionally accepts ``--backend K`` to pick the sweep
backend kind (``adapter`` default, ``system``, ``multichannel``,
``scatter``, ``strided``); the variants argument is interpreted by the
chosen backend (adapter labels, system names, ``ch<N>`` channel
counts, ``s<bytes>`` strides).

``report`` additionally accepts:

``--store DIR``   result-store directory (default ``results/store``
                  for --quick/render/check, ``results/full`` otherwise)
``--out PATH``    document to write (default ``EXPERIMENTS.md`` for
                  --quick/render/check, ``results/full/EXPERIMENTS.md``)
``--check``       flag form of the ``check`` subcommand

``serve`` keeps one process pool and its per-worker analysis caches
warm across requests (see ARCHITECTURE.md, "Sweep as a service"):

``--host H --port P``  HTTP bind address (default 127.0.0.1:8787;
                       port 0 binds an ephemeral port and prints it)
``--stdio``            JSON-lines over stdin/stdout instead of HTTP
``--cache N``          response-cache slots (default 128)
``--verbose``          log each request
``--workers/--store``  as above (``--store`` names the result store
                       served as the experiment response cache)

``corpus`` sweeps a declared matrix corpus resumably:

``list [NAME]``        registered corpora, or one corpus's entries
``run``                sweep a corpus; with ``--store`` (or ``--full``)
                       each completed matrix group is journaled and a
                       re-invocation resumes, skipping completed groups
``check``              re-run the committed corpus tier offline and
                       byte-compare every ``corpus_*`` file (``--store``,
                       default the ``--full`` tier ``results/full``)
``--corpus NAME``      a registered corpus (``quick``/``builtin``/
                       ``full``/``suitesparse-demo``) or a JSON manifest path
``--full``             corpus ``full`` into ``results/full`` with
                       corpus-claim scoring (the committed tier)
``--kind K``           sweep backend: adapter (default), multichannel,
                       scatter
``--variants A,B``     variant list (default MLPnc,MLP64,MLP256,SEQ256)
``--fmt F``            traversal format, ``sell`` (default) or ``csr``
``--cache DIR``        fast-load cache directory (default
                       ``results/corpus_cache`` or REPRO_CORPUS_CACHE)
``--offline/--fetch``  offline is the default: only cached/local
                       matrices; ``--fetch`` allows downloads
``--keep-going``       record failed entries and continue
``--nnz/--model/--quick/--workers/--trace``  as above

Bare ``report`` means ``report run``.  A command line is parsed into
the JSON request a client would send to ``serve``, and
``repro.serve.protocol.canonicalize`` validates its knobs exactly as
it does for the service.  Environment knobs: ``REPRO_WORKERS``
defaults ``--workers`` wherever the engine runs; ``REPRO_SCALE_NNZ``
and ``REPRO_ADAPTER_MODEL`` default ``--nnz``/``--model`` for the
experiment commands and ``report`` only (a ``--quick`` run keeps its
own scale; ``sweep``, ``stream``, ``corpus run`` and served requests
never read them).
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from . import hostmem, obs
from .engine import SweepExecutor
from .errors import ReproError
from .experiments import format_table
from .experiments.common import adapter_model_from_env, scale_from_env
from .report.runner import PARAMLESS, RUNNERS
from .serve.protocol import canonicalize

#: Parsed arguments that are request fields; everything else on a line
#: (engine fan-out, paths, tracing) is a CLI-only setting.
_FIELDS = ("kind", "matrices", "variants", "fmt", "max_nnz", "model", "quick", "corpus")


class _Parser(argparse.ArgumentParser):
    """Parse errors raise :class:`ReproError` (printed as ``error: …``,
    exit 1) instead of printing argparse usage and exiting 2."""

    def error(self, message: str):
        raise ReproError(message)


def _port(text: str) -> int:
    """An HTTP port number (0 binds an ephemeral port)."""
    if not text.isdecimal() or int(text) > 65535:
        raise argparse.ArgumentTypeError(f"not a port number (0-65535): {text!r}")
    return int(text)


def _grammar() -> tuple[_Parser, dict]:
    """The command-line grammar and its commands' subparsers."""
    trace = _Parser(add_help=False)
    trace.add_argument("--trace")
    knobs = _Parser(add_help=False)
    knobs.add_argument("--nnz", dest="max_nnz", type=int)
    knobs.add_argument("--model")
    quick = _Parser(add_help=False)
    quick.add_argument("--quick", action="store_true")
    engine = _Parser(add_help=False)
    engine.add_argument("--workers", type=int)
    paths = _Parser(add_help=False)
    paths.add_argument("--store")
    paths.add_argument("--cache")
    grid = [trace, knobs, quick, engine]

    parser = _Parser(prog="python -m repro", add_help=False, allow_abbrev=False)
    commands = parser.add_subparsers(dest="command", required=True)

    def command(subparsers, name: str, parents: list, run) -> _Parser:
        sub = subparsers.add_parser(
            name, parents=parents, add_help=False, allow_abbrev=False
        )
        sub.set_defaults(run=run)
        return sub

    command(commands, "suite", [], _suite)
    for name in RUNNERS:
        command(commands, name, [trace] if name in PARAMLESS else grid, _experiment)

    stream = command(commands, "stream", [trace, knobs], _stream)
    # One name each; a one-item list is never split on commas.
    stream.add_argument("matrices", nargs=1, metavar="MATRIX")
    stream.add_argument("variants", nargs=1, metavar="VARIANT")

    sweep = command(commands, "sweep", grid, _sweep)
    sweep.add_argument("matrices")
    sweep.add_argument("variants")
    sweep.add_argument("--backend", dest="kind")

    report = command(commands, "report", grid, _report)
    report.add_argument("mode", nargs="?", default="run", choices=("run", "render", "check"))
    report.add_argument("--check", action="store_true")
    report.add_argument("--store")
    report.add_argument("--out")

    serve = command(commands, "serve", [trace, engine], _serve)
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=_port, default=8787)
    serve.add_argument("--stdio", action="store_true")
    serve.add_argument("--verbose", action="store_true")
    serve.add_argument("--cache", type=int, default=128)
    serve.add_argument("--store")

    corpus = commands.add_parser("corpus", add_help=False, allow_abbrev=False)
    modes = corpus.add_subparsers(dest="mode", required=True)
    listing = command(modes, "list", [], _corpus_list)
    listing.add_argument("name", nargs="?")
    listing.add_argument("--corpus")
    run = command(modes, "run", [trace, knobs, engine, paths], _corpus_run)
    tier = run.add_mutually_exclusive_group()
    tier.add_argument("--full", action="store_true")
    tier.add_argument("--quick", action="store_true")
    run.add_argument("--corpus")
    run.add_argument("--kind")
    run.add_argument("--variants")
    run.add_argument("--fmt")
    run.add_argument("--offline", action="store_true", default=True)
    run.add_argument("--fetch", dest="offline", action="store_false")
    run.add_argument("--keep-going", action="store_true")
    check = command(modes, "check", [trace, engine, paths], _corpus_check)
    # --full names the tier check defaults to (results/full).
    check.add_argument("--full", action="store_true")
    return parser, commands.choices


def _payload(args, cmd: str) -> dict:
    """The request a client would send for this line: the fields the
    line spells out (``canonicalize`` fills in the rest)."""
    fields = {
        key: value for key, value in vars(args).items()
        if key in _FIELDS and value is not None
    }
    return {"cmd": cmd, **fields}


def _executor(args) -> SweepExecutor:
    """The engine for this line (``SweepExecutor`` checks ``--workers``;
    commands without it fall back to ``REPRO_WORKERS``)."""
    return SweepExecutor(getattr(args, "workers", None))


def _tracing(args):
    """The ``cli.<command>`` root span, traced into ``--trace`` (else
    the ``REPRO_TRACE`` environment knob; neither = tracing off)."""
    path = args.trace or os.environ.get("REPRO_TRACE") or None
    return obs.tracing(path, root=f"cli.{args.command}")


def _suite(args) -> int:
    from .sparse.suite import suite_summary

    print(format_table(suite_summary()))
    return 0


def _experiment(args) -> int:
    payload = {**_payload(args, "experiment"), "name": args.command}
    if args.command not in PARAMLESS:
        # The experiment commands' env knobs; --quick keeps its scale.
        payload.setdefault("model", adapter_model_from_env())
        if not args.quick:
            payload.setdefault("max_nnz", scale_from_env())
    request = canonicalize(payload)
    with _executor(args) as executor, _tracing(args):
        result = request.run(executor)
        print(format_table(result["rows"]))
        print("\nsummary:")
        for key, value in result["summary"].items():
            print(f"  {key} = {value}")
    return 0


def _stream(args) -> int:
    from .axipack import fast_indirect_stream, run_indirect_stream
    from .axipack.streams import matrix_index_stream
    from .config import variant_config
    from .sparse import get_matrix

    request = canonicalize(_payload(args, "sweep"))
    (matrix,), (variant,) = request.matrices, request.variants
    with _tracing(args):
        indices = matrix_index_stream(get_matrix(matrix, request.max_nnz), "sell")
        run = run_indirect_stream if request.model == "cycle" else fast_indirect_stream
        metrics = run(indices, variant_config(variant), variant=variant)
        for key, value in metrics.summary().items():
            print(f"{key} = {value}")
    return 0


def _sweep(args) -> int:
    """Ad-hoc sweep through any registered engine backend."""
    from .engine import get_backend

    request = canonicalize(_payload(args, "sweep"))
    # Each backend declares its own projection; None = all row columns.
    columns = get_backend(request.kind).display_columns
    with _executor(args) as executor, _tracing(args):
        rows = [
            {
                key: (round(value, 3) if isinstance(value, float) else value)
                for key, value in cell.items()
                if columns is None or key in columns
            }
            for cell in executor.run(request.points())
        ]
        print(format_table(rows, list(columns) if columns else None))
        stats = executor.last_stats
        print(
            f"engine: {stats['groups']} groups, {stats['tasks']} tasks, "
            f"cache {stats['cache_hits']} hits / {stats['cache_misses']} misses "
            f"/ {stats['cache_evictions']} evictions "
            f"(workers={executor.workers})"
        )
    return 0


def _report_paths(mode: str, args) -> tuple[Path, Path]:
    """Store/document locations for one report invocation.

    ``render``/``check`` and *canonical* quick runs (``--quick`` with
    no ``--nnz``/``--model`` override) target the committed pair
    (``results/store`` + ``EXPERIMENTS.md``); every other run defaults
    to the uncommitted ``results/full`` so it can never make the
    committed quick-scale reference drift by accident.
    """
    from .report import (
        DEFAULT_DOC_PATH,
        DEFAULT_STORE_DIR,
        FULL_DOC_PATH,
        FULL_STORE_DIR,
    )

    canonical_quick = args.quick and args.max_nnz is None and args.model is None
    committed = mode in ("render", "check") or canonical_quick
    store = Path(args.store) if args.store else (
        DEFAULT_STORE_DIR if committed else FULL_STORE_DIR
    )
    if args.out:
        out = Path(args.out)
    elif args.store:
        # An explicit non-default store must never default its document
        # onto the committed EXPERIMENTS.md; keep the pair together.
        out = store / "EXPERIMENTS.md"
    else:
        out = DEFAULT_DOC_PATH if committed else FULL_DOC_PATH
    return store, out


def _report(args) -> int:
    from .report import check_report, render_report, run_report

    knobs = (args.max_nnz, args.model, args.workers)
    if args.mode == "render" and (
        args.check or args.quick or any(knob is not None for knob in knobs)
    ):
        raise ReproError(
            "report render rewrites the document from the store alone; "
            "only --store/--out apply"
        )
    # A report runs every grid experiment at one configuration, so its
    # knobs must make a valid experiment request.
    canonicalize({**_payload(args, "experiment"), "name": "fig3"})
    mode = "check" if args.check else args.mode
    store, out = _report_paths(mode, args)
    with _tracing(args):
        if mode == "render":
            render_report(store, out)
            return 0
        kwargs = dict(
            quick=args.quick,
            max_nnz=args.max_nnz,
            model=args.model,
            workers=args.workers,
        )
        if mode == "check":
            return 1 if check_report(store, out, **kwargs) else 0
        run_report(store, out, **kwargs)
    return 0


def _serve(args) -> int:
    """Long-lived sweep service."""
    from .serve import JobManager
    from .serve.server import serve_http, serve_stdio

    obs.logging_setup(1 if args.verbose else 0)
    manager = JobManager(
        executor=_executor(args), store_dir=args.store, cache_size=args.cache
    )
    with _tracing(args):
        if not args.stdio:
            return serve_http(
                manager, host=args.host, port=args.port, verbose=args.verbose
            )
        try:
            serve_stdio(manager)
        finally:
            manager.close()
    return 0


def _corpus_list(args) -> int:
    from .sparse.corpus import corpus_names, get_corpus

    name = args.name or args.corpus
    if name:
        rows = [
            {
                "name": e.name, "family": e.family, "source": e.source,
                "where": e.path or e.url or "generator",
            }
            for e in get_corpus(name).entries
        ]
    else:
        rows = [
            {"corpus": corpus, "entries": len(get_corpus(corpus).entries)}
            for corpus in corpus_names()
        ]
    print(format_table(rows))
    return 0


def _corpus_check(args) -> int:
    from .corpus import check_corpus
    from .report import FULL_STORE_DIR
    from .sparse.corpus import MatrixCache

    executor = _executor(args)
    with _tracing(args):
        drift = check_corpus(
            Path(args.store or FULL_STORE_DIR),
            cache=MatrixCache(args.cache),
            executor=executor,
            stream=sys.stdout,
        )
    for line in drift:
        print(f"DRIFT: {line}")
    print("corpus tier matches a fresh run" if not drift
          else f"{len(drift)} corpus file(s) drifted")
    return 1 if drift else 0


def _corpus_run(args) -> int:
    """Resumable corpus sweep (``--full``: the committed tier)."""
    from .report import FULL_STORE_DIR
    from .sparse.corpus import MatrixCache

    payload = _payload(args, "corpus")
    if args.full:
        payload.setdefault("corpus", "full")
    runner = canonicalize(payload).runner(
        _executor(args),
        store_dir=args.store or (FULL_STORE_DIR if args.full else None),
        cache=MatrixCache(args.cache),
        offline=args.offline,
        keep_going=args.keep_going,
        claims=args.full,
        stream=sys.stdout,
    )
    with _tracing(args):
        result = runner.run()
    print()
    print(format_table(result["rollup"]))
    if "claims" in result:
        print()
        print(format_table(result["claims"]))
    stats = runner.executor.stats
    print(
        "corpus: {corpus_groups} groups — {corpus_computed} computed, "
        "{corpus_skipped} skipped, {corpus_failed} failed".format(**{
            k: stats.get(k, 0) for k in (
                "corpus_groups", "corpus_computed",
                "corpus_skipped", "corpus_failed",
            )
        })
    )
    return 0


def main(argv: list[str] | None = None) -> int:
    hostmem.retain_freed_memory()
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv[:1] in (["--help"], ["-h"], ["help"]):
        print(__doc__)
        return 0
    parser, commands = _grammar()
    if not argv or argv[0] not in commands:
        print(__doc__)
        return 2
    obs.logging_setup(0)
    try:
        args = parser.parse_args(argv)
        return args.run(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
