"""Batched sweep executor with per-matrix dedup, sharding and fan-out.

:class:`SweepExecutor` turns a list of :class:`~repro.engine.points.
SweepPoint` into a tidy result table (one dict per point, in input
order).  Points are grouped by :attr:`SweepPoint.group_key`, each
group's variants are **split** into shard tasks — contiguous variant
chunks, one :meth:`~repro.engine.backends.SweepBackend.run_group` call
each — and the shard tasks run either serially in-process or across a
``concurrent.futures.ProcessPoolExecutor``.  Finished shards are
**merged** back into the group's rows and reassembled in point order.

The executor plans the split itself, from the worker count and the
groups a run computes (:meth:`SweepExecutor._plan`); no option sets
it.  With one worker, and for every fast-model group, a group is one
task: a fast group's work is dominated by the matrix analysis and
memory-term memo that every shard would rebuild.  At ``workers > 1`` a
cycle-model group — whose variants are independent simulations —
splits into ``ceil(workers / computed groups)`` chunks, so a
one-matrix cycle sweep or corpus entry fills the pool while a
many-group run keeps one task per group.

The pool is a *persistent* resource: it is spawned lazily on the first
pooled :meth:`SweepExecutor.run` and reused by every later run of the
same executor, which is what lets a long-lived server
(:mod:`repro.serve`) keep worker processes — and the per-worker
:class:`AnalysisCache` each of them accumulates — warm across
requests.  :meth:`SweepExecutor.close` (or using the executor as a
context manager) releases the pool; a pool that dies mid-run
(``BrokenProcessPool``) is respawned once and the lost tasks rerun, so
the historical per-``run()`` respawn survives only as that fallback.
A run with a single task stays in-process and never spawns the pool.

Shard tasks are submitted largest-first and collected with
``wait(FIRST_COMPLETED)`` (heaviest model × scale × variant count
first), which cuts the straggler tail when shard tasks are uneven — a
cycle-model group no longer waits at the end of an ordered
``pool.map`` behind a queue of trivial fast-model shards.

Determinism: the result table depends only on the input points — the
per-shard work is pure (seeded generators, analytic models), every row
is computed whole by its backend's ``run_group``, and rows are
reassembled in point order, so serial, pooled, and sharded execution
return byte-identical tables (``tests/test_engine.py`` and
``tests/test_engine_backends.py`` pin this for every registered
backend).  Completion *order* is the only thing scheduling may change,
and nothing downstream observes it.

Because a row depends only on its point, each executor also keeps a
**row memo**: the finished rows of the last :data:`_ROW_MEMO_ROWS`
distinct points it evaluated, keyed by
:attr:`~repro.engine.points.SweepPoint.row_key`, oldest out first.  A
point the memo holds is answered from it and never reaches a backend,
so each distinct point is evaluated once over the executor's lifetime
— ``report run`` reuses Fig. 3's rows for Fig. 4 and Fig. 5a's for
Fig. 5b, and a server's executor reuses rows across requests whose
grids overlap.  The memo lives on the instance, not in the
process-wide :class:`AnalysisCache`: serial and pooled runs share it,
and a fresh executor starts cold.

Worker processes are started with the default (fork on Linux) start
method; each worker keeps a module-level :class:`AnalysisCache` that
persists across the tasks it serves.
"""

from __future__ import annotations

import logging
import os
from concurrent.futures import FIRST_COMPLETED, wait
from typing import TYPE_CHECKING, Iterator, Sequence

from .. import hostmem, obs
from ..errors import ExperimentError
from ..obs import profiler as obs_profiler
from ..obs import trace as obs_trace
from .backends import ShardTask, get_backend
from .cache import AnalysisCache
from .points import SweepPoint

if TYPE_CHECKING:  # the pool (and multiprocessing) loads on first pooled run
    from concurrent.futures import ProcessPoolExecutor

logger = logging.getLogger(__name__)

#: per-process cache: the serial executor and every pool worker reuse
#: matrix artifacts across all the shard tasks they run.
_PROCESS_CACHE = AnalysisCache()

#: Relative weight of a cycle-model shard task against a fast-model one
#: at equal scale, for largest-first dispatch.  The exact value only
#: orders the queue (correctness never depends on it); cycle shards are
#: typically 1–3 orders of magnitude slower, so any large constant puts
#: them first.
_CYCLE_TASK_WEIGHT = 1000.0

#: Bound on an executor's row memo, in rows (one row per distinct
#: point); the oldest row leaves first.  A full-scale ``report run``
#: has 345 distinct points.  Bounded by rows, not groups, since one
#: request can put any number of variants into one group.
_ROW_MEMO_ROWS = 4096


def workers_from_env(default: int = 1) -> int:
    """Worker-count knob from ``REPRO_WORKERS`` (1 = serial).

    ::

        $ REPRO_WORKERS=4 python -m repro fig3    # pooled sweep
        >>> workers_from_env()                    # REPRO_WORKERS unset
        1

    Raises :class:`~repro.errors.ExperimentError` on a non-integer or
    non-positive value rather than silently running serial.
    """
    raw = os.environ.get("REPRO_WORKERS", "")
    if not raw:
        return default
    try:
        value = int(raw)
    except ValueError as exc:
        raise ExperimentError(f"bad REPRO_WORKERS={raw!r}") from exc
    if value < 1:
        raise ExperimentError("REPRO_WORKERS must be >= 1")
    return value


def _init_worker(config: dict) -> None:
    """Pool initializer: set the allocator policy and seed worker-local
    telemetry state.

    Runs unconditionally in every worker so fork-inherited tracer state
    (the parent's open NDJSON sink) is always replaced, and so a worker
    started by spawn or forkserver, which inherits no allocator
    settings, keeps its freed temporaries as the CLI process does.
    """
    hostmem.retain_freed_memory()
    obs.seed_worker(config)


def _run_shard_task(
    task: ShardTask,
) -> tuple[list[dict], dict[str, int], list[dict], dict]:
    """One pool task: evaluate a shard's variants through its backend.

    Returns the shard's rows, the cache hit/miss/eviction delta this
    task incurred, and — in pool workers with telemetry on — the spans
    and profiler bins buffered during the task.  Workers own private
    caches/tracers/profilers, so all three travel back with the rows
    for the executor to aggregate; in-process (serial) runs feed the
    global tracer/profiler directly and ship empties.
    """
    backend = get_backend(task.group_key[0])
    before = _PROCESS_CACHE.counters()
    with obs_trace.span(
        "engine.shard", backend=task.group_key[0], variants=len(task.variants)
    ):
        rows = backend.run_group(task.group_key, task.variants, _PROCESS_CACHE)
    after = _PROCESS_CACHE.counters()
    delta = {key: after[key] - before[key] for key in after}
    spans, bins = obs.drain_worker_telemetry()
    return rows, delta, spans, bins


def _task_weight(task: ShardTask) -> float:
    """Dispatch weight of one shard task (bigger = scheduled earlier).

    A deterministic cost *estimate*, never a correctness input: scale
    (the group's ``max_nnz`` slot) × the task's variant count, with
    cycle-model tasks boosted by :data:`_CYCLE_TASK_WEIGHT` since a
    cycle simulation dwarfs any fast-model evaluation of the same
    stream.
    """
    key = task.group_key
    scale = float(key[3]) if len(key) > 3 and isinstance(key[3], int) else 1.0
    model_boost = (
        _CYCLE_TASK_WEIGHT if len(key) > 4 and key[4] == "cycle" else 1.0
    )
    return scale * max(1, len(task.variants)) * model_boost


class SweepExecutor:
    """Run a grid of sweep points with dedup, sharding and fan-out.

    ``workers=1`` (the default, or ``REPRO_WORKERS`` unset) runs
    serially in-process; ``workers>1`` fans shard tasks out over a
    process pool that is spawned lazily on the first pooled run and
    then **reused** by every subsequent :meth:`run` until
    :meth:`close` (the executor is also a context manager).  How a
    group splits into shard tasks follows from the worker count and
    the run's groups (:meth:`_plan`).  Results are byte-identical for
    every worker count.  Finished rows stay in the executor's bounded
    row memo, so a later run evaluates only the points it has not seen.

    Example — the README's two-matrix adapter sweep::

        >>> from repro.engine import SweepExecutor, grid_points
        >>> points = grid_points("adapter", ("pwtk", "hood"),
        ...                      ("MLPnc", "MLP256"), max_nnz=12_000)
        >>> with SweepExecutor(workers=2) as executor:
        ...     rows = executor.run(points)
        >>> [round(r["indir_gbps"], 1) for r in rows[:2]]   # pwtk cells
        [3.5, 27.9]
    """

    def __init__(self, workers: int | None = None) -> None:
        self.workers = workers_from_env() if workers is None else int(workers)
        if self.workers < 1:
            raise ExperimentError("SweepExecutor needs at least one worker")
        self._pool: ProcessPoolExecutor | None = None
        #: row_key -> finished row, insertion-ordered for oldest-first
        #: eviction.  Only run_stream touches it; the dicts in it are
        #: never handed out.
        self._rows: dict[tuple, dict] = {}
        #: run() statistics — per last call and accumulated totals.
        #: ``row_hits`` counts the distinct points the memo answered.
        self.last_stats: dict[str, int] = {}
        self.stats = {
            "groups": 0,
            "tasks": 0,
            "row_hits": 0,
            "cache_hits": 0,
            "cache_misses": 0,
            "cache_evictions": 0,
            "pool_spawns": 0,
        }

    # -- pool lifecycle ----------------------------------------------------

    def _ensure_pool(self) -> ProcessPoolExecutor:
        """The persistent pool, spawning it on first pooled use.

        Workers are initialized with the parent's telemetry snapshot
        (:func:`repro.obs.worker_config`), so a pool spawned under an
        active ``--trace`` buffers worker spans for ship-back.
        """
        if self._pool is None:
            from concurrent.futures import ProcessPoolExecutor

            self._pool = ProcessPoolExecutor(
                max_workers=self.workers,
                initializer=_init_worker,
                initargs=(obs.worker_config(),),
            )
            self.stats["pool_spawns"] += 1
        return self._pool

    def _respawn_pool(self) -> ProcessPoolExecutor:
        """Fallback for a pool that died mid-run: drop it, spawn fresh."""
        if self._pool is not None:
            logger.warning(
                "respawning broken process pool (workers=%d)", self.workers
            )
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None
        return self._ensure_pool()

    def close(self, wait: bool = True) -> None:
        """Shut the persistent pool down (idempotent).

        The executor stays usable — the next pooled :meth:`run`
        respawns a fresh pool — so a long-lived service can recycle
        workers without replacing the executor.
        """
        if self._pool is not None:
            self._pool.shutdown(wait=wait)
            self._pool = None

    def __enter__(self) -> "SweepExecutor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC timing dependent
        try:
            self.close(wait=False)
        except Exception:
            pass

    # -- execution ---------------------------------------------------------

    def _plan(self, points: Sequence[SweepPoint]) -> tuple[
        dict[tuple, tuple[str, ...]],
        dict[tuple, tuple[str, ...]],
        list[ShardTask],
        dict[tuple, slice],
    ]:
        """Bucket points into groups and split the variants the row
        memo lacks into shard tasks.

        The split rule: with one worker, and for every fast-model
        group, a computed group is one task.  At ``workers > 1`` a
        cycle-model group splits into ``ceil(workers / computed
        groups)`` contiguous variant chunks, at most one per variant
        (:meth:`~repro.engine.backends.SweepBackend.split`).

        Returns every group's distinct variants, each computed group's
        missing variants, the tasks, and each computed group's slice
        of them.  A group the memo fully answers has no entry in the
        last three.
        """
        groups: dict[tuple, list[str]] = {}
        for point in points:
            variants = groups.setdefault(point.group_key, [])
            if point.variant not in variants:
                variants.append(point.variant)

        missing: dict[tuple, tuple[str, ...]] = {}
        for key, variants in groups.items():
            lacking = tuple(v for v in variants if (*key, v) not in self._rows)
            if lacking:
                missing[key] = lacking
        cycle_pieces = -(-self.workers // max(1, len(missing)))
        tasks: list[ShardTask] = []
        group_slices: dict[tuple, slice] = {}
        for key, lacking in missing.items():
            pieces = cycle_pieces if key[4] == "cycle" else 1
            split = get_backend(key[0]).split(key, lacking, pieces)
            group_slices[key] = slice(len(tasks), len(tasks) + len(split))
            tasks.extend(split)
        return (
            {key: tuple(variants) for key, variants in groups.items()},
            missing,
            tasks,
            group_slices,
        )

    def _remember(
        self, key: tuple, variants: tuple[str, ...], rows: list[dict]
    ) -> None:
        """Store copies of one merged group's rows, oldest out first."""
        for variant, row in zip(variants, rows):
            self._rows[(*key, variant)] = dict(row)
        while len(self._rows) > _ROW_MEMO_ROWS:
            del self._rows[next(iter(self._rows))]

    def _pooled_outcomes(
        self, tasks: list[ShardTask]
    ) -> Iterator[tuple[int, tuple]]:
        """Yield ``(task index, outcome)`` as shard tasks complete.

        Tasks are submitted largest-first (:func:`_task_weight`; ties
        keep input order, so the schedule is deterministic even though
        completion order is not).  A ``BrokenProcessPool`` triggers one
        respawn-and-retry of the tasks that never completed; a second
        failure propagates.
        """
        from concurrent.futures.process import BrokenProcessPool

        order = sorted(
            range(len(tasks)), key=lambda i: (-_task_weight(tasks[i]), i)
        )
        done: set[int] = set()
        for attempt in (1, 2):
            pool = self._ensure_pool()
            try:
                pending = {
                    pool.submit(_run_shard_task, tasks[i]): i
                    for i in order
                    if i not in done
                }
                while pending:
                    finished, _ = wait(pending, return_when=FIRST_COMPLETED)
                    for future in finished:
                        index = pending.pop(future)
                        yield index, future.result()
                        done.add(index)
                return
            except BrokenProcessPool:
                logger.warning(
                    "process pool broke mid-run; retrying %d unfinished "
                    "shard task(s)",
                    len(tasks) - len(done),
                )
                self._respawn_pool()
                if attempt == 2:
                    raise

    def run_stream(
        self, points: Sequence[SweepPoint]
    ) -> Iterator[tuple[tuple, tuple[str, ...], list[dict]]]:
        """Yield ``(group_key, variants, rows)`` as groups complete.

        The incremental form of :meth:`run`: each yielded triple is one
        whole matrix group — its ``rows`` align with ``variants`` (the
        group's distinct variants, in first-seen order) and are
        exactly the rows a serial run would produce for that group.
        Groups the row memo fully answers come first, in input order;
        computed groups follow in *completion* order (serial execution
        completes them in input order), with any of their variants the
        memo held filled in from it.  Callers that need the full
        input-ordered table use :meth:`run`, streaming consumers
        (:mod:`repro.serve`) forward each group as it lands.  Every
        yielded row is a fresh dict, never the memo's own.

        Each merged group's rows enter the memo (at most
        :data:`_ROW_MEMO_ROWS` rows, oldest out first), so every
        distinct point is evaluated once per executor, not once per
        run.  The memo is not locked: concurrent streams on one
        executor are the caller's to serialise, as
        :class:`~repro.serve.jobs.JobManager` does.

        ``last_stats`` is finalised when the generator ends, also when
        its consumer stops early or a merge raises: it then counts the
        tasks that completed, the groups that merged and the memo rows
        that were yielded (``row_hits``).
        """
        groups, missing, tasks, group_slices = self._plan(points)
        # The memo rows this run serves, held before any merge of the
        # run can evict them.
        remembered = {
            (*key, v): self._rows[(*key, v)]
            for key, variants in groups.items()
            for v in variants
            if v not in missing.get(key, ())
        }

        outcomes: list[tuple[object, dict[str, int]] | None] = [None] * len(tasks)
        remaining = {
            key: window.stop - window.start for key, window in group_slices.items()
        }
        task_group: list[tuple] = [()] * len(tasks)
        for key, window in group_slices.items():
            for index in range(window.start, window.stop):
                task_group[index] = key

        if self.workers == 1 or len(tasks) <= 1:
            completions: Iterator[tuple[int, tuple]] = (
                (index, _run_shard_task(task)) for index, task in enumerate(tasks)
            )
        else:
            completions = self._pooled_outcomes(tasks)

        merged = row_hits = 0
        try:
            for key, variants in groups.items():
                if key not in missing:
                    rows = [dict(remembered[(*key, v)]) for v in variants]
                    row_hits += len(rows)
                    yield key, variants, rows
            for index, outcome in completions:
                payload, delta, spans, bins = outcome
                if spans:
                    obs.adopt_spans(spans)
                if bins:
                    profiler = obs_profiler.active()
                    if profiler is not None:
                        profiler.merge(bins)
                outcomes[index] = (payload, delta)
                key = task_group[index]
                remaining[key] -= 1
                if remaining[key]:
                    continue
                window = group_slices[key]
                computed = get_backend(key[0]).merge(
                    key,
                    missing[key],
                    tasks[window],
                    [payload for payload, _ in outcomes[window]],  # type: ignore[misc]
                )
                self._remember(key, missing[key], computed)
                merged += 1
                by_variant = dict(zip(missing[key], computed))
                variants = groups[key]
                rows = [
                    by_variant[v] if v in by_variant else dict(remembered[(*key, v)])
                    for v in variants
                ]
                row_hits += len(variants) - len(computed)
                yield key, variants, rows
        finally:
            deltas = [outcome[1] for outcome in outcomes if outcome is not None]
            self.last_stats = {
                "groups": merged,
                "tasks": len(deltas),
                "row_hits": row_hits,
                "cache_hits": sum(delta["hits"] for delta in deltas),
                "cache_misses": sum(delta["misses"] for delta in deltas),
                "cache_evictions": sum(delta["evictions"] for delta in deltas),
            }
            for key, value in self.last_stats.items():
                self.stats[key] += value

    def run(self, points: Sequence[SweepPoint]) -> list[dict]:
        """Evaluate every point; one result row per point, input order.

        Fan-out semantics: points are bucketed by
        :attr:`~repro.engine.points.SweepPoint.group_key`; a point
        this executor already evaluated (in this run or an earlier
        one, while the row memo still holds it) is answered from the
        memo, so each distinct point is evaluated once per executor.
        The rest of each group's variants form one shard task, or, for
        a cycle-model group on a pool, contiguous chunks (:meth:`_plan`);
        the tasks run —
        serially in-process, or largest-first over the persistent
        process pool when ``workers>1`` and there is more than one
        task — and each group's shard rows merge back in variant
        order.  Finished rows are reassembled by
        :attr:`~repro.engine.points.SweepPoint.row_key` so the output
        table always matches the input order, including points that
        repeat the same cell.  Row dicts are per-point copies; mutating
        one never aliases another or the memo.
        """
        by_key: dict[tuple, dict] = {}
        with obs_trace.span(
            "engine.run", points=len(points), workers=self.workers
        ) as run_span:
            for key, variants, rows in self.run_stream(points):
                for variant, row in zip(variants, rows):
                    by_key[(*key, variant)] = row
            run_span.set(**self.last_stats)
        return [dict(by_key[point.row_key]) for point in points]

    def add_stats(self, **counters: int) -> None:
        """Fold externally tallied counters into the run statistics.

        Drivers that orchestrate *around* the executor — the corpus
        runner tallies groups skipped via the store manifest versus
        computed versus failed — report their counters here so a single
        ``last_stats``/``stats`` read shows the whole run.  Each
        counter adds to both the last-run snapshot and the accumulated
        totals, creating the key when first seen.
        """
        for key, value in counters.items():
            self.last_stats[key] = self.last_stats.get(key, 0) + int(value)
            self.stats[key] = self.stats.get(key, 0) + int(value)
