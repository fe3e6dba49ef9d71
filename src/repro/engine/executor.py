"""Batched sweep executor with per-matrix dedup, sharding and fan-out.

:class:`SweepExecutor` turns a list of :class:`~repro.engine.points.
SweepPoint` into a tidy result table (one dict per point, in input
order).  Points are grouped by :attr:`SweepPoint.group_key`, each group
is handed to its registered backend (:mod:`repro.engine.backends`) to
**split** into shard tasks — variant chunks, and for fast-model
adapter kinds window-aligned stream chunks — and the shard tasks run
either serially in-process or across a
``concurrent.futures.ProcessPoolExecutor``.  Finished shards are
**merged** by the backend and reassembled in point order.

The pool is a *persistent* resource: it is spawned lazily on the first
pooled :meth:`SweepExecutor.run` and reused by every later run of the
same executor, which is what lets a long-lived server
(:mod:`repro.serve`) keep worker processes — and the per-worker
:class:`AnalysisCache` each of them accumulates — warm across
requests.  :meth:`SweepExecutor.close` (or using the executor as a
context manager) releases the pool; a pool that dies mid-run
(``BrokenProcessPool``) is respawned once and the lost tasks rerun, so
the historical per-``run()`` respawn survives only as that fallback.

Shard tasks are dispatched largest-first over ``submit`` /
``as_completed`` (heaviest model × scale × span first), which cuts the
straggler tail when shard tasks are uneven — a cycle-model group no
longer waits at the end of an ordered ``pool.map`` behind a queue of
trivial fast-model shards.

Determinism: the result table depends only on the input points — the
per-shard work is pure (seeded generators, analytic models), the merge
re-runs the exact serial carry/metric computation on the shard
payloads, and rows are reassembled in point order, so serial, pooled,
and sharded execution return byte-identical tables
(``tests/test_engine.py`` and ``tests/test_engine_backends.py`` pin
this for every registered backend).  Completion *order* is the only
thing scheduling may change, and nothing downstream observes it.

Worker processes are started with the default (fork on Linux) start
method; each worker keeps a module-level :class:`AnalysisCache` that
persists across the tasks it serves, with shard/chunk identity baked
into every cache key.
"""

from __future__ import annotations

import logging
import os
from concurrent.futures import FIRST_COMPLETED, wait
from concurrent.futures.process import BrokenProcessPool, ProcessPoolExecutor
from typing import Iterator, Sequence

from .. import obs
from ..errors import ExperimentError
from ..obs import profiler as obs_profiler
from ..obs import trace as obs_trace
from .backends import ShardTask, get_backend
from .cache import AnalysisCache
from .points import SweepPoint

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


def shards_from_env(default: int | str = 1) -> int | str:
    """Shard knob from ``REPRO_SHARDS``: an integer or ``auto``.

    ``auto`` resolves to the worker count at executor construction
    (one shard task per worker and matrix group); ``1`` (the default)
    keeps whole-group tasks.
    """
    raw = os.environ.get("REPRO_SHARDS", "")
    if not raw:
        return default
    if raw == "auto":
        return "auto"
    try:
        value = int(raw)
    except ValueError as exc:
        raise ExperimentError(f"bad REPRO_SHARDS={raw!r} (integer or 'auto')") from exc
    if value < 1:
        raise ExperimentError("REPRO_SHARDS must be >= 1")
    return value


def resolve_shards(shards: int | str | None, workers: int) -> int:
    """Normalise a shard setting (``None`` → env knob, ``"auto"`` →
    ``workers``) to a concrete positive integer."""
    if shards is None:
        shards = shards_from_env()
    if shards == "auto":
        return max(1, workers)
    try:
        value = int(shards)
    except (TypeError, ValueError) as exc:
        raise ExperimentError(f"bad shard count {shards!r}") from exc
    if value < 1:
        raise ExperimentError("shard count must be >= 1")
    return value


def _init_worker(config: dict) -> None:
    """Pool initializer: seed worker-local telemetry state.

    Runs unconditionally in every worker so fork-inherited tracer state
    (the parent's open NDJSON sink) is always replaced.
    """
    obs.seed_worker(config)


def _run_shard_task(
    task: ShardTask,
) -> tuple[object, dict[str, int], list[dict], dict]:
    """One pool task: evaluate a shard through its backend.

    Returns the backend payload, the cache hit/miss/eviction delta this
    task incurred, and — in pool workers with telemetry on — the spans
    and profiler bins buffered during the task.  Workers own private
    caches/tracers/profilers, so all three travel back with the payload
    for the executor to aggregate; in-process (serial) runs feed the
    global tracer/profiler directly and ship empties.
    """
    backend = get_backend(task.group_key[0])
    before = _PROCESS_CACHE.counters()
    with obs_trace.span(
        "engine.shard",
        backend=task.group_key[0],
        variants=len(task.variants),
        chunk=str(task.chunk),
    ):
        payload = backend.run_shard(task, _PROCESS_CACHE)
    after = _PROCESS_CACHE.counters()
    delta = {key: after[key] - before[key] for key in after}
    spans, bins = obs.drain_worker_telemetry()
    return payload, delta, spans, bins


def _task_weight(task: ShardTask) -> float:
    """Dispatch weight of one shard task (bigger = scheduled earlier).

    A deterministic cost *estimate*, never a correctness input: scale
    (the group's ``max_nnz`` slot) × the task's span of it (variant
    count, or ``1/pieces`` of one variant for a stream chunk), with
    cycle-model tasks boosted by :data:`_CYCLE_TASK_WEIGHT` since a
    cycle simulation dwarfs any fast-model evaluation of the same
    stream.
    """
    key = task.group_key
    scale = float(key[3]) if len(key) > 3 and isinstance(key[3], int) else 1.0
    if task.chunk is not None:
        span = 1.0 / max(1, task.chunk[1])
    else:
        span = float(max(1, len(task.variants)))
    model_boost = (
        _CYCLE_TASK_WEIGHT if len(key) > 4 and key[4] == "cycle" else 1.0
    )
    return scale * span * model_boost


class SweepExecutor:
    """Run a grid of sweep points with dedup, sharding and fan-out.

    ``workers=1`` (the default, or ``REPRO_WORKERS`` unset) runs
    serially in-process; ``workers>1`` fans shard tasks out over a
    process pool that is spawned lazily on the first pooled run and
    then **reused** by every subsequent :meth:`run` until
    :meth:`close` (the executor is also a context manager).  ``shards``
    sets how many shard tasks each matrix group splits into (``"auto"``
    = one per worker, so a single-matrix sweep saturates the pool;
    default 1 = whole-group tasks, ``REPRO_SHARDS`` supplies the
    default).  Results are byte-identical for every (workers, shards)
    combination.

    Example — the README's two-matrix adapter sweep::

        >>> from repro.engine import SweepExecutor, grid_points
        >>> points = grid_points("adapter", ("pwtk", "hood"),
        ...                      ("MLPnc", "MLP256"), max_nnz=12_000)
        >>> with SweepExecutor(workers=2) as executor:
        ...     rows = executor.run(points)
        >>> [round(r["indir_gbps"], 1) for r in rows[:2]]   # pwtk cells
        [3.5, 27.9]
    """

    def __init__(
        self, workers: int | None = None, shards: int | str | None = None
    ) -> None:
        self.workers = workers_from_env() if workers is None else int(workers)
        if self.workers < 1:
            raise ExperimentError("SweepExecutor needs at least one worker")
        self.shards = resolve_shards(shards, self.workers)
        self._pool: ProcessPoolExecutor | None = None
        #: run() statistics — per last call and accumulated totals.
        self.last_stats: dict[str, int] = {}
        self.stats = {
            "groups": 0,
            "tasks": 0,
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
            self._pool = ProcessPoolExecutor(
                max_workers=self.workers,
                initializer=_init_worker,
                initargs=(obs.worker_config(),),
            )
            self.stats["pool_spawns"] += 1
            obs.get_registry().inc(
                obs.names.stat_metric("pool_spawns"),
                help="process pools spawned",
            )
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

    def _plan(
        self, points: Sequence[SweepPoint]
    ) -> tuple[dict[tuple, list[str]], list[ShardTask], dict[tuple, slice]]:
        """Bucket points into groups and split each into shard tasks."""
        groups: dict[tuple, list[str]] = {}
        for point in points:
            variants = groups.setdefault(point.group_key, [])
            if point.variant not in variants:
                variants.append(point.variant)

        tasks: list[ShardTask] = []
        group_slices: dict[tuple, slice] = {}
        for key, variants in groups.items():
            split = get_backend(key[0]).split(key, tuple(variants), self.shards)
            group_slices[key] = slice(len(tasks), len(tasks) + len(split))
            tasks.extend(split)
        return groups, tasks, group_slices

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
        fully merged matrix group — its ``rows`` align with
        ``variants`` and are exactly the rows a serial run would
        produce for that group.  Groups arrive in *completion* order
        (serial execution completes them in input order); callers that
        need the full input-ordered table use :meth:`run`, streaming
        consumers (:mod:`repro.serve`) forward each group as it lands.

        ``last_stats`` is finalised when the generator is exhausted.
        """
        groups, tasks, group_slices = self._plan(points)

        outcomes: list[tuple[object, dict[str, int]] | None] = [None] * len(tasks)
        slice_of_group = {key: group_slices[key] for key in groups}
        remaining = {
            key: window.stop - window.start
            for key, window in slice_of_group.items()
        }
        task_group: list[tuple] = [()] * len(tasks)
        for key, window in slice_of_group.items():
            for index in range(window.start, window.stop):
                task_group[index] = key

        if self.workers == 1 or len(tasks) <= 1:
            completions: Iterator[tuple[int, tuple]] = (
                (index, _run_shard_task(task)) for index, task in enumerate(tasks)
            )
        else:
            completions = self._pooled_outcomes(tasks)

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
            window = slice_of_group[key]
            variants = tuple(groups[key])
            rows = get_backend(key[0]).merge(
                key,
                variants,
                tasks[window],
                [payload for payload, _ in outcomes[window]],  # type: ignore[misc]
            )
            yield key, variants, rows

        self.last_stats = {
            "groups": len(groups),
            "tasks": len(tasks),
            "cache_hits": sum(delta["hits"] for _, delta in outcomes),  # type: ignore[misc]
            "cache_misses": sum(delta["misses"] for _, delta in outcomes),  # type: ignore[misc]
            "cache_evictions": sum(delta["evictions"] for _, delta in outcomes),  # type: ignore[misc]
        }
        for key, value in self.last_stats.items():
            self.stats[key] += value
        obs.inc_stats(self.last_stats, help="engine sweep counters")

    def run(self, points: Sequence[SweepPoint]) -> list[dict]:
        """Evaluate every point; one result row per point, input order.

        Fan-out semantics: points are bucketed by
        :attr:`~repro.engine.points.SweepPoint.group_key` (duplicate
        variants within a group are evaluated once), each group is
        split by its backend into up to ``shards`` shard tasks, the
        tasks run — serially in-process, or largest-first over the
        persistent process pool when ``workers>1`` — and the backend
        merges each group's shards back into rows.  Finished rows are
        reassembled by
        :attr:`~repro.engine.points.SweepPoint.row_key` so the output
        table always matches the input order, including points that
        repeat the same cell.  Row dicts are per-point copies; mutating
        one never aliases another.
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
        obs.inc_stats(counters, help="driver-reported counters")
