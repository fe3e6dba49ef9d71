"""Job scheduling: single-flight dedup, response cache, store reads.

:class:`JobManager` sits between the wire protocols
(:mod:`repro.serve.server`) and the engine.  Every request resolves to
a canonical job key (:mod:`repro.serve.protocol`) and is served from
the first of four layers that can answer it:

1. **response cache** — a bounded LRU of completed job results
   (``source="cache"``); the warm path a repeated request hits.
2. **result store** — experiment requests whose resolved
   configuration matches the committed store manifest are answered by
   reading the stored table (``source="store"``): a repeated
   quick-scale request is a disk read, never a recompute.
3. **single-flight coalescing** — a request whose key is already
   computing does not start a second computation; it waits on the
   in-flight job and shares its rows (``source="coalesced"``).
4. **the engine** — everything else computes through the shared
   persistent :class:`~repro.engine.executor.SweepExecutor`
   (``source="computed"``), whose pool, per-worker analysis caches and
   row memo stay warm across jobs: a sweep that overlaps an earlier
   one computes only the points the executor has not seen.

:meth:`JobManager.stream` is the primitive: it yields protocol events
(``accepted`` → zero or more ``rows`` chunks → ``done``), with sweep
rows streaming per completed matrix group straight off
:meth:`SweepExecutor.run_stream`.  :meth:`JobManager.submit` is the
collected form used by tests and benchmarks.

Thread safety: the manager may be driven from many server threads.
Bookkeeping is guarded by one lock; engine computations serialise on a
second (the executor and its stats are not reentrant) — identical
concurrent requests coalesce on layer 3, distinct ones queue for the
engine.
"""

from __future__ import annotations

import logging
import threading
import time
from collections import OrderedDict
from pathlib import Path

from ..engine import SweepExecutor
from ..errors import ExperimentError, ReproError
from ..obs import metrics as obs_metrics
from ..obs import trace as obs_trace
from ..report.runner import DEFAULT_STORE_DIR
from ..report.store import ResultStore
from .protocol import ExperimentRequest, Request, canonicalize

logger = logging.getLogger(__name__)


class _Job:
    """One in-flight computation: the leader computes, followers wait."""

    def __init__(self, key: tuple) -> None:
        self.key = key
        self.done = threading.Event()
        self.rows: list[dict] | None = None
        self.error: BaseException | None = None


class JobManager:
    """Serve sweep/experiment jobs through the four cache layers.

    ``executor`` defaults to a fresh :class:`SweepExecutor` built from
    the environment knobs; pass one explicitly to control fan-out.
    ``store_dir`` names the result store consulted for experiment
    requests (the committed ``results/store`` by default).
    ``cache_size`` bounds the response cache (LRU, counted per job
    key).
    """

    def __init__(
        self,
        executor: SweepExecutor | None = None,
        store_dir: Path | str | None = None,
        cache_size: int = 128,
    ) -> None:
        if cache_size < 1:
            raise ExperimentError("response cache needs at least one slot")
        self.executor = executor if executor is not None else SweepExecutor()
        self.store_dir = Path(store_dir) if store_dir else DEFAULT_STORE_DIR
        self.cache_size = cache_size
        self._lock = threading.Lock()
        self._engine_lock = threading.Lock()
        self._inflight: dict[tuple, _Job] = {}
        self._responses: OrderedDict[tuple, list[dict]] = OrderedDict()
        self.stats = {
            "requests": 0,
            "computed": 0,
            "response_hits": 0,
            "store_hits": 0,
            "coalesced": 0,
            "response_evictions": 0,
            "errors": 0,
        }

    # -- public API --------------------------------------------------------

    def submit(self, payload) -> dict:
        """Serve one request to completion.

        Returns ``{"key", "source", "rows", "elapsed_s"}`` where
        ``rows`` are per-point copies (mutating them never corrupts the
        cache) and ``source`` names the layer that answered
        (``cache`` / ``store`` / ``coalesced`` / ``computed``).
        """
        source = "computed"
        rows: list[dict] = []
        key: tuple = ()
        started = time.perf_counter()
        for event in self.stream(payload):
            if event["event"] == "accepted":
                key = event["key"]
                source = event["source"]
            elif event["event"] == "rows":
                rows.extend(event["rows"])
            elif event["event"] == "done":
                source = event["source"]
        return {
            "key": key,
            "source": source,
            "rows": [dict(row) for row in rows],
            "elapsed_s": time.perf_counter() - started,
        }

    def stream(self, payload):
        """Yield protocol events for one request.

        ``accepted`` (with the job key and the answering layer), then
        ``rows`` chunks — per completed matrix group for computed
        sweeps, one chunk otherwise — then ``done``.  Rows inside a
        chunk are final result rows; concatenated across chunks they
        cover the request exactly once, in input order for every
        source except a freshly computed sweep (whose groups land in
        completion order; each row is self-describing).  Raises
        :class:`~repro.errors.ReproError` subclasses on bad requests
        or failed computations, after counting the error; any other
        exception is counted too, and its traceback logged at warning
        level, so a front end can answer it and keep serving.

        With tracing enabled the whole request runs under a
        ``serve.request`` span whose trace id is echoed in the
        ``accepted`` and ``done`` events, so a client can join its
        response to the server-side trace; request latency is always
        recorded in the ``repro_serve_request_seconds`` histogram,
        labeled by the answering layer.
        """
        started = time.perf_counter()
        source = "error"
        with obs_trace.span("serve.request") as span:
            try:
                request = canonicalize(payload)
                span.set(kind=type(request).__name__)
                trace_id = obs_trace.current_trace_id()
                for event in self._stream_request(request):
                    if event["event"] == "done":
                        source = event["source"]
                    if trace_id is not None and event["event"] in (
                        "accepted",
                        "done",
                    ):
                        event = {**event, "trace": trace_id}
                    yield event
            except Exception as exc:
                with self._lock:
                    self.stats["errors"] += 1
                if not isinstance(exc, ReproError):
                    logger.warning("request failed: %r", exc, exc_info=True)
                raise
            finally:
                obs_metrics.get_registry().observe(
                    "repro_serve_request_seconds",
                    time.perf_counter() - started,
                    help="serve request latency by answering layer",
                    source=source,
                )

    def close(self) -> None:
        """Release the engine's persistent pool."""
        self.executor.close()

    # -- layers ------------------------------------------------------------

    def _stream_request(self, request: Request):
        key = request.job_key
        with self._lock:
            self.stats["requests"] += 1
            cached = self._responses.get(key)
            if cached is not None:
                self._responses.move_to_end(key)
                self.stats["response_hits"] += 1
        if cached is not None:
            yield from self._replay(key, "cache", cached)
            return

        stored = self._store_lookup(request)
        if stored is not None:
            with self._lock:
                self.stats["store_hits"] += 1
            self._remember(key, stored)
            yield from self._replay(key, "store", stored)
            return

        with self._lock:
            job = self._inflight.get(key)
            leader = job is None
            if leader:
                job = _Job(key)
                self._inflight[key] = job
            else:
                self.stats["coalesced"] += 1

        if not leader:
            job.done.wait()
            if job.error is not None:
                raise job.error
            assert job.rows is not None
            yield from self._replay(key, "coalesced", job.rows)
            return

        try:
            yield {"event": "accepted", "key": key, "source": "computed"}
            rows: list[dict] = []
            with self._engine_lock:
                for chunk in self._compute_chunks(request):
                    rows.extend(chunk)
                    # copies: the cache keeps `rows`, the consumer may
                    # mutate what it is handed
                    yield {"event": "rows", "rows": [dict(r) for r in chunk]}
            job.rows = rows
            with self._lock:
                self.stats["computed"] += 1
            self._remember(key, rows)
            yield {"event": "done", "source": "computed", "row_count": len(rows)}
        except BaseException as exc:
            job.error = exc
            logger.warning(
                "single-flight leader failed for job %s: %s", key, exc
            )
            raise
        finally:
            job.done.set()
            with self._lock:
                self._inflight.pop(key, None)

    def _replay(self, key: tuple, source: str, rows: list[dict]):
        yield {"event": "accepted", "key": key, "source": source}
        yield {"event": "rows", "rows": [dict(row) for row in rows]}
        yield {"event": "done", "source": source, "row_count": len(rows)}

    def _remember(self, key: tuple, rows: list[dict]) -> None:
        with self._lock:
            self._responses[key] = rows
            self._responses.move_to_end(key)
            while len(self._responses) > self.cache_size:
                self._responses.popitem(last=False)
                self.stats["response_evictions"] += 1

    # -- computation -------------------------------------------------------

    def _compute_chunks(self, request: Request):
        """Yield copies of the request's result rows, chunked for
        streaming, computed on the shared executor."""
        for chunk in request.chunks(self.executor):
            yield [dict(row) for row in chunk]

    def _store_lookup(self, request: Request) -> list[dict] | None:
        """Experiment rows from the committed store, if it matches."""
        if not isinstance(request, ExperimentRequest):
            return None
        store = ResultStore(self.store_dir)
        try:
            manifest = store.read_manifest()
        except ExperimentError:
            return None
        if request.name not in manifest.get("experiments", {}):
            return None
        if not request.paramless:
            committed = manifest.get("matrices")
            if (
                manifest.get("scale_nnz") != request.scale_nnz
                or manifest.get("adapter_model") != request.model
                or (tuple(committed) if committed else None) != request.matrices
            ):
                return None
        try:
            return store.read_table(request.name)
        except ExperimentError:
            return None
