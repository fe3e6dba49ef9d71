"""Context-manager span tracing with an NDJSON sink.

A *span* is one named, timed unit of work: it records a trace id (the
request/run it belongs to), its own span id, its parent span id, a
wall-clock start, a duration, and free-form attributes.  Spans nest
through a :mod:`contextvars` context, so each server thread (and each
request context) carries its own span stack.

The tracer is **process-global and off by default**: until
:func:`configure` is called, :func:`span` hands out a shared no-op
context manager — one attribute load and a ``None`` check, no
allocation — so instrumented hot paths cost nothing when tracing is
disabled.  :func:`configure` installs a :class:`Tracer` writing one
JSON object per finished span to an NDJSON file (or any sink with a
``write(dict)`` method), optionally sampling non-root spans.

Cross-process propagation: the executor's pool initializer calls
:func:`seed_worker` in every worker, replacing any forked tracer state
with a :class:`CollectingSink` buffer.  Worker spans are shipped back
with shard results and re-parented under the requesting span via
:func:`adopt_spans`, so a pooled sweep's trace reads as one tree.

``tools/trace_summary.py`` renders a trace file into per-phase
wall-time and cycle-attribution tables.
"""

from __future__ import annotations

import contextvars
import json
import os
import threading
import time
import uuid

#: the innermost active span of the current context (None = no span).
_CURRENT: contextvars.ContextVar = contextvars.ContextVar(
    "repro-obs-span", default=None
)

_TRACER: "Tracer | None" = None
_IN_WORKER = False


def _new_id() -> str:
    return uuid.uuid4().hex[:16]


class Span:
    """One in-flight span; finished spans become NDJSON records."""

    __slots__ = (
        "name", "trace_id", "span_id", "parent_id",
        "ts", "_t0", "attrs", "status", "_token",
    )

    def __init__(self, name: str, trace_id: str, parent_id: str | None, attrs: dict):
        self.name = name
        self.trace_id = trace_id
        self.span_id = _new_id()
        self.parent_id = parent_id
        self.ts = time.time()
        self._t0 = time.perf_counter()
        self.attrs = attrs
        self.status = "ok"
        self._token = None

    def set(self, **attrs) -> None:
        """Attach (or overwrite) attributes on the open span."""
        self.attrs.update(attrs)

    def record(self, duration_s: float) -> dict:
        return {
            "event": "span",
            "name": self.name,
            "trace": self.trace_id,
            "span": self.span_id,
            "parent": self.parent_id,
            "ts": round(self.ts, 6),
            "dur_s": round(duration_s, 6),
            "status": self.status,
            "attrs": self.attrs,
        }


class _NullSpan:
    """The disabled-path span: every operation is a no-op.

    A single shared instance backs every ``span()`` call while tracing
    is off, so the disabled hot path allocates nothing.
    """

    __slots__ = ()
    trace_id = None
    span_id = None

    def set(self, **attrs) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False


NULL_SPAN = _NullSpan()


class _SpanContext:
    """Context manager produced by :meth:`Tracer.span`."""

    __slots__ = ("_tracer", "_span")

    def __init__(self, tracer: "Tracer", span: Span):
        self._tracer = tracer
        self._span = span

    def __enter__(self) -> Span:
        span = self._span
        span._token = _CURRENT.set(span)
        return span

    def __exit__(self, exc_type, exc, tb) -> bool:
        span = self._span
        duration = time.perf_counter() - span._t0
        if exc_type is not None:
            span.status = "error"
            span.attrs.setdefault("error", exc_type.__name__)
        try:
            _CURRENT.reset(span._token)
        except ValueError:
            # The span closed in a different context than it opened in
            # (e.g. a generator finalized by the GC); drop the stack
            # rather than corrupt another context's.
            _CURRENT.set(None)
        self._tracer._write(span.record(duration))
        return False


class NdjsonSink:
    """Append finished spans to a file, one JSON object per line."""

    def __init__(self, path) -> None:
        self.path = os.fspath(path)
        self._lock = threading.Lock()
        self._handle = None

    def write(self, record: dict) -> None:
        with self._lock:
            if self._handle is None:
                directory = os.path.dirname(self.path)
                if directory:
                    os.makedirs(directory, exist_ok=True)
                self._handle = open(self.path, "w", encoding="utf-8")
            self._handle.write(json.dumps(record) + "\n")
            self._handle.flush()

    def close(self) -> None:
        with self._lock:
            if self._handle is not None:
                self._handle.close()
                self._handle = None


class CollectingSink:
    """Buffer finished spans in memory (workers, tests)."""

    def __init__(self) -> None:
        self.records: list[dict] = []
        self._lock = threading.Lock()

    def write(self, record: dict) -> None:
        with self._lock:
            self.records.append(record)

    def drain(self) -> list[dict]:
        with self._lock:
            records, self.records = self.records, []
            return records

    def close(self) -> None:
        pass


class Tracer:
    """Span factory bound to one sink."""

    def __init__(self, sink) -> None:
        self.sink = sink
        self.spans_written = 0

    def span(self, name: str, /, **attrs):
        parent: Span | None = _CURRENT.get()
        if parent is not None and parent.span_id is not None:
            trace_id, parent_id = parent.trace_id, parent.span_id
        else:
            trace_id, parent_id = _new_id(), None
        return _SpanContext(self, Span(name, trace_id, parent_id, attrs))

    def event(self, record: dict) -> None:
        """Write a non-span NDJSON record (e.g. a profiler dump),
        stamped with the current trace id when one is active."""
        current: Span | None = _CURRENT.get()
        if current is not None and "trace" not in record:
            record = {**record, "trace": current.trace_id}
        self._write(record)

    def _write(self, record: dict) -> None:
        self.sink.write(record)
        self.spans_written += 1

    def close(self) -> None:
        self.sink.close()


# -- global configuration ---------------------------------------------------


def configure(path_or_sink) -> Tracer:
    """Install the process-global tracer (NDJSON file path or sink)."""
    global _TRACER
    sink = (
        path_or_sink
        if hasattr(path_or_sink, "write") and not isinstance(path_or_sink, (str, os.PathLike))
        else NdjsonSink(path_or_sink)
    )
    _TRACER = Tracer(sink)
    return _TRACER


def shutdown() -> None:
    """Close and uninstall the global tracer (idempotent)."""
    global _TRACER
    if _TRACER is not None:
        _TRACER.close()
        _TRACER = None


def get_tracer() -> Tracer | None:
    return _TRACER


def active() -> bool:
    """True when a global tracer is installed."""
    return _TRACER is not None


def span(name: str, /, **attrs):
    """A span through the global tracer, or the shared no-op when
    tracing is off.  The disabled path does no allocation."""
    tracer = _TRACER
    if tracer is None:
        return NULL_SPAN
    return tracer.span(name, **attrs)


def event(record: dict) -> None:
    """Emit a raw NDJSON record through the global tracer (no-op when
    tracing is off)."""
    tracer = _TRACER
    if tracer is not None:
        tracer.event(record)


def current_trace_id() -> str | None:
    """The trace id of the innermost active span, if any."""
    current = _CURRENT.get()
    return None if current is None else current.trace_id


# -- cross-process propagation ---------------------------------------------


def seed_worker(enabled: bool) -> None:
    """Pool-worker initializer: replace any forked tracer state.

    With ``enabled`` the worker traces into a :class:`CollectingSink`
    whose spans ship back with shard results; without, tracing is off.
    Either way the parent's sink (an open file descriptor under fork)
    is never written from the worker.
    """
    global _TRACER, _IN_WORKER
    _IN_WORKER = True
    _CURRENT.set(None)
    _TRACER = Tracer(CollectingSink()) if enabled else None


def in_worker() -> bool:
    return _IN_WORKER


def drain_worker_spans() -> list[dict]:
    """Finished spans buffered in this worker (empty in-process)."""
    if not _IN_WORKER or _TRACER is None:
        return []
    sink = _TRACER.sink
    return sink.drain() if isinstance(sink, CollectingSink) else []


def adopt_spans(spans: list[dict], parent=None) -> None:
    """Re-parent shipped worker spans under the current span and write
    them to the global sink.

    Every span is rewritten onto the adopting trace id; spans whose
    parent is not among the shipped batch (worker roots) attach to
    ``parent`` (default: the caller's current span).  No-op when
    tracing is off.
    """
    tracer = _TRACER
    if tracer is None or not spans:
        return
    if parent is None:
        parent = _CURRENT.get()
    trace_id = getattr(parent, "trace_id", None)
    parent_id = getattr(parent, "span_id", None)
    local_ids = {record.get("span") for record in spans}
    for record in spans:
        adopted = dict(record)
        if trace_id is not None:
            adopted["trace"] = trace_id
        if adopted.get("parent") not in local_ids:
            adopted["parent"] = parent_id
        tracer._write(adopted)
