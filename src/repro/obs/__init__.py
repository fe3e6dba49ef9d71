"""``repro.obs`` — dependency-free telemetry for every layer.

Three cooperating pieces, all stdlib-only:

- :mod:`repro.obs.metrics` — a process-wide registry of counters,
  gauges and histograms with Prometheus text exposition; counters are
  set from the layers' stat dicts when ``/metrics`` is scraped,
- :mod:`repro.obs.trace` — context-manager span tracing to an NDJSON
  sink, propagated across pool workers,
- :mod:`repro.obs.profiler` — opt-in sim-cycle attribution binning
  simulated cycles by component × engine action.

Everything is **off by default and free when off**: ``span()`` returns
a shared no-op, the profiler hook is one global load, and the registry
only holds what was actually recorded.

:func:`tracing` is the CLI entry point: it wires a ``--trace`` path to
the tracer + profiler for the duration of a command, opens a root span,
and appends the final cycle-attribution bins as a ``profile`` event.

Worker propagation: :func:`worker_config` snapshots the parent's
telemetry state for a pool initializer, and :func:`seed_worker` applies
it inside the worker (replacing fork-inherited tracer state so the
parent's sink fd is never written from a child).
"""

from __future__ import annotations

import contextlib

from . import profiler, trace
from .logs import logging_setup
from .metrics import MetricsRegistry, get_registry, reset_registry
from .profiler import CycleProfiler, profiled
from .trace import (
    NULL_SPAN,
    CollectingSink,
    NdjsonSink,
    adopt_spans,
    current_trace_id,
    span,
)

__all__ = [
    "profiler",
    "trace",
    "logging_setup",
    "MetricsRegistry",
    "get_registry",
    "reset_registry",
    "CycleProfiler",
    "profiled",
    "NULL_SPAN",
    "CollectingSink",
    "NdjsonSink",
    "adopt_spans",
    "current_trace_id",
    "span",
    "tracing",
    "worker_config",
    "seed_worker",
]


def worker_config() -> dict:
    """Snapshot the telemetry state a pool worker should inherit."""
    return {
        "trace": trace.active(),
        "profile": profiler.active() is not None,
    }


def seed_worker(config: dict) -> None:
    """Apply a :func:`worker_config` snapshot inside a pool worker.

    Must run unconditionally in every worker: under the fork start
    method the child inherits the parent's tracer (including its open
    NDJSON file handle) and profiler, and both must be replaced with
    worker-local state.
    """
    trace.seed_worker(config.get("trace", False))
    if config.get("profile", False):
        profiler.enable()
    else:
        profiler.disable()


def drain_worker_telemetry() -> tuple[list[dict], dict]:
    """``(spans, profiler_bins)`` buffered in this worker, cleared.

    Returns empties when called in-process (serial mode) so callers can
    ship the tuple unconditionally without double-counting.
    """
    spans = trace.drain_worker_spans()
    if trace.in_worker() and profiler.active() is not None:
        bins = profiler.active().drain()
    else:
        bins = {}
    return spans, bins


@contextlib.contextmanager
def tracing(path, root: str = "cli", **attrs):
    """Trace a CLI command into an NDJSON file.

    Configures the global tracer on ``path``, enables the cycle
    profiler, and runs the block under a root span named ``root``.  On
    exit the profiler's bins are appended as a ``profile`` event, and
    tracer + profiler are torn down.  ``path=None`` is a no-op wrapper
    so call sites don't need to branch on whether ``--trace`` was
    given.
    """
    if path is None:
        yield None
        return
    tracer = trace.configure(path)
    cycles = profiler.enable()
    try:
        with trace.span(root, **attrs) as root_span:
            yield root_span
    finally:
        if cycles.bins:
            tracer.event({"event": "profile", "bins": cycles.bins})
        profiler.disable()
        trace.shutdown()
