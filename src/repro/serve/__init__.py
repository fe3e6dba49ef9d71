"""Sweep-as-a-service: the warm-path executor behind a server.

``python -m repro serve`` keeps one persistent
:class:`~repro.engine.executor.SweepExecutor` — its process pool and
each worker's :class:`~repro.engine.cache.AnalysisCache` — warm across
requests, instead of paying a cold CLI start (interpreter + imports +
pool spawn + per-matrix analysis) per sweep.  The layers:

* :mod:`repro.serve.protocol` — request canonicalization and job
  keys: field order and defaulted knobs never split identical jobs.
* :mod:`repro.serve.jobs` — :class:`JobManager`: bounded response
  cache → committed-store read → single-flight coalescing → engine.
* :mod:`repro.serve.server` — the HTTP (NDJSON-streaming) and
  stdin/JSON-lines front ends.
* :mod:`repro.serve.client` — :class:`ServeClient`: the scripted HTTP
  consumer (streamed NDJSON iteration, client-side job-key reuse).

The package re-exports only the job manager and the protocol.
``python -m repro`` imports the protocol for every command, and the
job manager (with it the engine's serving layer) loads on first use of
:class:`JobManager`; import the HTTP front end and client from their
own modules, so the CLI never loads ``http.server`` or
``urllib.request``.

``benchmarks/bench_serve.py`` gates the point of it all: a warm
repeated request must be ≥10× faster than a cold CLI invocation, with
served rows byte-identical to a serial :class:`SweepExecutor` run.
"""

from ..lazy import lazy_exports
from .protocol import (
    ExperimentRequest,
    SweepRequest,
    canonicalize,
    json_default,
)

__getattr__ = lazy_exports(__name__, {"JobManager": ".jobs"})

__all__ = [
    "JobManager",
    "SweepRequest",
    "ExperimentRequest",
    "canonicalize",
    "json_default",
]
