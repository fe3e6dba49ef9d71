"""Batched sweep engine for paper-scale design-space exploration.

The experiments (Figs. 3–6, Table I, ablations) are all grids of
(matrix × adapter-variant/system × format) design points sharing heavy
per-matrix work: synthesising the matrix, deriving its index stream,
and the stream's block-id analysis.  This package factors that into

* :mod:`repro.engine.points` — :class:`SweepPoint`, one grid cell,
* :mod:`repro.engine.backends` — the sweep backend protocol and
  registry: one :class:`SweepBackend` per point kind declares the
  names it accepts, how to evaluate a matrix group, split it into
  shard tasks, and merge shard results deterministically;
  :func:`grid_points` builds every kind's grid,
* :mod:`repro.engine.cache` — the keyed per-matrix analysis cache
  (shard/chunk identity is part of every key),
* :mod:`repro.engine.executor` — :class:`SweepExecutor`, which groups
  points per matrix, shards groups through their backends, optionally
  fans shard tasks out over a ``concurrent.futures`` process pool, and
  returns a tidy result table (one dict per point, input order).

Every experiment runner and benchmark goes through this engine, and
:mod:`repro.report` persists the resulting tables.  Quick tour::

    >>> from repro.engine import SweepExecutor, grid_points
    >>> rows = SweepExecutor().run(
    ...     grid_points("adapter", ("pwtk",), ("MLP256",), max_nnz=12_000))
    >>> rows[0]["variant"], rows[0]["cycles"] > 0
    ('MLP256', True)
"""

from .backends import (
    ShardTask,
    SweepBackend,
    get_backend,
    grid_points,
    index_stream_kinds,
    register_backend,
    registered_kinds,
)
from .cache import AnalysisCache
from .executor import (
    SweepExecutor,
    resolve_shards,
    shards_from_env,
    workers_from_env,
)
from .points import (
    ADAPTER_KIND,
    MULTICHANNEL_KIND,
    SCATTER_KIND,
    STRIDED_KIND,
    SYSTEM_KIND,
    SweepPoint,
)

__all__ = [
    "AnalysisCache",
    "SweepExecutor",
    "workers_from_env",
    "shards_from_env",
    "resolve_shards",
    "SweepPoint",
    "SweepBackend",
    "ShardTask",
    "register_backend",
    "registered_kinds",
    "get_backend",
    "grid_points",
    "index_stream_kinds",
    "ADAPTER_KIND",
    "SYSTEM_KIND",
    "MULTICHANNEL_KIND",
    "SCATTER_KIND",
    "STRIDED_KIND",
]
