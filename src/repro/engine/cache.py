"""Keyed per-matrix analysis cache.

One suite matrix feeds every variant of a sweep, and most of the cost
of a design point is *not* the variant-specific model evaluation but
the shared per-matrix work:

* synthesising the scaled matrix (``get_matrix``),
* deriving the format-ordered index stream,
* the stream's wide-block analysis (block ids + each request's
  previous occurrence of its block,
  :class:`repro.axipack.fastmodel.StreamAnalysis`).

The cache keys each artifact by the exact inputs that determine it, so
a grid of V variants over M matrices does the heavy work M times, not
M×V times.  There is one process-wide instance
(:data:`repro.engine.executor._PROCESS_CACHE`): every serial executor
in a process shares it, and each pool worker inherits/builds its own
copy that survives across the tasks that worker serves.
"""

from __future__ import annotations

import numpy as np

from ..axipack.fastmodel import StreamAnalysis, analyze_stream
from ..obs import trace as obs_trace
from ..axipack.streams import matrix_index_stream
from ..sparse import corpus as corpus_io
from ..sparse.csr import CsrMatrix
from ..sparse.suite import get_matrix


class AnalysisCache:
    """Memoised per-matrix artifacts, keyed by their defining inputs.

    Cache keys are exactly the inputs that determine each artifact —
    ``(name, fmt, max_nnz)`` for streams, plus ``elements_per_block``
    for the wide-block analysis — so no knob change can ever serve a
    stale artifact.  Example::

        >>> cache = AnalysisCache()
        >>> stream = cache.stream("pwtk", "sell", 12_000)   # built once
        >>> stream is cache.stream("pwtk", "sell", 12_000)  # cache hit
        True
        >>> cache.stream("pwtk", "sell", 24_000) is stream  # new scale
        False

    Each artifact family is bounded to ``maxsize`` entries with
    oldest-first eviction, so a long-lived process sweeping many
    (matrix, fmt, scale) combinations cannot grow without limit.
    """

    def __init__(self, maxsize: int = 128) -> None:
        self.maxsize = maxsize
        self._streams: dict[tuple, np.ndarray] = {}
        self._analyses: dict[tuple, StreamAnalysis] = {}
        self._matrices: dict[tuple, CsrMatrix] = {}
        #: lookup counters (every stream/analysis call and corpus-matrix
        #: load is one hit or one miss, and every insert into a full
        #: artifact family is one eviction); the executor snapshots
        #: these around each shard task and surfaces the totals in run
        #: stats and the report manifest, so a long-lived server can
        #: watch cache pressure build as the matrix working set
        #: outgrows ``maxsize``.
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def _put(self, store: dict, key: tuple, value) -> None:
        if len(store) >= self.maxsize:
            store.pop(next(iter(store)))
            self.evictions += 1
        store[key] = value

    def _count(self, store: dict, key: tuple) -> bool:
        present = key in store
        if present:
            self.hits += 1
        else:
            self.misses += 1
        return present

    def counters(self) -> dict[str, int]:
        """Current ``{"hits": …, "misses": …, "evictions": …}`` totals."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
        }

    def matrix(self, name: str, max_nnz: int) -> CsrMatrix:
        """The scaled suite matrix, or a cached corpus artifact.

        Suite names delegate to :func:`repro.sparse.suite.get_matrix`,
        which is itself ``lru_cache``-memoised.  ``corpus:<path>``
        names (see :mod:`repro.sparse.corpus`) load the checksummed
        fast-load artifact once per cache instance — ``max_nnz`` is
        ignored for them (the file *is* the scale), which is why corpus
        sweep points carry ``max_nnz=0``.
        """
        if corpus_io.is_corpus_name(name):
            key = (name,)
            if not self._count(self._matrices, key):
                self._put(self._matrices, key, corpus_io.load_corpus_name(name))
            return self._matrices[key]
        return get_matrix(name, max_nnz)

    def stream(self, name: str, fmt: str, max_nnz: int) -> np.ndarray:
        """The format-ordered column-index stream for one matrix.

        ``fmt`` selects the traversal order (``"sell"`` or ``"csr"``);
        the returned array is the cached instance, so treat it as
        read-only.
        """
        key = (name, fmt, max_nnz)
        if not self._count(self._streams, key):
            value = matrix_index_stream(self.matrix(name, max_nnz), fmt)
            self._put(self._streams, key, value)
        return self._streams[key]

    def analysis(
        self, name: str, fmt: str, max_nnz: int, elements_per_block: int
    ) -> StreamAnalysis:
        """Block ids + previous occurrences, shared across window sizes.

        ``elements_per_block`` is the DRAM access width in elements
        (``dram.access_bytes // config.element_bytes``); every window
        size of one variant family shares the same analysis, so each
        ``coalesce_window_exact`` call is left with linear passes and
        no sort (``benchmarks/bench_coalescer.py`` measures the fig4
        window sweep against the reference loop).
        """
        key = (name, fmt, max_nnz, elements_per_block)
        if not self._count(self._analyses, key):
            with obs_trace.span("cache.analysis", matrix=name, fmt=fmt):
                value = analyze_stream(
                    self.stream(name, fmt, max_nnz), elements_per_block
                )
            self._put(self._analyses, key, value)
        return self._analyses[key]
