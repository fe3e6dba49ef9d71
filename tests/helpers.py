"""Stream, matrix and grid builders shared across the test suite.

These used to live in ``tests/conftest.py``, but ``from conftest
import ...`` is ambiguous the moment any other collected directory
(e.g. ``benchmarks/``) also has a ``conftest.py`` — Python caches the
first one imported under the bare module name ``conftest``.  Keeping
the helpers in a distinctly named module makes the import unambiguous;
``tests/conftest.py`` re-exports the fixtures built on top of them.
"""

from __future__ import annotations

import numpy as np

from repro.engine import grid_points
from repro.sparse.coo import CooMatrix
from repro.sparse.csr import CsrMatrix

#: One tiny grid's ``(matrices, variants, max_nnz)`` per registered
#: sweep kind; every backend must appear here (the engine tests fail
#: when a new backend forgets to).
GRID_INPUTS = {
    "adapter": (("pwtk",), ("MLPnc", "MLP64", "MLP256"), 12_000),
    "system": (("pwtk",), ("base", "pack256"), 12_000),
    "multichannel": (("pwtk",), ("ch1", "ch2", "ch4"), 12_000),
    "scatter": (("pwtk",), ("MLP64", "MLP256"), 12_000),
    "strided": (("linear",), ("s8", "s16", "s32"), 4096),
}


def tiny_grid(kind: str) -> list:
    """The :data:`GRID_INPUTS` grid of ``kind``, built by the engine."""
    matrices, variants, max_nnz = GRID_INPUTS[kind]
    return grid_points(kind, matrices, variants, max_nnz=max_nnz)


def banded_stream(count: int, jitter: int = 20, span: int = 4, seed: int = 1) -> np.ndarray:
    """An index stream with FEM-like locality: a slowly advancing base
    plus bounded jitter (good coalescing within small windows)."""
    rng = np.random.default_rng(seed)
    base = np.arange(count) // span
    idx = base + rng.integers(-jitter, jitter + 1, count)
    return np.clip(idx, 0, base.max() + jitter).astype(np.uint32)


def random_stream(count: int, ncols: int, seed: int = 2) -> np.ndarray:
    """Uniformly random indices (worst-case locality)."""
    rng = np.random.default_rng(seed)
    return rng.integers(0, ncols, count, dtype=np.uint32)


def fem_stream(count: int = 6000, max_nnz: int = 8000) -> np.ndarray:
    """A real FEM-structured suite stream (pwtk, SELL traversal order),
    truncated to ``count`` indices — the locality class the paper's
    coalescer is built for."""
    from repro.axipack.streams import matrix_index_stream
    from repro.sparse.suite import get_matrix

    stream = matrix_index_stream(get_matrix("pwtk", max_nnz), "sell")
    return stream[:count]


def small_csr(nrows: int = 37, ncols: int = 41, density: float = 0.15, seed: int = 3) -> CsrMatrix:
    """A small random CSR matrix with at least one entry per row."""
    rng = np.random.default_rng(seed)
    rows, cols, vals = [], [], []
    for r in range(nrows):
        count = max(1, rng.binomial(ncols, density))
        cs = rng.choice(ncols, size=count, replace=False)
        rows.extend([r] * count)
        cols.extend(cs.tolist())
        vals.extend(rng.normal(size=count).tolist())
    return CooMatrix(nrows, ncols, rows, cols, vals).to_csr()
