"""Sweep design points.

A :class:`SweepPoint` names one cell of an experiment grid.  Its
``kind`` selects the sweep backend that evaluates it (see
:mod:`repro.engine.backends` for the protocol and registry, and
:func:`~repro.engine.backends.grid_points` for building grids).  The
built-in kinds:

* ``adapter`` points run one adapter variant over one matrix's index
  stream (Figs. 3/4, window ablations) — ``variant`` is an adapter
  label such as ``"MLP256"`` and ``fmt`` selects the traversal order;
* ``system`` points run one end-to-end SpMV system over one matrix
  (Figs. 5a/5b/6b) — ``variant`` is a system name (``"base"``,
  ``"pack0"``, ``"pack64"``, ``"pack256"``) and ``fmt`` is ``""``;
* ``multichannel`` points run the paper's MLP256 adapter in front of
  a block-interleaved multi-channel HBM — ``variant`` is a channel
  count label (``"ch2"``, ``"ch4"``, …);
* ``scatter`` points run the indirect *write* (scatter) path of one
  coalescer variant over one matrix's index stream;
* ``strided`` points run an AXI-Pack strided burst — ``variant`` is a
  stride label (``"s16"`` = 16-byte stride), ``max_nnz`` the element
  count and ``matrix`` a free-form workload label; ``fmt`` is ``""``.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ExperimentError
from ..sparse.suite import DEFAULT_MAX_NNZ

ADAPTER_KIND = "adapter"
SYSTEM_KIND = "system"
MULTICHANNEL_KIND = "multichannel"
SCATTER_KIND = "scatter"
STRIDED_KIND = "strided"


@dataclass(frozen=True)
class SweepPoint:
    """One (matrix × variant) cell of a sweep grid.

    Example — the pwtk/MLP256 cell of a fast-model adapter sweep::

        >>> SweepPoint("pwtk", "MLP256", fmt="sell", max_nnz=12_000)
        SweepPoint(matrix='pwtk', variant='MLP256', fmt='sell',
                   max_nnz=12000, model='fast', kind='adapter')

    ``kind`` names the sweep backend that evaluates the point; it must
    be registered in :mod:`repro.engine.backends` (an unknown kind
    raises :class:`~repro.errors.ExperimentError` listing the
    registered kinds).  New backends plug in by registering a
    :class:`~repro.engine.backends.SweepBackend` — see ARCHITECTURE.md.
    """

    matrix: str
    variant: str
    fmt: str = "sell"
    max_nnz: int = DEFAULT_MAX_NNZ
    model: str = "fast"
    kind: str = ADAPTER_KIND

    def __post_init__(self) -> None:
        if self.model not in ("fast", "cycle"):
            raise ExperimentError(
                f"unknown adapter model {self.model!r}; expected fast or cycle"
            )
        # The registry owns the kind list; imported here (not at module
        # top) because backends.py imports this module's constants.
        from .backends import get_backend

        get_backend(self.kind)

    @property
    def group_key(self) -> tuple:
        """Points sharing this key share all per-matrix analysis.

        The executor runs one task per distinct group key (or, for a
        cycle-model group on a process pool, a few shard tasks of its
        variants), so the key deliberately excludes ``variant``: every
        variant of one (kind, matrix, fmt, scale, model) combination
        reuses the same cached stream/analysis.

        >>> SweepPoint("pwtk", "MLP256").group_key
        ('adapter', 'pwtk', 'sell', 60000, 'fast')
        """
        return (self.kind, self.matrix, self.fmt, self.max_nnz, self.model)

    @property
    def row_key(self) -> tuple:
        """``group_key`` plus the variant — unique per result row.

        The executor reassembles pooled results into input order by
        looking each point's ``row_key`` up in the finished groups.
        """
        return (*self.group_key, self.variant)

