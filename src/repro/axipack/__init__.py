"""AXI-Pack indirect stream unit with near-memory request coalescing.

This package is the paper's primary contribution: an adapter that
translates AXI-Pack indirect burst requests (``vec[col_idx[j]]`` streams)
into bandwidth-efficient sequences of wide (512 b) DRAM accesses.

Two models are provided:

* :mod:`repro.axipack.adapter` — the cycle model, a component-level
  reimplementation of the RTL design (index fetcher, index splitter,
  element request generator, request coalescer, element packer).
* :mod:`repro.axipack.fastmodel` — a window-exact functional model with
  analytic pipeline timing, validated against the cycle model, for
  full-suite sweeps.

Use :func:`repro.axipack.run_indirect_stream` for either.
"""

from .adapter import IndirectStreamUnit, run_indirect_stream
from .burst import IndirectBurst, NarrowRequest
from .fastmodel import StreamAnalysis, analyze_stream, fast_indirect_stream
from .metrics import AdapterMetrics
from .scatter import fast_indirect_scatter, run_indirect_scatter
from .strided import StridedBurst, fast_strided_stream, run_strided_stream
from .variants import VARIANT_LABELS

__all__ = [
    "IndirectStreamUnit",
    "run_indirect_stream",
    "IndirectBurst",
    "NarrowRequest",
    "fast_indirect_stream",
    "analyze_stream",
    "StreamAnalysis",
    "AdapterMetrics",
    "run_indirect_scatter",
    "fast_indirect_scatter",
    "StridedBurst",
    "run_strided_stream",
    "fast_strided_stream",
    "VARIANT_LABELS",
]
