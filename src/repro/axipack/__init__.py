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

The fast model loads with the package; the cycle model's names
(:func:`run_indirect_stream`, the scatter and strided runners) load
their modules on first use, so a fast-model sweep never imports the
cycle model.
"""

from ..lazy import lazy_exports
from .fastmodel import StreamAnalysis, analyze_stream, fast_indirect_stream
from .metrics import AdapterMetrics
from .variants import VARIANT_LABELS

__getattr__ = lazy_exports(__name__, {
    "IndirectBurst": ".burst",
    "NarrowRequest": ".burst",
    "IndirectStreamUnit": ".adapter",
    "run_indirect_stream": ".adapter",
    "run_indirect_scatter": ".scatter",
    "fast_indirect_scatter": ".scatter",
    "StridedBurst": ".strided",
    "run_strided_stream": ".strided",
    "fast_strided_stream": ".strided",
})

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
