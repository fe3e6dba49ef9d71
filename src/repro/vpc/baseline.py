"""Baseline system: 1 MiB LLC + naive coupled CSR SpMV (paper Sec. III).

The baseline runs the Fig. 1 CSR pseudocode on the vector processor
with *coupled* indirect access: the VLSU fetches indices, performs the
gather through the cache hierarchy, and only then can the arithmetic
retire.  Streams (``val``, ``col_idx``, ``row_ptr``) pass through the
LLC where they evict vector lines — the cache-pollution effect the
paper's Sec. I calls out.

The LLC interaction is simulated on the interleaved stream/gather
trace: NumPy builds the whole line trace, and the LRU cache replays it
in one pass (:meth:`~repro.vpc.llc.LruCache.access_lines`).  Timing
converts hit/miss counts into cycles with a limited-MLP miss overlap
model.

One fidelity note (see README.md, "Model fidelity"): when suite
matrices are scaled down for Python runtime, the LLC is scaled by the
same factor so that the vector-to-cache size ratio — which decides the
baseline's gather hit rate — matches the published configuration.
"""

from __future__ import annotations

import numpy as np

from ..config import BaselineConfig, DramConfig, VpcConfig
from ..sparse.csr import CsrMatrix
from .ara import AraTimingModel
from .llc import LruCache
from .result import SpmvRunResult

#: effective DRAM efficiency of the baseline's miss traffic (isolated
#: line fills with poor row locality).
BASE_DRAM_EFFICIENCY = 0.7


def scaled_llc_bytes(config: BaselineConfig, scale: float) -> int:
    """Scale the LLC with the matrix (keeps the vector-to-LLC capacity
    ratio at its published value, which decides the gather hit rate).

    Rounds down to a power-of-two set count and floors at 4 KiB (eight
    64 B sets of eight ways).
    """
    target = max(4 * 1024, int(config.llc_bytes * min(1.0, scale)))
    way_bytes = config.llc_ways * config.line_bytes
    sets = max(1, target // way_bytes)
    sets = 1 << (sets.bit_length() - 1)
    return sets * way_bytes


class BaselineSystem:
    """The paper's base system."""

    def __init__(
        self,
        baseline: BaselineConfig | None = None,
        vpc: VpcConfig | None = None,
        dram: DramConfig | None = None,
    ) -> None:
        self.baseline = baseline or BaselineConfig()
        self.vpc = vpc or VpcConfig()
        self.dram = dram or DramConfig()
        self.ara = AraTimingModel(self.vpc)

    def run(
        self,
        matrix: CsrMatrix,
        matrix_name: str = "",
        llc_scale: float = 1.0,
    ) -> SpmvRunResult:
        """Execute one naive CSR SpMV and report timing and traffic."""
        line = self.baseline.line_bytes
        llc = LruCache(
            scaled_llc_bytes(self.baseline, llc_scale),
            self.baseline.llc_ways,
            line,
        )
        vec_hits, vec_misses = self._simulate_cache(matrix, llc, line)

        footprint = matrix.footprint_bytes()
        stream_bytes = sum(footprint.values())
        vec_bytes = 8 * matrix.ncols
        result_bytes = 8 * matrix.nrows

        # --- timing ----------------------------------------------------
        gather_cycles = (
            self.ara.gather_cycles_on_hit(vec_hits, self.baseline.gather_hit_cpi)
            + vec_misses * self.baseline.miss_latency / self.baseline.gather_mlp
        )
        index_fetch_cycles = footprint["col_idx"] / self.dram.bus_bytes_per_cycle
        indirect_cycles = gather_cycles + index_fetch_cycles

        compute_cycles = self.ara.csr_arithmetic_cycles(matrix.nnz)
        row_cycles = self.ara.csr_row_overhead_cycles(matrix.nrows)
        core_cycles = indirect_cycles + compute_cycles + row_cycles

        traffic = (
            stream_bytes + vec_misses * line + result_bytes
        )
        dram_cycles = traffic / self.dram.bus_bytes_per_cycle / BASE_DRAM_EFFICIENCY
        runtime = max(core_cycles, dram_cycles)

        ideal = stream_bytes + vec_bytes + result_bytes
        return SpmvRunResult(
            system="base",
            matrix=matrix_name,
            fmt="csr",
            nnz=matrix.nnz,
            entries=matrix.nnz,
            runtime_cycles=runtime,
            indirect_cycles=min(indirect_cycles, runtime),
            traffic_bytes=traffic,
            ideal_traffic_bytes=ideal,
            freq_hz=self.vpc.freq_hz,
            breakdown={
                "gather_cycles": gather_cycles,
                "compute_cycles": compute_cycles,
                "row_cycles": row_cycles,
                "dram_cycles": dram_cycles,
                "vec_hits": float(vec_hits),
                "vec_misses": float(vec_misses),
                "llc_bytes": float(llc.size_bytes),
            },
        )

    def _simulate_cache(
        self, matrix: CsrMatrix, llc: LruCache, line: int
    ) -> tuple[int, int]:
        """Interleaved stream + gather trace through the LLC.

        Streaming lines (val/idx) are injected at their natural cadence
        (one idx line per 16 entries, one val line per 8) so they evict
        vector lines exactly as a real unified LLC would suffer.  The
        trace is built whole and replayed in one pass; returns the
        vector accesses' (hits, misses).
        """
        idx_per_line = line // 4
        val_per_line = line // 8
        # Distinct address regions (line ids offset far apart).
        vec_region = 0
        idx_region = 1 << 40
        val_region = 1 << 41

        # Entry j touches its idx line (every idx_per_line entries), its
        # val line (every val_per_line), then its vector line.
        j = np.arange(matrix.nnz, dtype=np.int64)
        lines = np.stack(
            [
                (idx_region + (j // idx_per_line) * line) // line,
                (val_region + (j // val_per_line) * line) // line,
                (vec_region + matrix.col_idx.astype(np.int64) * 8) // line,
            ],
            axis=1,
        )
        issued = np.stack(
            [j % idx_per_line == 0, j % val_per_line == 0, np.ones_like(j, bool)],
            axis=1,
        )
        hit = llc.access_lines(lines[issued])
        # Each entry's vector access is the last one it issues.
        vec_hit = hit[np.cumsum(issued.sum(axis=1)) - 1]
        hits = int(np.count_nonzero(vec_hit))
        return hits, matrix.nnz - hits
