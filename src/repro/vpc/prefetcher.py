"""L2-SPM prefetcher timing (paper Sec. II-C).

The prefetcher splits the working set into tiles sized by the six
equally sized L2 SPM arrays and issues, per tile, one contiguous
AXI-Pack stream for the nonzeros and one indirect AXI-Pack burst for
the indexed vector elements (up to two outstanding requests).  Both
streams share the single HBM channel, so a tile's prefetch time is the
larger of the indirect-stream time (from the adapter model, which
already accounts for its own DRAM share) and the total DRAM service
time of every byte the tile moves.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..axipack.metrics import AdapterMetrics
from ..config import DramConfig, VpcConfig
from ..units import ceil_div

#: DRAM efficiency of the mixed prefetch traffic (long streams + the
#: coalescer's wide accesses: predominantly row hits, with some
#: inter-stream bank interference).
PREFETCH_DRAM_EFFICIENCY = 0.84


@dataclass(frozen=True)
class TileSchedule:
    """Steady-state per-tile timing of the double-buffered pipeline."""

    num_tiles: int
    entries_per_tile: int
    indirect_cycles_per_tile: float
    prefetch_cycles_per_tile: float

    @property
    def total_indirect_cycles(self) -> float:
        return self.indirect_cycles_per_tile * self.num_tiles


def plan_tiles(
    entries: int,
    adapter_metrics: AdapterMetrics,
    total_stream_bytes: float,
    vpc: VpcConfig | None = None,
    dram: DramConfig | None = None,
) -> TileSchedule:
    """Derive the per-tile prefetch schedule for one SpMV.

    ``adapter_metrics`` is the adapter model's result for the matrix's
    whole indirect stream; its average element rate sets the indirect
    transfer time per tile.  ``total_stream_bytes`` covers the
    contiguous arrays the prefetcher also moves (nonzeros, slice
    pointers, results written back).
    """
    vpc = vpc or VpcConfig()
    dram = dram or DramConfig()

    entries_per_tile = max(1, vpc.l2_array_bytes // 8)  # 64 b nonzeros
    num_tiles = ceil_div(entries, entries_per_tile)
    entries_per_tile = min(entries_per_tile, entries)

    indirect_rate = adapter_metrics.requests_per_cycle  # elements / cycle
    indirect_per_tile = entries_per_tile / max(indirect_rate, 1e-9)

    tile_indirect_bytes = (
        adapter_metrics.total_fetch_bytes * entries_per_tile / adapter_metrics.count
    )
    tile_stream_bytes = total_stream_bytes / num_tiles
    dram_per_tile = (tile_indirect_bytes + tile_stream_bytes) / (
        dram.bus_bytes_per_cycle * PREFETCH_DRAM_EFFICIENCY
    )
    prefetch_per_tile = max(indirect_per_tile, dram_per_tile)
    return TileSchedule(
        num_tiles=num_tiles,
        entries_per_tile=entries_per_tile,
        indirect_cycles_per_tile=indirect_per_tile,
        prefetch_cycles_per_tile=prefetch_per_tile,
    )
