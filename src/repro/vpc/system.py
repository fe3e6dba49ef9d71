"""Pack systems: VPC + L2 SPM + AXI-Pack adapter (paper Sec. II-C).

``pack0`` / ``pack64`` / ``pack256`` differ only in the adapter variant
(no coalescer, 64-window, 256-window parallel coalescer).  Execution is
the paper's tiled SELL SpMV: the prefetcher double-buffers tiles in the
L2 SPM while Ara computes, so steady-state runtime per tile is
``max(compute, prefetch)`` and the end-to-end runtime adds the first
fill and last drain.
"""

from __future__ import annotations

import numpy as np

from ..axipack.fastmodel import StreamAnalysis, fast_indirect_stream
from ..axipack.metrics import AdapterMetrics
from ..config import AdapterConfig, DramConfig, VpcConfig, variant_config
from ..errors import ExperimentError
from ..sparse.csr import CsrMatrix
from ..sparse.sell import SellMatrix
from .ara import AraTimingModel
from .prefetcher import plan_tiles
from .result import SpmvRunResult

#: the three pack systems of Fig. 5 with their adapter variants.
PACK_SYSTEMS: dict[str, str] = {
    "pack0": "MLPnc",
    "pack64": "MLP64",
    "pack256": "MLP256",
}


class PackSystem:
    """One AXI-Pack-enabled vector processor system."""

    def __init__(
        self,
        adapter: AdapterConfig | str = "MLP256",
        vpc: VpcConfig | None = None,
        dram: DramConfig | None = None,
        adapter_model: str = "fast",
        name: str | None = None,
    ) -> None:
        if isinstance(adapter, str):
            self.adapter_label = adapter
            self.adapter_config = variant_config(adapter)
        else:
            self.adapter_config = adapter
            self.adapter_label = "custom"
        if adapter_model not in ("fast", "cycle"):
            raise ExperimentError("adapter_model must be 'fast' or 'cycle'")
        self.adapter_model = adapter_model
        self.vpc = vpc or VpcConfig()
        self.dram = dram or DramConfig()
        self.ara = AraTimingModel(self.vpc)
        self.name = name or self._default_name()

    def _default_name(self) -> str:
        for system, label in PACK_SYSTEMS.items():
            if label == self.adapter_label:
                return system
        return f"pack[{self.adapter_label}]"

    # -- adapter invocation ---------------------------------------------------

    def stream_metrics(
        self, indices: np.ndarray, analysis: StreamAnalysis | None = None
    ) -> AdapterMetrics:
        """Adapter metrics for the matrix's whole indirect stream.

        The fast model prices with ``analysis`` (the stream's
        :class:`~repro.axipack.fastmodel.StreamAnalysis`) when given, so
        it shares the memory terms other sweeps priced over the same
        stream; the cycle model ignores it.
        """
        if self.adapter_model == "cycle":
            from ..axipack.adapter import run_indirect_stream

            return run_indirect_stream(
                indices, self.adapter_config, self.dram, variant=self.adapter_label
            )
        return fast_indirect_stream(
            indices, self.adapter_config, self.dram, variant=self.adapter_label,
            analysis=analysis,
        )

    # -- end-to-end SpMV ----------------------------------------------------------

    def run(
        self,
        matrix: CsrMatrix | SellMatrix,
        matrix_name: str = "",
        analysis: StreamAnalysis | None = None,
    ) -> SpmvRunResult:
        """Execute one tiled SELL SpMV and report timing and traffic.

        ``analysis``, if given, is the analysis of the SELL-32 index
        stream, passed on to :meth:`stream_metrics`.
        """
        sell = matrix if isinstance(matrix, SellMatrix) else matrix.to_sell(32)
        indices = sell.index_stream()
        metrics = self.stream_metrics(indices, analysis)

        footprint = sell.footprint_bytes()
        result_bytes = 8 * sell.nrows
        stream_bytes = footprint["val"] + footprint["slice_ptr"] + result_bytes

        schedule = plan_tiles(
            sell.padded_nnz, metrics, stream_bytes, self.vpc, self.dram
        )
        slices_per_tile = max(1, sell.nslices // schedule.num_tiles)
        compute_per_tile = self.ara.sell_compute_cycles(
            schedule.entries_per_tile, slices_per_tile, sell.chunk
        )

        steady = (
            max(compute_per_tile, schedule.prefetch_cycles_per_tile)
            + self.vpc.tile_sync_cycles
        )
        runtime = (
            schedule.prefetch_cycles_per_tile  # first tile fill
            + steady * schedule.num_tiles
            + compute_per_tile  # last tile drain
        )
        indirect_total = min(schedule.total_indirect_cycles, runtime)

        traffic = float(metrics.total_fetch_bytes + stream_bytes)
        ideal = (
            footprint["val"]
            + footprint["col_idx"]
            + footprint["slice_ptr"]
            + 8 * sell.ncols
            + result_bytes
        )
        return SpmvRunResult(
            system=self.name,
            matrix=matrix_name,
            fmt="sell",
            nnz=sell.true_nnz,
            entries=sell.padded_nnz,
            runtime_cycles=runtime,
            indirect_cycles=indirect_total,
            traffic_bytes=traffic,
            ideal_traffic_bytes=float(ideal),
            freq_hz=self.vpc.freq_hz,
            breakdown={
                "compute_per_tile": compute_per_tile,
                "prefetch_per_tile": schedule.prefetch_cycles_per_tile,
                "num_tiles": float(schedule.num_tiles),
                "adapter_cycles": float(metrics.cycles),
                "coalesce_rate": metrics.coalesce_rate,
                "indirect_bw_gbps": metrics.indirect_bw_gbps,
            },
        )
