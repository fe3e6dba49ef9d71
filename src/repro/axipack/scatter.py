"""Indirect *write* bursts: near-memory scatter with write coalescing.

The read path of the paper serves ``vec[col_idx[j]]`` gathers; its
natural dual — which AXI-Pack also defines and which workloads like
sparse transposition (MeNDA, paper ref. [21]) and SpMV-T need — is the
scatter ``target[col_idx[j]] = value[j]``.

The scatter unit reuses the index fetcher and index splitter unchanged
and replaces the element read path with a **write coalescer**: windows
of W narrow writes are merged per wide block in the CSHR (last write
wins within a warp, in stream order) and issued as a single wide AXI
write with byte strobes.  Write-after-write ordering across warps is
guaranteed by the DRAM controller's same-address hazard ordering.  The
upsizer, regulator, watcher and watchdog are shared with the read path
(:class:`~repro.axipack.coalescer.WindowCoalescer`); only the warp
contents, the wide write and the ack counter belong to this module.

Duplicate-index semantics therefore match a sequential scatter exactly:
duplicates within one window merge into one warp in stream order, and
warps to the same block always commit in window (stream) order.

The fast model (:func:`fast_indirect_scatter`) prices a scatter as the
gather over the same stream: the same warps, the same index fetches
sharing the channel, and the same pipeline bottlenecks and tail.
"""

from __future__ import annotations

import numpy as np

from ..config import AdapterConfig, DramConfig
from ..errors import SimulationError
from ..mem.backing_store import BackingStore
from ..mem.dram import DramChannel
from ..mem.reorder import ReorderBuffer
from ..mem.request import MemRequest, MemResponse
from ..sim.clock import Simulator, default_engine
from ..sim.component import Wiring
from ..sim.fifo import Fifo
from .arbiter import Arbiter
from .burst import IndirectBurst
from .coalescer import WindowCoalescer
from .element_request_gen import ElementRequestGen, LaneIndices
from .fastmodel import StreamAnalysis, fast_indirect_stream
from .index_fetcher import INDEX_AXI_ID, IndexFetcher
from .index_splitter import IndexSplitter
from .metrics import AdapterMetrics

#: AXI ID used for coalesced scatter writes.
WRITE_AXI_ID = 2


class WriteCoalescer(WindowCoalescer):
    """Window-based write merging with strobed wide writes.

    The upsizer, regulator, watcher and watchdog are the shared
    :class:`~repro.axipack.coalescer.WindowCoalescer` core.  The write
    path adds the warp's contents, the strobed wide write and an ack
    counter as its return path (write responses carry no data).  Its
    metadata queues disappear, because the offsets and values travel
    inside the wide write itself, so no per-slot limit caps a warp.
    """

    def __init__(
        self,
        config: AdapterConfig,
        dram_config: DramConfig,
        values: np.ndarray,
        write_req: Fifo[MemRequest],
        write_rsp: Fifo[MemResponse],
        name: str = "wcoal",
    ) -> None:
        super().__init__(config, dram_config, write_req, write_rsp, name)
        self.values = np.asarray(values, dtype=np.float64)
        self.acks_expected = 0
        self.acks_received = 0

    def _tick_return(self) -> None:
        while self.wide_rsp.can_pop():
            self.wide_rsp.pop()
            self.acks_received += 1

    def _return_due(self) -> bool:
        return self.wide_rsp.can_pop()  # ack absorption pops every cycle

    def _absorb_hits(self) -> int:
        # A warp entry is (stream position, byte offset): the position
        # names the value to write.
        window = self._window
        cshr = self._cshr
        assert window is not None and cshr.tag is not None
        hits = window.take_group(cshr.tag)
        for hit in hits:
            cshr.merge(hit.seq, hit.addr - cshr.tag)
        if hits:
            self.stats.add("coalesced_writes", len(hits))
        return len(hits)

    def _push_warp(self) -> None:
        assert self._cshr.tag is not None
        block = self.dram_config.access_bytes
        data = np.zeros(block, dtype=np.uint8)
        mask = np.zeros(block, dtype=bool)
        width = self.config.element_bytes
        # Entries replay in absorb (stream) order: the last write wins.
        for seq, offset in self._cshr.entries:
            data[offset : offset + width] = np.frombuffer(
                self.values[seq].tobytes(), dtype=np.uint8
            )
            mask[offset : offset + width] = True
        self.wide_req.push(
            MemRequest(
                addr=self._cshr.tag,
                nbytes=block,
                axi_id=WRITE_AXI_ID,
                is_write=True,
                write_data=data,
                write_mask=mask,
            )
        )
        self.acks_expected += 1
        self.stats.add("wide_writes")

    @property
    def done(self) -> bool:
        """Every accepted write merged, issued and acknowledged."""
        return not self.busy

    @property
    def busy(self) -> bool:
        return self.acks_received != self.acks_expected or super().busy


def run_indirect_scatter(
    indices: np.ndarray,
    values: np.ndarray,
    config: AdapterConfig | None = None,
    dram_config: DramConfig | None = None,
    verify: bool = True,
    max_cycles: int = 100_000_000,
    engine: str | None = None,
) -> AdapterMetrics:
    """Scatter ``target[indices[j]] = values[j]`` through the cycle
    model; verifies the final memory image against numpy semantics.
    ``engine`` selects the step-wise or event-batched simulation engine
    (both bit-exact; default :func:`~repro.sim.clock.default_engine`)."""
    config = config or AdapterConfig()
    dram_config = dram_config or DramConfig()
    if not config.has_coalescer:
        raise SimulationError("the scatter path requires a coalescer")
    indices = np.ascontiguousarray(indices, dtype=np.uint32)
    values = np.ascontiguousarray(values, dtype=np.float64)
    if indices.shape != values.shape or indices.size == 0:
        raise SimulationError("indices and values must be equal, non-empty")

    ncols = int(indices.max()) + 1
    store = BackingStore(indices.nbytes + ncols * 8 + (1 << 12))
    idx_base = store.alloc_array(indices)
    target_base = store.alloc(ncols * 8)

    memory = DramChannel(store, dram_config)
    sinks: dict[int, Fifo[MemResponse]] = {}
    reorder = ReorderBuffer(memory.req, memory.rsp, sinks)

    wiring = Wiring("scatter_unit")
    idx_req: Fifo[MemRequest] = wiring.make_fifo(4, "idx_req")
    write_req: Fifo[MemRequest] = wiring.make_fifo(4, "write_req")
    idx_rsp: Fifo[MemResponse] = wiring.make_fifo(None, "idx_rsp")
    write_rsp: Fifo[MemResponse] = wiring.make_fifo(None, "write_rsp")
    sinks[INDEX_AXI_ID] = idx_rsp
    sinks[WRITE_AXI_ID] = write_rsp

    burst = IndirectBurst(
        index_base=idx_base,
        count=len(indices),
        element_base=target_base,
        element_bytes=config.element_bytes,
    )
    fetcher = IndexFetcher(config, dram_config, idx_req)
    splitter = IndexSplitter(config, fetcher, idx_rsp)
    coalescer = WriteCoalescer(config, dram_config, values, write_req, write_rsp)
    gen = ElementRequestGen(
        config,
        LaneIndices(splitter, fetcher, burst),
        burst.count,
        coalescer,
        ElementRequestGen.mode_for(config),
    )
    arbiter = Arbiter([idx_req, write_req], reorder.req)
    fetcher.bursts.push(burst)

    sim = Simulator([wiring, fetcher, splitter, gen, coalescer, arbiter,
                     reorder, memory], engine=engine or default_engine())
    cycles = sim.run_until(
        lambda: gen.done and coalescer.done, max_cycles=max_cycles
    )

    if verify:
        expected = np.zeros(ncols, dtype=np.float64)
        expected[indices] = values  # numpy scatter: last write wins
        got = store.read_typed(target_base, ncols, np.float64)
        if not np.array_equal(got, expected):
            bad = int(np.flatnonzero(got != expected)[0])
            raise SimulationError(f"scatter mismatch at target[{bad}]")

    return AdapterMetrics(
        variant="scatter",
        count=len(indices),
        cycles=cycles,
        idx_txns=fetcher.blocks_issued,
        elem_txns=coalescer.stats["wide_writes"],
        element_bytes=config.element_bytes,
        access_bytes=dram_config.access_bytes,
        freq_hz=dram_config.freq_hz,
        dram_stats=memory.stats.as_dict(),
    )


def fast_indirect_scatter(
    indices: np.ndarray,
    config: AdapterConfig | None = None,
    dram_config: DramConfig | None = None,
    analysis: StreamAnalysis | None = None,
) -> AdapterMetrics:
    """Analytic scatter counterpart: the gather's pricing, labelled
    ``scatter``.

    The write coalescer groups by the same wide-block ids as the read
    path through the same upsizer, regulator, watcher and watchdog, and
    the index fetches share the channel with the wide writes (write
    bursts occupy the bus and rows as reads do).  So the stream prices
    exactly as :func:`repro.axipack.fastmodel.fast_indirect_stream`
    does, and a sweep shares one ``analysis``
    (:func:`repro.axipack.fastmodel.analyze_stream`) across gather and
    scatter variants (the engine's ``scatter`` backend prices its rows
    through the gather's path with the cached analysis).
    """
    config = config or AdapterConfig()
    if config.coalescer is None:
        raise SimulationError("the scatter path requires a coalescer")
    return fast_indirect_stream(
        indices, config, dram_config, variant="scatter", analysis=analysis
    )
