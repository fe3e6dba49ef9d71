"""The AXI-Pack indirect stream unit: wiring and end-to-end runner.

:class:`IndirectStreamUnit` instantiates and connects the five adapter
components of paper Fig. 2a (index fetcher, index splitter, element
request generator, request coalescer / direct path, element packer)
behind a shared downstream AXI4 port to the DRAM channel model.

:func:`run_indirect_stream` reproduces the paper's Fig. 3/4 experiment
setup: an ideal upstream requestor issues one continuous AXI-Pack
indirect read burst over a column-index stream preloaded in DRAM, and
the run reports :class:`~repro.axipack.metrics.AdapterMetrics`.
"""

from __future__ import annotations

import numpy as np

from ..config import AdapterConfig, DramConfig, variant_label
from ..errors import SimulationError
from ..mem.backing_store import BackingStore
from ..mem.dram import DramChannel
from ..mem.ideal import IdealMemory
from ..mem.multichannel import MultiChannelMemory
from ..mem.reorder import ReorderBuffer
from ..mem.request import MemRequest, MemResponse
from ..sim.clock import Simulator, default_engine
from ..sim.component import Component, Wiring
from ..sim.fifo import Fifo
from .burst import IndirectBurst
from .coalescer import RequestCoalescer
from .direct_path import DirectElementPath
from .element_request_gen import ElementRequestGen, LaneIndices
from .index_fetcher import ELEMENT_AXI_ID, INDEX_AXI_ID, IndexFetcher
from .index_splitter import IndexSplitter
from .metrics import AdapterMetrics
from .packer import ElementPacker
from .arbiter import Arbiter


def element_path(
    config: AdapterConfig,
    dram_config: DramConfig,
    elem_req: Fifo[MemRequest],
    elem_rsp: Fifo[MemResponse],
) -> RequestCoalescer | DirectElementPath:
    """The element read path ``config`` names: the request coalescer,
    or the direct path of the coalescer-less variant (the gather's and
    the strided burst's)."""
    path = RequestCoalescer if config.has_coalescer else DirectElementPath
    return path(config, dram_config, elem_req, elem_rsp)


class IndirectStreamUnit(Wiring):
    """The complete adapter, owning the wiring FIFOs between blocks."""

    def __init__(
        self,
        config: AdapterConfig,
        dram_config: DramConfig,
        burst: IndirectBurst,
        mem_req: Fifo[MemRequest],
        mem_rsp_sinks_out: dict[int, Fifo[MemResponse]],
        name: str = "adapter",
    ) -> None:
        super().__init__(name)
        self.config = config
        self.dram_config = dram_config
        self.burst = burst

        # Wiring FIFOs owned by this container.
        self.idx_req: Fifo[MemRequest] = self.make_fifo(4, "idx_req")
        self.elem_req: Fifo[MemRequest] = self.make_fifo(4, "elem_req")
        self.idx_rsp: Fifo[MemResponse] = self.make_fifo(None, "idx_rsp")
        self.elem_rsp: Fifo[MemResponse] = self.make_fifo(None, "elem_rsp")
        mem_rsp_sinks_out[INDEX_AXI_ID] = self.idx_rsp
        mem_rsp_sinks_out[ELEMENT_AXI_ID] = self.elem_rsp

        # The five adapter blocks (Fig. 2a).
        self.fetcher = IndexFetcher(config, dram_config, self.idx_req)
        self.splitter = IndexSplitter(config, self.fetcher, self.idx_rsp)
        self.element_path = element_path(
            config, dram_config, self.elem_req, self.elem_rsp
        )
        self.request_gen = ElementRequestGen(
            config,
            LaneIndices(self.splitter, self.fetcher, burst),
            burst.count,
            self.element_path,
            ElementRequestGen.mode_for(config),
        )
        self.packer = ElementPacker(config, burst.count, self.element_path.lane_out)
        self.arbiter = Arbiter([self.idx_req, self.elem_req], mem_req)

        self.fetcher.bursts.push(burst)

    def components(self) -> list[Component]:
        """All clocked blocks, in a valid tick order."""
        return [
            self,
            self.fetcher,
            self.splitter,
            self.request_gen,
            self.element_path,
            self.packer,
            self.arbiter,
        ]

    @property
    def done(self) -> bool:
        return self.packer.done

    @property
    def elem_txns(self) -> int:
        return self.element_path.stats["wide_elem_txns"]

    @property
    def output(self) -> list[float]:
        return self.packer.output


def build_indirect_system(
    indices: np.ndarray,
    config: AdapterConfig,
    dram_config: DramConfig | None = None,
    vec: np.ndarray | None = None,
    ideal_memory: bool = False,
    channels: int = 1,
    engine: str | None = None,
):
    """Preload DRAM with an index stream and an element vector, and wire
    an adapter + reorder front + memory into a simulator.

    ``channels > 1`` replaces the single HBM2 pseudo-channel with a
    block-interleaved :class:`~repro.mem.multichannel.
    MultiChannelMemory` of that many channels (incompatible with
    ``ideal_memory``).  ``engine`` selects the simulation engine
    (``"step"`` or ``"batched"``, default
    :func:`~repro.sim.clock.default_engine`); both are bit-exact.
    Returns ``(simulator, adapter, memory, expected_elements)``.
    """
    dram_config = dram_config or DramConfig()
    if channels < 1:
        raise SimulationError("need at least one memory channel")
    if channels > 1 and ideal_memory:
        raise SimulationError("ideal memory is single-channel only")
    indices = np.ascontiguousarray(indices, dtype=np.uint32)
    if indices.size == 0:
        raise SimulationError("empty index stream")
    ncols = int(indices.max()) + 1
    if vec is None:
        vec = np.arange(1, ncols + 1, dtype=np.float64)
    else:
        vec = np.asarray(vec, dtype=np.float64)
        if len(vec) < ncols:
            raise SimulationError("vector shorter than max index")

    store_bytes = indices.nbytes + vec.nbytes + (1 << 12)
    store = BackingStore(store_bytes)
    idx_base = store.alloc_array(indices)
    vec_base = store.alloc_array(vec)

    if ideal_memory:
        memory: IdealMemory | DramChannel | MultiChannelMemory = IdealMemory(
            store, dram_config
        )
    elif channels > 1:
        memory = MultiChannelMemory(store, dram_config, num_channels=channels)
    else:
        memory = DramChannel(store, dram_config)
    burst = IndirectBurst(
        index_base=idx_base,
        count=len(indices),
        element_base=vec_base,
        index_bytes=4,
        element_bytes=config.element_bytes,
    )
    sinks: dict[int, Fifo[MemResponse]] = {}
    reorder = ReorderBuffer(memory.req, memory.rsp, sinks)
    adapter = IndirectStreamUnit(config, dram_config, burst, reorder.req, sinks)

    memory_parts = (
        memory.components() if isinstance(memory, MultiChannelMemory) else [memory]
    )
    simulator = Simulator(
        adapter.components() + [reorder, *memory_parts],
        engine=engine or default_engine(),
    )
    expected = vec[indices]
    return simulator, adapter, memory, expected


def run_indirect_stream(
    indices: np.ndarray,
    config: AdapterConfig,
    dram_config: DramConfig | None = None,
    variant: str = "",
    verify: bool = True,
    ideal_memory: bool = False,
    max_cycles: int = 200_000_000,
    channels: int = 1,
    engine: str | None = None,
) -> AdapterMetrics:
    """Stream ``vec[indices]`` through the cycle-accurate adapter.

    ``channels > 1`` runs the adapter against a block-interleaved
    multi-channel HBM (the substrate the ``multichannel`` sweep
    backend's ``model=cycle`` points use).  ``engine`` selects the
    step-wise or event-batched simulation engine (both bit-exact;
    default :func:`~repro.sim.clock.default_engine`).  Returns the
    paper's adapter metrics; raises
    :class:`~repro.errors.SimulationError` if the functional output
    does not match the reference gather (with ``verify=True``).
    """
    dram_config = dram_config or DramConfig()
    simulator, adapter, memory, expected = build_indirect_system(
        indices,
        config,
        dram_config,
        ideal_memory=ideal_memory,
        channels=channels,
        engine=engine,
    )
    cycles = simulator.run_until(lambda: adapter.done, max_cycles=max_cycles)

    if verify:
        got = np.asarray(adapter.output)
        if len(got) != len(expected) or not np.array_equal(got, expected):
            bad = int(np.flatnonzero(got != expected)[0]) if len(got) == len(
                expected
            ) else -1
            raise SimulationError(
                f"adapter output mismatch (first bad position {bad})"
            )

    stats = memory.stats.as_dict()
    metrics = AdapterMetrics(
        variant=variant or variant_label(config),
        count=len(indices),
        cycles=cycles,
        idx_txns=adapter.fetcher.blocks_issued,
        elem_txns=adapter.elem_txns,
        index_bytes=4,
        element_bytes=config.element_bytes,
        access_bytes=dram_config.access_bytes,
        freq_hz=dram_config.freq_hz,
        dram_stats=stats,
    )
    if isinstance(memory, (DramChannel, MultiChannelMemory)):
        metrics.extras["dram_utilization"] = memory.utilization(cycles)
    if isinstance(memory, MultiChannelMemory):
        metrics.extras["channels"] = float(memory.num_channels)
    return metrics
