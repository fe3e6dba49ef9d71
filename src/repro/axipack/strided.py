"""Strided AXI-Pack bursts through the request coalescer.

AXI-Pack defines bursts of *strided* as well as indirect accesses
(paper Sec. I).  A strided burst needs no index stream — addresses are
``base + j*stride`` — but for strides below the DRAM access granularity
it benefits from the very same request coalescer: consecutive elements
share wide blocks and must not each cost a full 512 b access.

The burst is its own address source for the element request
generator the gather and the scatter use
(:class:`~repro.axipack.element_request_gen.ElementRequestGen`), and the
runner mirrors :func:`repro.axipack.adapter.run_indirect_stream`,
checking every packed element against the backing word its address
falls in.  The element path (coalescer / direct), packer, reorder front
and DRAM are exactly the shared components.  The fast-model counterpart
prices the burst's wide blocks as the gather does, through
:func:`repro.axipack.fastmodel.price_memory` and
:func:`repro.axipack.fastmodel.price_variant`, with no index fetches.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from ..config import AdapterConfig, DramConfig
from ..errors import ConfigError, SimulationError
from ..mem.backing_store import BackingStore
from ..mem.dram import DramChannel
from ..mem.reorder import ReorderBuffer
from ..mem.request import MemRequest, MemResponse
from ..sim.clock import Simulator, default_engine
from ..sim.component import Wiring
from ..sim.fifo import Fifo
from .adapter import element_path
from .arbiter import Arbiter
from .element_request_gen import ElementRequestGen
from .fastmodel import price_memory, price_variant
from .index_fetcher import ELEMENT_AXI_ID
from .metrics import AdapterMetrics
from .packer import ElementPacker


@dataclass(frozen=True)
class StridedBurst:
    """One AXI-Pack strided read burst: ``count`` elements of
    ``element_bytes`` at addresses ``base + j*stride_bytes``."""

    base: int
    count: int
    stride_bytes: int
    element_bytes: int = 8

    def __post_init__(self) -> None:
        if self.count <= 0:
            raise ValueError("burst element count must be positive")
        if self.stride_bytes < self.element_bytes:
            raise ValueError("stride must cover the element size")
        # Both models compute addresses in int64; past it they would wrap.
        last = self.address_of(self.count - 1)
        if max(self.stride_bytes, last) > np.iinfo(np.int64).max:
            raise ConfigError(
                f"strided burst (base {self.base}, {self.count} elements, "
                f"stride {self.stride_bytes} B) addresses past int64"
            )

    def address_of(self, j: int) -> int:
        return self.base + j * self.stride_bytes

    # -- address source of the element request generator: no index
    # stream, so every lane is always ready.

    def lane_ready(self, lanes: int) -> list[Callable[[], bool]]:
        return [lambda: True] * lanes

    def take(self, lane: int, seq: int) -> int:
        return self.address_of(seq)

    def ready_watches(self) -> list:
        return []


def run_strided_stream(
    burst: StridedBurst,
    config: AdapterConfig | None = None,
    dram_config: DramConfig | None = None,
    verify: bool = True,
    max_cycles: int = 100_000_000,
    engine: str | None = None,
) -> AdapterMetrics:
    """Stream a strided burst through the cycle-accurate element path.
    ``engine`` selects the step-wise or event-batched simulation engine
    (both bit-exact; default :func:`~repro.sim.clock.default_engine`)."""
    config = config or AdapterConfig()
    dram_config = dram_config or DramConfig()

    # Each element is the 8-byte backing word its address falls in: the
    # response splitter rounds an unaligned offset down to it.  Only
    # those words hold data, each its own nonzero value (word index +
    # 1), so neither a wrong word nor an untouched zero word can match.
    addrs = burst.base + np.arange(burst.count, dtype=np.int64) * burst.stride_bytes
    words = addrs // 8
    expected = (words + 1).astype(np.float64)
    span = burst.address_of(burst.count - 1) + burst.element_bytes
    store = BackingStore(span + (1 << 12))
    store.scatter_typed(words * 8, expected)

    memory = DramChannel(store, dram_config)
    sinks: dict[int, Fifo[MemResponse]] = {}
    reorder = ReorderBuffer(memory.req, memory.rsp, sinks)

    container = Wiring("strided_unit")
    elem_req: Fifo[MemRequest] = container.make_fifo(4, "elem_req")
    elem_rsp: Fifo[MemResponse] = container.make_fifo(None, "elem_rsp")
    sinks[ELEMENT_AXI_ID] = elem_rsp

    path = element_path(config, dram_config, elem_req, elem_rsp)
    mode = ElementRequestGen.mode_for(config)
    # Unlike the gather, a strided burst feeds a SEQx coalescer up to N
    # requests a cycle; the fast model's generation term assumes one.
    if mode == ElementRequestGen.MODE_SEQUENTIAL:
        mode = ElementRequestGen.MODE_ORDERED
    gen = ElementRequestGen(config, burst, burst.count, path, mode, name="stride_gen")
    packer = ElementPacker(config, burst.count, path.lane_out)
    arbiter = Arbiter([elem_req], reorder.req)

    sim = Simulator([container, gen, path, packer, arbiter, reorder, memory],
                    engine=engine or default_engine())
    cycles = sim.run_until(lambda: packer.done, max_cycles=max_cycles)

    if verify and not np.array_equal(np.asarray(packer.output), expected):
        raise SimulationError("strided output mismatch")

    return AdapterMetrics(
        variant="strided",
        count=burst.count,
        cycles=cycles,
        idx_txns=0,
        elem_txns=path.stats["wide_elem_txns"],
        element_bytes=burst.element_bytes,
        access_bytes=dram_config.access_bytes,
        freq_hz=dram_config.freq_hz,
        dram_stats=memory.stats.as_dict(),
    )


def fast_strided_stream(
    burst: StridedBurst,
    config: AdapterConfig | None = None,
    dram_config: DramConfig | None = None,
) -> AdapterMetrics:
    """Analytic counterpart of :func:`run_strided_stream`: the burst's
    wide blocks priced as the gather's are, by
    :func:`repro.axipack.fastmodel.price_memory` and
    :func:`repro.axipack.fastmodel.price_variant`, with no index
    transactions."""
    config = config or AdapterConfig()
    dram = dram_config or DramConfig()
    addrs = burst.base + np.arange(burst.count, dtype=np.int64) * burst.stride_bytes
    window = config.coalescer.window if config.has_coalescer else None
    memory = price_memory(addrs // dram.access_bytes, 0, window, dram)
    metrics = price_variant(burst.count, config, dram, memory, variant="strided")
    return replace(metrics, element_bytes=burst.element_bytes)
