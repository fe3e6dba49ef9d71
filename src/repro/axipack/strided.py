"""Strided AXI-Pack bursts through the request coalescer.

AXI-Pack defines bursts of *strided* as well as indirect accesses
(paper Sec. I).  A strided burst needs no index stream — addresses are
``base + j*stride`` — but for strides below the DRAM access granularity
it benefits from the very same request coalescer: consecutive elements
share wide blocks and must not each cost a full 512 b access.

This module adds the strided address generator and a runner mirroring
:func:`repro.axipack.adapter.run_indirect_stream`, which checks every
packed element against the backing word its address falls in.  The
element path (coalescer / direct), packer, reorder front and DRAM are
exactly the shared components.  The fast-model counterpart prices the
burst's wide blocks through the gather's pipeline formula
(:func:`repro.axipack.fastmodel.price_block_stream`) with no index
fetches.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ..config import AdapterConfig, DramConfig
from ..errors import ConfigError, SimulationError
from ..mem.backing_store import BackingStore
from ..mem.dram import DramChannel
from ..mem.reorder import ReorderBuffer
from ..mem.request import MemRequest, MemResponse
from ..sim.clock import Simulator, default_engine
from ..sim.component import Component, Wiring
from ..sim.fifo import Fifo
from .arbiter import Arbiter
from .burst import NarrowRequest
from .coalescer import RequestCoalescer
from .direct_path import DirectElementPath
from .element_request_gen import RequestSink
from .fastmodel import price_block_stream
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

    @property
    def effective_bytes(self) -> int:
        return self.count * self.element_bytes


class StridedRequestGen(Component):
    """Generates up to N strided narrow requests per cycle (no index
    stream, hence no index queues or credits)."""

    def __init__(
        self,
        config: AdapterConfig,
        burst: StridedBurst,
        sink: RequestSink,
        ordered: bool = False,
        name: str = "stride_gen",
    ) -> None:
        super().__init__(name)
        self.config = config
        self.burst = burst
        self.sink = sink
        self.ordered = ordered
        self._cursor = 0
        self._lane_counts = [0] * config.lanes

    @property
    def done(self) -> bool:
        return self.generated >= self.burst.count

    @property
    def generated(self) -> int:
        if self.ordered:
            return self._cursor
        return sum(self._lane_counts)

    def tick(self) -> None:
        if self.ordered:
            self._tick_ordered()
        else:
            self._tick_parallel()

    def _request(self, lane: int, seq: int) -> NarrowRequest:
        return NarrowRequest(seq=seq, lane=lane, addr=self.burst.address_of(seq))

    def _tick_parallel(self) -> None:
        lanes = self.config.lanes
        for lane in range(lanes):
            seq = self._lane_counts[lane] * lanes + lane
            if seq >= self.burst.count or not self.sink.can_accept(seq):
                continue
            self.sink.accept(self._request(lane, seq))
            self._lane_counts[lane] += 1

    def _tick_ordered(self) -> None:
        for _ in range(self.config.lanes):
            if self._cursor >= self.burst.count:
                return
            if not self.sink.can_accept(self._cursor):
                return
            self.sink.accept(self._request(self._cursor % self.config.lanes,
                                           self._cursor))
            self._cursor += 1

    def next_event(self) -> int | None:
        if self.done:
            return None
        if self.ordered:
            return self.cycle if self.sink.can_accept(self._cursor) else None
        lanes = self.config.lanes
        for lane in range(lanes):
            seq = self._lane_counts[lane] * lanes + lane
            if seq < self.burst.count and self.sink.can_accept(seq):
                return self.cycle
        return None

    def watches(self) -> list:
        return list(self.sink.accept_watches())


def run_strided_stream(
    burst: StridedBurst | None = None,
    config: AdapterConfig | None = None,
    dram_config: DramConfig | None = None,
    count: int = 1024,
    stride_bytes: int = 16,
    verify: bool = True,
    max_cycles: int = 100_000_000,
    engine: str | None = None,
) -> AdapterMetrics:
    """Stream a strided burst through the cycle-accurate element path.
    ``engine`` selects the step-wise or event-batched simulation engine
    (both bit-exact; default :func:`~repro.sim.clock.default_engine`)."""
    config = config or AdapterConfig()
    dram_config = dram_config or DramConfig()
    if burst is None:
        burst = StridedBurst(base=0, count=count, stride_bytes=stride_bytes)

    span = burst.address_of(burst.count - 1) + burst.element_bytes
    store = BackingStore(span + (1 << 12))
    backing = np.arange(span // 8 + 8, dtype=np.float64)
    store.write_typed(0, backing)

    memory = DramChannel(store, dram_config)
    sinks: dict[int, Fifo[MemResponse]] = {}
    reorder = ReorderBuffer(memory.req, memory.rsp, sinks)

    container = Wiring("strided_unit")
    elem_req: Fifo[MemRequest] = container.make_fifo(4, "elem_req")
    elem_rsp: Fifo[MemResponse] = container.make_fifo(None, "elem_rsp")
    sinks[ELEMENT_AXI_ID] = elem_rsp

    if config.has_coalescer:
        path: RequestCoalescer | DirectElementPath = RequestCoalescer(
            config, dram_config, elem_req, elem_rsp
        )
        assert config.coalescer is not None
        ordered = not config.coalescer.parallel
    else:
        path = DirectElementPath(config, dram_config, elem_req, elem_rsp)
        ordered = True
    gen = StridedRequestGen(config, burst, path, ordered=ordered)

    from .burst import IndirectBurst

    packer = ElementPacker(
        config,
        IndirectBurst(index_base=0, count=burst.count, element_base=0,
                      element_bytes=burst.element_bytes),
        path.lane_out,
    )
    arbiter = Arbiter([elem_req], reorder.req)

    sim = Simulator([container, gen, path, packer, arbiter, reorder, memory],
                    engine=engine or default_engine())
    cycles = sim.run_until(lambda: packer.done, max_cycles=max_cycles)

    if verify:
        # Each element is the 8-byte backing word its address falls in:
        # the response splitter rounds an unaligned offset down to it.
        addrs = burst.base + np.arange(burst.count, dtype=np.int64) * burst.stride_bytes
        if not np.array_equal(np.asarray(packer.output), backing[addrs // 8]):
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
    wide blocks priced by
    :func:`repro.axipack.fastmodel.price_block_stream` with no index
    transactions."""
    config = config or AdapterConfig()
    dram = dram_config or DramConfig()
    addrs = burst.base + np.arange(burst.count, dtype=np.int64) * burst.stride_bytes
    metrics = price_block_stream(
        addrs // dram.access_bytes, 0, config, dram, variant="strided"
    )
    return replace(metrics, element_bytes=burst.element_bytes)
