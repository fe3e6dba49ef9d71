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
guaranteed by the DRAM controller's same-address hazard ordering.

Duplicate-index semantics therefore match a sequential scatter exactly:
duplicates within one window merge into one warp in stream order, and
warps to the same block always commit in window (stream) order.
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
from ..sim.component import FAR_FUTURE, Component
from ..sim.fifo import Fifo
from ..sim.stats import StatSet
from ..units import ceil_div
from .arbiter import Arbiter
from .burst import IndirectBurst, NarrowRequest
from .cshr import Window
from .element_request_gen import ElementRequestGen
from ..mem.timeline import service_timeline
from .fastmodel import (
    PIPELINE_FILL_CYCLES,
    StreamAnalysis,
    _analysis_matches,
    coalesce_window_exact,
)
from .index_fetcher import INDEX_AXI_ID, IndexFetcher
from .index_splitter import IndexSplitter
from .metrics import AdapterMetrics

#: AXI ID used for coalesced scatter writes.
WRITE_AXI_ID = 2


class WriteCoalescer(Component):
    """Window-based write merging with strobed wide writes.

    Structurally the upsizer/regulator/watcher of the read coalescer;
    the return path shrinks to an ack counter (write responses carry no
    data) and the metadata queues disappear — the offsets and values
    travel inside the wide write itself.
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
        super().__init__(name)
        if config.coalescer is None:
            raise SimulationError("WriteCoalescer requires a coalescer config")
        self.config = config
        self.cc = config.coalescer
        self.dram_config = dram_config
        self.values = np.asarray(values, dtype=np.float64)
        self.write_req = write_req
        self.write_rsp = write_rsp
        self.stats = StatSet(name)

        self.request_queues: list[Fifo[NarrowRequest]] = [
            self.make_fifo(self.cc.sizer_queue_depth, f"req{q}")
            for q in range(self.cc.window)
        ]
        self._queued = 0
        self._window: Window | None = None
        self._regulator_wait = 0
        self._watchdog_wait = 0
        #: open warp: block tag -> byte offset -> value (stream order).
        self._tag: int | None = None
        self._warp: dict[int, float] = {}
        self.acks_expected = 0
        self.acks_received = 0

    # -- RequestSink protocol ----------------------------------------------

    def can_accept(self, seq: int) -> bool:
        return self.request_queues[seq % self.cc.window].can_push()

    def accept(self, request: NarrowRequest) -> None:
        self.request_queues[request.seq % self.cc.window].push(request)
        self._queued += 1

    def accept_watches(self) -> list[Fifo]:
        """FIFOs whose pops can turn ``can_accept`` true (see
        :class:`~repro.axipack.element_request_gen.RequestSink`)."""
        return list(self.request_queues)

    # -- main loop -----------------------------------------------------------

    def tick(self) -> None:
        self._absorb_acks()
        self._tick_watcher()
        self._tick_regulator()

    def _absorb_acks(self) -> None:
        while self.write_rsp.can_pop():
            self.write_rsp.pop()
            self.acks_received += 1

    def _tick_regulator(self) -> None:
        if self._window is not None and not self._window.exhausted:
            return
        if self._queued == 0:
            self._regulator_wait = 0
            return
        queues_ready = [q for q in self.request_queues if q.can_pop()]
        complete = len(queues_ready) == self.cc.window
        if not complete and self._regulator_wait < self.cc.regulator_timeout:
            self._regulator_wait += 1
            return
        requests = [q.pop() for q in queues_ready]
        self._queued -= len(requests)
        self._window = Window(requests, self.dram_config.access_bytes, self.cc.window)
        self._regulator_wait = 0
        self.stats.add("windows")

    def _absorb_hits(self) -> int:
        window = self._window
        if window is None or self._tag is None:
            return 0
        hits = window.take_group(self._tag)
        for hit in hits:
            offset = hit.addr - self._tag
            # Last write wins in stream (absorb) order.
            self._warp[offset] = float(self.values[hit.seq])
        if hits:
            self.stats.add("coalesced_writes", len(hits))
        return len(hits)

    def _can_issue(self) -> bool:
        return bool(self._warp) and self.write_req.can_push()

    def _issue(self) -> None:
        assert self._tag is not None
        block = self.dram_config.access_bytes
        data = np.zeros(block, dtype=np.uint8)
        mask = np.zeros(block, dtype=bool)
        width = self.config.element_bytes
        for offset, value in self._warp.items():
            data[offset : offset + width] = np.frombuffer(
                np.float64(value).tobytes(), dtype=np.uint8
            )
            mask[offset : offset + width] = True
        self.write_req.push(
            MemRequest(
                addr=self._tag,
                nbytes=block,
                axi_id=WRITE_AXI_ID,
                is_write=True,
                write_data=data,
                write_mask=mask,
            )
        )
        self.acks_expected += 1
        self.stats.add("wide_writes")
        self._tag = None
        self._warp = {}
        self._watchdog_wait = 0

    def _tick_watcher(self) -> None:
        window = self._window
        absorbed = 0
        if self._tag is not None:
            absorbed = self._absorb_hits()

        pending = window is not None and not window.exhausted
        if pending:
            assert window is not None
            if self._tag is None:
                self._tag = window.oldest_unabsorbed().block_addr(
                    self.dram_config.access_bytes
                )
                self._absorb_hits()
                self._watchdog_wait = 0
            elif self._can_issue():
                next_tag = window.oldest_unabsorbed().block_addr(
                    self.dram_config.access_bytes
                )
                self._issue()
                self._tag = next_tag
            return

        if self._warp:
            if absorbed:
                self._watchdog_wait = 0
            else:
                self._watchdog_wait += 1
                if self._watchdog_wait >= self.cc.watchdog_timeout and self._can_issue():
                    self._issue()
                    self.stats.add("watchdog_issues")

    # -- batched-engine protocol ----------------------------------------------

    def next_event(self) -> int | None:
        cycle = self.cycle
        if self.write_rsp.can_pop():
            return cycle  # ack absorption pops every cycle
        window = self._window
        if window is not None and not window.exhausted:
            # Watcher with pending misses: arming and issuing are
            # immediate; blocked mid-window only a write_req pop can
            # unblock us.
            if self._tag is None or self._can_issue():
                return cycle
            if window.groups.get(self._tag):
                return cycle  # absorbable hits for the open warp
            return None
        due = FAR_FUTURE
        if self._warp and self._can_issue():
            wd = self.cc.watchdog_timeout - 1 - self._watchdog_wait
            due = cycle + wd if wd > 0 else cycle
        if self._queued > 0:
            if (
                all(q.can_pop() for q in self.request_queues)
                or self._regulator_wait >= self.cc.regulator_timeout
            ):
                return cycle
            due = min(
                due, cycle + self.cc.regulator_timeout - self._regulator_wait
            )
        return None if due >= FAR_FUTURE else due

    def advance(self, cycles: int) -> None:
        # Mirrors RequestCoalescer.advance: replay the two pure time
        # counters the skipped no-op ticks would have moved.
        window = self._window
        if window is not None and not window.exhausted:
            return
        if self._warp:
            self._watchdog_wait += cycles
        if self._queued == 0:
            self._regulator_wait = 0
        elif self._regulator_wait < self.cc.regulator_timeout:
            self._regulator_wait += cycles

    def wake_fifos(self) -> tuple[list[Fifo], list[Fifo]]:
        # accept() fills request_queues during the generator's tick and
        # the regulator observes those accepts the same cycle, so the
        # queues stay push-sensitive (as in the read coalescer).
        return [*self.fifos, self.write_req, self.write_rsp], list(
            self.request_queues
        )

    def max_bulk(self, limit: int) -> int:
        # Mirrors RequestCoalescer.max_bulk: the watchdog/regulator waits
        # are the only regular bursts, and next_event already reports the
        # nearest expiry; the span strictly before it is counter-only.
        due = self.next_event()
        if due is None:
            return 0
        span = due - self.cycle
        if span <= 1:
            return 0
        return span if span < limit else limit

    def bulk_tick(self, cycles: int) -> None:
        self.advance(cycles)

    @property
    def done(self) -> bool:
        if self._queued or self._warp:
            return False
        if self._window is not None and not self._window.exhausted:
            return False
        return self.acks_received == self.acks_expected

    @property
    def busy(self) -> bool:
        return not self.done or super().busy


class _Wiring(Component):
    def tick(self) -> None:
        pass

    def next_event(self) -> int | None:
        return None  # wiring FIFOs only, no behaviour

    def wake_fifos(self) -> tuple[list[Fifo], list[Fifo]]:
        return [], []


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

    wiring = _Wiring("scatter_unit")
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
    assert config.coalescer is not None
    mode = (
        ElementRequestGen.MODE_PARALLEL
        if config.coalescer.parallel
        else ElementRequestGen.MODE_SEQUENTIAL
    )
    gen = ElementRequestGen(config, splitter, fetcher, burst, coalescer, mode)
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
    """Analytic scatter counterpart (same window-exact coalescing).

    ``analysis`` is the optional precomputed stream analysis
    (:func:`repro.axipack.fastmodel.analyze_stream`) — the write
    coalescer groups by the same wide-block ids as the read path, so a
    sweep shares one previous-occurrence array across gather and
    scatter variants (the engine's ``scatter`` backend passes its
    cached analysis here).
    """
    config = config or AdapterConfig()
    dram = dram_config or DramConfig()
    if config.coalescer is None:
        raise SimulationError("the scatter path requires a coalescer")
    indices = np.ascontiguousarray(indices, dtype=np.int64)
    elements_per_block = dram.access_bytes // config.element_bytes
    if analysis is not None and _analysis_matches(
        analysis, indices, elements_per_block
    ):
        blocks, prev = analysis.blocks, analysis.prev
    else:
        blocks = indices * config.element_bytes // dram.access_bytes
        prev = None
    elem_txns, tags = coalesce_window_exact(blocks, config.coalescer.window, prev)
    idx_txns = ceil_div(len(indices) * config.index_bytes, dram.access_bytes)
    # Wide writes stream through the same bank-state service timeline
    # as reads (write bursts occupy the bus and rows identically).
    timeline = service_timeline(tags, dram)
    dram_cycles, walk = timeline.cycles, dict(timeline.stats)
    gen = (
        ceil_div(len(indices), config.lanes)
        if config.coalescer.parallel
        else len(indices)
    )
    cycles = (
        max(gen, elem_txns + idx_txns, dram_cycles)
        + PIPELINE_FILL_CYCLES
        + config.coalescer.watchdog_timeout
    )
    return AdapterMetrics(
        variant="scatter",
        count=len(indices),
        cycles=cycles,
        idx_txns=idx_txns,
        elem_txns=elem_txns,
        element_bytes=config.element_bytes,
        access_bytes=dram.access_bytes,
        freq_hz=dram.freq_hz,
        dram_stats=walk,
    )
