"""Element request generator: addresses -> narrow element requests.

Takes up to one address per lane per cycle (N in parallel) from its
:class:`AddressSource` and hands the resulting narrow requests to the
element path — either the request coalescer's W upsizer queues or the
direct (no-coalescer) path — through the :class:`RequestSink` protocol.
The gather and the scatter take their addresses from the index
splitter's lane queues (:class:`LaneIndices`); a strided burst is its
own source (:class:`repro.axipack.strided.StridedBurst`).

The sequential (SEQx) configuration serialises generation to a single
request per cycle, reproducing the paper's reduced-input-port variant.
The direct path requires strict stream-order issue, which the ordered
mode provides at full N-per-cycle throughput.
:meth:`ElementRequestGen.mode_for` is the rule that picks the mode.
"""

from __future__ import annotations

from typing import Callable, Protocol

from ..config import AdapterConfig
from ..sim.component import Component
from .burst import IndirectBurst, NarrowRequest
from .index_fetcher import IndexFetcher
from .index_splitter import IndexSplitter


class RequestSink(Protocol):
    """Element path input port(s) for narrow requests."""

    def can_accept(self, seq: int) -> bool:
        """True if the request with stream position ``seq`` fits now."""
        ...

    def accept(self, request: NarrowRequest) -> None:
        """Take ownership of one narrow request."""
        ...

    def accept_watches(self) -> list:
        """FIFOs whose activity can change ``can_accept`` (for the
        batched engine: the generator watches these)."""
        ...


class AddressSource(Protocol):
    """Where the generator's element addresses come from: a check per
    lane that its next address can be taken now (``lane_ready``), the
    take of that address as stream position ``seq`` (``take``), and the
    FIFOs whose activity can change a check (``ready_watches``)."""

    def lane_ready(self, lanes: int) -> list[Callable[[], bool]]: ...

    def take(self, lane: int, seq: int) -> int: ...

    def ready_watches(self) -> list: ...


class LaneIndices:
    """The gather's and the scatter's address source: the index
    splitter's lane queues, each index scaled onto the burst's element
    array; every index taken returns one index-fetch credit."""

    def __init__(
        self, splitter: IndexSplitter, fetcher: IndexFetcher, burst: IndirectBurst
    ) -> None:
        self.queues = splitter.lane_queues
        self.free_credits = fetcher.free_credits
        self.element_base = burst.element_base
        self.element_bytes = burst.element_bytes

    def lane_ready(self, lanes: int) -> list[Callable[[], bool]]:
        return [queue.can_pop for queue in self.queues]

    def take(self, lane: int, seq: int) -> int:
        index = self.queues[lane].pop()
        self.free_credits(1)
        return self.element_base + index * self.element_bytes

    def ready_watches(self) -> list:
        return list(self.queues)


class ElementRequestGen(Component):
    """Generates N parallel (or ordered / 1-sequential) narrow
    requests per cycle."""

    #: lanes progress independently (parallel coalescer).
    MODE_PARALLEL = "parallel"
    #: strict stream order, up to N per cycle (direct no-coalescer path).
    MODE_ORDERED = "ordered"
    #: strict stream order, one per cycle (SEQx variants).
    MODE_SEQUENTIAL = "sequential"

    @classmethod
    def mode_for(cls, config: AdapterConfig) -> str:
        """The mode ``config``'s element path takes: ordered for the
        direct path, sequential for a SEQx coalescer, parallel for an
        MLPx coalescer."""
        if config.coalescer is None:
            return cls.MODE_ORDERED
        return cls.MODE_PARALLEL if config.coalescer.parallel else cls.MODE_SEQUENTIAL

    def __init__(
        self,
        config: AdapterConfig,
        source: AddressSource,
        count: int,
        sink: RequestSink,
        mode: str,
        name: str = "elem_gen",
    ) -> None:
        super().__init__(name)
        if mode not in (self.MODE_PARALLEL, self.MODE_ORDERED, self.MODE_SEQUENTIAL):
            raise ValueError(f"unknown request generation mode {mode!r}")
        self.config = config
        self.source = source
        self.count = count
        self.sink = sink
        self.mode = mode
        self.generated = 0
        self._lane_counts = [0] * config.lanes
        self._cursor = 0
        # Bound once: the generator checks these every cycle it runs.
        self._ready = source.lane_ready(config.lanes)
        self._take = source.take
        self._can_accept = sink.can_accept
        self._accept = sink.accept

    @property
    def done(self) -> bool:
        return self.generated >= self.count

    def tick(self) -> None:
        if self.done:
            return
        if self.mode == self.MODE_PARALLEL:
            self._tick_parallel()
        else:
            limit = 1 if self.mode == self.MODE_SEQUENTIAL else self.config.lanes
            self._tick_ordered(limit)

    def next_event(self) -> int | None:
        if self.done:
            return None
        lanes = self.config.lanes
        if self.mode == self.MODE_PARALLEL:
            for lane in range(lanes):
                seq = self._lane_counts[lane] * lanes + lane
                if seq < self.count and self._ready[lane]() and self._can_accept(seq):
                    return self.cycle
            return None
        # Ordered modes: ``_cursor`` == ``generated`` < ``count``.
        lane = self._cursor % lanes
        if self._ready[lane]() and self._can_accept(self._cursor):
            return self.cycle
        return None

    def watches(self) -> list:
        return [*self.source.ready_watches(), *self.sink.accept_watches()]

    def _emit(self, lane: int, seq: int) -> bool:
        """Try to move one address from the source to the sink."""
        if not self._ready[lane]() or not self._can_accept(seq):
            return False
        self._accept(NarrowRequest(seq=seq, lane=lane, addr=self._take(lane, seq)))
        self.generated += 1
        return True

    def _tick_parallel(self) -> None:
        lanes = self.config.lanes
        for lane in range(lanes):
            seq = self._lane_counts[lane] * lanes + lane
            if seq < self.count and self._emit(lane, seq):
                self._lane_counts[lane] += 1

    def _tick_ordered(self, limit: int) -> None:
        for _ in range(limit):
            if self._cursor >= self.count:
                return
            lane = self._cursor % self.config.lanes
            if not self._emit(lane, self._cursor):
                return
            self._cursor += 1
