"""Multi-channel memory: block-interleaved HBM2 channels.

The paper evaluates one HBM2 pseudo-channel; real HBM stacks expose
many.  :class:`MultiChannelMemory` interleaves consecutive wide blocks
across ``num_channels`` independent :class:`~repro.mem.dram.DramChannel`
instances behind a single request/response pair, scaling peak bandwidth
linearly — the substrate for the multi-channel ablation.

Its analytic counterpart, ``fast_indirect_stream(..., channels=N)``
(:mod:`repro.axipack.fastmodel`), prices one bank-state service
timeline (:mod:`repro.mem.timeline`) per channel under this router's
block-interleave mapping.  The engine's ``multichannel`` sweep backend
runs it for ``model=fast`` points; its ``model=cycle`` points wire the
cycle adapter to :class:`MultiChannelMemory` directly
(``run_indirect_stream(..., channels=N)``), the substrate the fast
path is cross-validated against.
"""

from __future__ import annotations

from ..config import DramConfig
from ..sim.component import Component
from ..sim.fifo import Fifo
from ..sim.stats import StatSet
from .backing_store import BackingStore
from .dram import DramChannel
from .request import MemRequest, MemResponse


class MultiChannelMemory(Component):
    """Block-interleaved fan-out over N independent DRAM channels."""

    def __init__(
        self,
        store: BackingStore,
        config: DramConfig | None = None,
        num_channels: int = 2,
        name: str = "hbm",
    ) -> None:
        super().__init__(name)
        if num_channels < 1:
            raise ValueError("need at least one channel")
        self.config = config or DramConfig()
        self.num_channels = num_channels
        self.req: Fifo[MemRequest] = self.make_fifo(
            self.config.queue_depth, "req"
        )
        self.rsp: Fifo[MemResponse] = self.make_fifo(None, "rsp")
        # Each channel strips the channel-select bits before its bank
        # decode (channel_stride), so an N-channel stream still spreads
        # over all num_banks banks per channel — the decode the fast
        # model's per-channel timelines assume.
        self.channels = [
            DramChannel(
                store, self.config, name=f"{name}.ch{i}",
                channel_stride=num_channels,
            )
            for i in range(num_channels)
        ]
        self.stats = StatSet(name)

    def channel_of(self, addr: int) -> int:
        """Consecutive wide blocks rotate across channels."""
        return (addr // self.config.access_bytes) % self.num_channels

    def components(self) -> list[Component]:
        """This router plus its channels, for simulator registration."""
        return [self, *self.channels]

    def tick(self) -> None:
        # Route requests (one per channel per cycle at most — each
        # channel has its own command port).
        routed: set[int] = set()
        while self.req.can_pop():
            request = self.req.peek()
            channel = self.channel_of(request.addr)
            if channel in routed or not self.channels[channel].req.can_push():
                break
            self.channels[channel].req.push(self.req.pop())
            routed.add(channel)
            self.stats.add(f"ch{channel}_reqs")
        # Merge responses.
        for channel in self.channels:
            while channel.rsp.can_pop():
                self.rsp.push(channel.rsp.pop())

    def next_event(self) -> int | None:
        if self.req.can_pop():
            request = self.req.peek()
            if self.channels[self.channel_of(request.addr)].req.can_push():
                return self.cycle
        if any(channel.rsp.can_pop() for channel in self.channels):
            return self.cycle
        return None

    def wake_fifos(self) -> tuple[list[Fifo], list[Fifo]]:
        # rsp is unbounded and write-only from this side; the channels'
        # FIFOs gate routing (req capacity) and merging (rsp data).
        any_op = [self.req]
        any_op += [c.req for c in self.channels]
        any_op += [c.rsp for c in self.channels]
        return any_op, []

    @property
    def busy(self) -> bool:
        return any(c.busy for c in self.channels) or not self.req.is_empty

    @property
    def peak_bandwidth_gbps(self) -> float:
        return self.num_channels * self.config.peak_bandwidth_gbps

    def utilization(self, elapsed_cycles: int) -> float:
        if elapsed_cycles <= 0:
            return 0.0
        busy = sum(c.busy_bus_cycles for c in self.channels)
        return min(1.0, busy / (elapsed_cycles * self.num_channels))

