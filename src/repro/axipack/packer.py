"""Element packer: densely packs narrow elements onto the wide
upstream AXI-Pack bus (paper Sec. II-A).

One beat carries up to ``bus_bytes / element_bytes`` (= N) elements.
Beat ``b`` is complete when every lane has delivered its element for
stream positions ``b*N .. b*N+N-1``; the tail beat may be narrower.
"""

from __future__ import annotations

from ..config import AdapterConfig
from ..sim.component import Component
from ..sim.fifo import Fifo


class ElementPacker(Component):
    """Reassembles the in-order element stream into wide beats."""

    def __init__(
        self,
        config: AdapterConfig,
        count: int,
        lane_out: list[Fifo[float]],
        name: str = "packer",
    ) -> None:
        super().__init__(name)
        self.config = config
        self.count = count
        self.lane_out = lane_out
        self.emitted = 0
        self.beats = 0
        #: delivered element values in stream order (functional output).
        self.output: list[float] = []

    @property
    def done(self) -> bool:
        return self.emitted >= self.count

    def tick(self) -> None:
        if self.done:
            return
        needed = min(self.config.lanes, self.count - self.emitted)
        if not all(self.lane_out[s].can_pop() for s in range(needed)):
            return
        for s in range(needed):
            self.output.append(self.lane_out[s].pop())
        self.emitted += needed
        self.beats += 1

    def next_event(self) -> int | None:
        if self.done:
            return None
        needed = min(self.config.lanes, self.count - self.emitted)
        if all(self.lane_out[s].can_pop() for s in range(needed)):
            return self.cycle
        return None

    def watches(self) -> list[Fifo]:
        return list(self.lane_out)

    @property
    def busy(self) -> bool:
        return not self.done
