"""AXI-Pack burst descriptors (indirect and strided) and narrow
element requests."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..errors import ConfigError


@dataclass(frozen=True)
class IndirectBurst:
    """One AXI-Pack indirect read burst.

    Semantics: fetch ``count`` indices of ``index_bytes`` each starting
    at ``index_base``, then deliver the ``element_bytes``-wide elements
    at ``element_base + index * element_bytes``, densely packed onto the
    wide upstream bus in index-stream order.
    """

    index_base: int
    count: int
    element_base: int
    index_bytes: int = 4
    element_bytes: int = 8

    def __post_init__(self) -> None:
        if self.count <= 0:
            raise ValueError("burst element count must be positive")
        if self.index_base < 0 or self.element_base < 0:
            raise ValueError("negative base address")

    @property
    def index_stream_bytes(self) -> int:
        """Total footprint of the index array for this burst."""
        return self.count * self.index_bytes

    @property
    def effective_bytes(self) -> int:
        """Payload bytes the burst delivers upstream."""
        return self.count * self.element_bytes


@dataclass(frozen=True)
class NarrowRequest:
    """One narrow element request inside the adapter.

    ``seq`` is the global position in the indirect stream (the ``j`` in
    ``vec[col_idx[j]]``); responses must be delivered upstream in
    ascending ``seq`` order.
    """

    seq: int
    lane: int
    addr: int

    def block_addr(self, block_bytes: int) -> int:
        """The wide DRAM block this narrow request falls into."""
        return self.addr - self.addr % block_bytes

    def offset_in_block(self, block_bytes: int, element_bytes: int) -> int:
        """Element offset inside its wide block."""
        return (self.addr % block_bytes) // element_bytes


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
