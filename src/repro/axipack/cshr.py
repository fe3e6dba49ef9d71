"""Coalescer status holding register (CSHR) and window bookkeeping.

The CSHR tracks the request warp currently being coalesced (paper
Sec. II-B):

* **Tag** — the wide DRAM block address being coalesced.
* **Status** — IDLE while coalescing, VALID once issued (the model
  represents the issued state implicitly: an issued warp lives in the
  metadata queues, and the register is re-armed with the next tag).
* **Hitmap / Offsets** — which window slots merged into the warp and
  their word offsets inside the wide block.  The model stores these as
  an ordered list of ``(slot, offset)`` pairs, equivalent to the W-bit
  hitmap plus per-slot offset registers (the list form also represents
  warps that span a window swap, which the hardware encodes with a
  window-boundary marker).

Both coalescers share the register and the window through
:class:`~repro.axipack.coalescer.WindowCoalescer`.  Only the meaning of
an entry differs: the read path merges ``(window slot, word offset)``
and caps each slot at its offsets-queue depth (``take_group``'s
``slot_counts``); the write path merges ``(stream position, byte
offset)`` with no cap, since the position names the value to write.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass, field

from .burst import NarrowRequest


@dataclass
class Cshr:
    """The single active coalescer status holding register."""

    tag: int | None = None
    #: merged (slot, offset) pairs in absorb order; the write path's
    #: "slot" is the stream position (see the module docstring).
    entries: list[tuple[int, int]] = field(default_factory=list)
    #: per-slot merge counts (the read path's metadata-queue capacity
    #: checks).
    slot_counts: Counter = field(default_factory=Counter)

    @property
    def armed(self) -> bool:
        """A tag is set and hits may merge."""
        return self.tag is not None

    @property
    def has_hits(self) -> bool:
        return bool(self.entries)

    def arm(self, tag: int) -> None:
        self.tag = tag
        self.entries = []
        self.slot_counts = Counter()

    def merge(self, slot: int, offset: int) -> None:
        self.entries.append((slot, offset))
        self.slot_counts[slot] += 1

    def reset(self) -> None:
        self.tag = None
        self.entries = []
        self.slot_counts = Counter()


class Window:
    """One regulator window: up to W narrow requests grouped by their
    wide DRAM block.

    Entries are kept in stream (seq) order; ``groups`` maps each wide
    block address to the deque of entries that fall into it, which lets
    the parallel watcher absorb a whole request warp in one step.  The
    slot of a request is its upsizer queue index, ``seq mod W``.
    """

    def __init__(
        self, requests: list[NarrowRequest], block_bytes: int, window_slots: int
    ) -> None:
        self.block_bytes = block_bytes
        self.window_slots = window_slots
        self.order = sorted(requests, key=lambda r: r.seq)
        self.groups: dict[int, deque[NarrowRequest]] = {}
        for request in self.order:
            block = request.block_addr(block_bytes)
            self.groups.setdefault(block, deque()).append(request)
        self._absorbed: set[int] = set()
        self.remaining = len(self.order)
        self._scan = 0

    def slot_of(self, request: NarrowRequest) -> int:
        return request.seq % self.window_slots

    @property
    def exhausted(self) -> bool:
        """All entries absorbed into some warp."""
        return self.remaining == 0

    def oldest_unabsorbed(self) -> NarrowRequest:
        """The oldest entry not yet merged (next CSHR tag source)."""
        while self._scan < len(self.order):
            request = self.order[self._scan]
            if request.seq not in self._absorbed:
                return request
            self._scan += 1
        raise IndexError("window has no unabsorbed entries")

    def take_group(
        self,
        block: int,
        slot_counts: Counter | None = None,
        slot_depth: int = 0,
    ) -> list[NarrowRequest]:
        """Absorb entries of ``block``, optionally limited per slot.

        ``slot_counts`` holds the merges already in the current warp and
        ``slot_depth`` the per-slot metadata-queue capacity; entries
        that would overflow a slot's offset FIFO stay pending as misses.
        """
        group = self.groups.get(block)
        if not group:
            return []
        taken: list[NarrowRequest] = []
        kept: deque[NarrowRequest] = deque()
        local: Counter = Counter()
        while group:
            request = group.popleft()
            if slot_counts is not None:
                slot = self.slot_of(request)
                if slot_counts[slot] + local[slot] >= slot_depth:
                    kept.append(request)
                    continue
                local[slot] += 1
            taken.append(request)
        if kept:
            self.groups[block] = kept
        else:
            del self.groups[block]
        self._absorbed.update(request.seq for request in taken)
        self.remaining -= len(taken)
        return taken
