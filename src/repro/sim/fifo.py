"""Two-phase FIFO: the basic wiring element between components.

A :class:`Fifo` behaves like a registered hardware queue.  Entries pushed
during a cycle are staged and only become poppable after the simulator
calls :meth:`commit` at the end of the cycle, so a value written in
cycle *k* is readable in cycle *k+1* regardless of component tick order.
Pops take effect immediately (an entry popped this cycle cannot be
popped twice, and the freed slot is reusable within the cycle — a
fall-through full-side, as in a FIFO with combinational ready).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Generic, Iterator, TypeVar

from ..errors import ProtocolError

T = TypeVar("T")


class Fifo(Generic[T]):
    """Bounded FIFO with end-of-cycle commit semantics.

    Parameters
    ----------
    capacity:
        Maximum number of committed plus staged entries.  ``None`` means
        unbounded (useful for modelling ideal sinks in tests).
    name:
        Label used in error messages and statistics.
    """

    def __init__(self, capacity: int | None, name: str = "fifo") -> None:
        if capacity is not None and capacity < 1:
            raise ValueError(f"{name}: capacity must be >= 1 or None")
        self.capacity = capacity
        self.name = name
        self._committed: deque[T] = deque()
        self._staged: list[T] = []
        self.total_pushed = 0
        self.total_popped = 0
        self.max_occupancy = 0
        #: push/pop counter cell.  A standalone FIFO gets its own cell;
        #: the owning :class:`~repro.sim.clock.Simulator` rebinds it to a
        #: cell shared by all of its FIFOs so the idle detector reads one
        #: integer per cycle instead of walking every FIFO.
        self._ops: list[int] = [0]
        #: owning component's dirty list (set by Component.make_fifo) so
        #: commits only visit FIFOs that actually staged pushes.
        self._dirty_sink: list["Fifo"] | None = None
        #: batched-engine wake hook while a batched run is in progress:
        #: ``(engine, any_op_waiters, push_waiters)`` position tuples,
        #: else None (see repro.sim.batched).
        self._wake: tuple[Any, tuple[int, ...], tuple[int, ...]] | None = None

    # -- producer side -------------------------------------------------

    def can_push(self, count: int = 1) -> bool:
        """True if ``count`` more entries fit this cycle."""
        if self.capacity is None:
            return True
        return len(self._committed) + len(self._staged) + count <= self.capacity

    def push(self, item: T) -> None:
        """Stage one entry for commit at end of cycle."""
        if not self.can_push():
            raise ProtocolError(f"{self.name}: push into full FIFO")
        if not self._staged and self._dirty_sink is not None:
            self._dirty_sink.append(self)
        self._staged.append(item)
        self.total_pushed += 1
        self._ops[0] += 1
        occupancy = len(self._committed) + len(self._staged)
        if occupancy > self.max_occupancy:
            self.max_occupancy = occupancy
        wake = self._wake
        if wake is not None and wake[2]:
            wake[0].notify(wake[2])

    # -- consumer side -------------------------------------------------

    def can_pop(self) -> bool:
        """True if a committed entry is available this cycle."""
        return bool(self._committed)

    def peek(self) -> T:
        """Return the oldest committed entry without removing it."""
        if not self._committed:
            raise ProtocolError(f"{self.name}: peek on empty FIFO")
        return self._committed[0]

    def pop(self) -> T:
        """Remove and return the oldest committed entry."""
        if not self._committed:
            raise ProtocolError(f"{self.name}: pop on empty FIFO")
        self.total_popped += 1
        self._ops[0] += 1
        wake = self._wake
        if wake is not None and wake[1]:
            wake[0].notify(wake[1])
        return self._committed.popleft()

    # -- simulator side ------------------------------------------------

    def commit(self) -> None:
        """Make this cycle's staged pushes visible.  Called by the
        simulator at end of cycle."""
        if self._staged:
            self._committed.extend(self._staged)
            self._staged.clear()

    # -- introspection ---------------------------------------------------

    def __len__(self) -> int:
        """Number of committed (poppable) entries."""
        return len(self._committed)

    @property
    def occupancy(self) -> int:
        """Committed plus staged entries (space actually consumed)."""
        return len(self._committed) + len(self._staged)

    @property
    def is_empty(self) -> bool:
        """True if no entry is committed or staged."""
        return not self._committed and not self._staged

    def __iter__(self) -> Iterator[T]:
        return iter(self._committed)

    def __repr__(self) -> str:
        cap = "inf" if self.capacity is None else str(self.capacity)
        return f"Fifo({self.name!r}, {len(self._committed)}+{len(self._staged)}/{cap})"


def drain(fifo: Fifo[T]) -> list[T]:
    """Pop every committed entry (test helper)."""
    items: list[Any] = []
    while fifo.can_pop():
        items.append(fifo.pop())
    return items
