"""Cycle-driven simulation kernel.

The kernel follows a two-phase update discipline: during a cycle every
component's :meth:`~repro.sim.component.Component.tick` runs and may pop
from and push into :class:`~repro.sim.fifo.Fifo` instances; pushes only
become visible after the simulator commits the cycle.  This makes
simulation results independent of the order in which components tick,
mirroring how registered hardware samples its inputs on a clock edge.

Two interchangeable engines drive the kernel: the per-cycle step engine
(the oracle) and the event-batched engine in :mod:`repro.sim.batched`,
selected by the ``engine`` knob on :class:`Simulator` (high-level
runners default to :func:`default_engine`).

Only the stat counters load with the package (the fast models count
with them too); the kernel loads on first use of one of its names.
"""

from ..lazy import lazy_exports
from .stats import Counter, StatSet

__getattr__ = lazy_exports(__name__, {
    "Simulator": ".clock",
    "default_engine": ".clock",
    "BatchedEngine": ".batched",
    "Component": ".component",
    "FAR_FUTURE": ".component",
    "Fifo": ".fifo",
})

__all__ = [
    "Simulator",
    "BatchedEngine",
    "Component",
    "Fifo",
    "Counter",
    "StatSet",
    "FAR_FUTURE",
    "default_engine",
]
