"""Component base class for the cycle-driven kernel."""

from __future__ import annotations

from .fifo import Fifo

#: horizon sentinel used by ``next_event`` implementations when folding
#: several candidate due times with ``min``; any accumulated value at or
#: beyond this means "no self-scheduled event" and maps to ``None``.
FAR_FUTURE = 1 << 62


class Component:
    """A clocked hardware block.

    Subclasses implement :meth:`tick`, which runs once per cycle and may
    pop from input FIFOs and push into output FIFOs.  FIFOs owned by a
    component (created through :meth:`make_fifo` or registered with
    :meth:`adopt_fifo`) are committed automatically by the simulator.

    Components may additionally implement the batched-engine protocol
    (:meth:`next_event`, :meth:`advance`, :meth:`watches`) — see
    :mod:`repro.sim.batched` and the two-engine contract in
    ARCHITECTURE.md.  The defaults are always safe: a component that
    does not override :meth:`next_event` is ticked every cycle by the
    batched engine, exactly as under the step engine.
    """

    #: batched-engine attachment; set by repro.sim.batched for the
    #: duration of a batched run, None under the step engine.
    _engine = None
    _engine_pos = -1

    def __init__(self, name: str) -> None:
        self.name = name
        self.fifos: list[Fifo] = []
        self.cycle = 0
        #: FIFOs with staged pushes this cycle (commit fast path).
        self._dirty: list[Fifo] = []

    def make_fifo(self, capacity: int | None, label: str) -> Fifo:
        """Create and register a FIFO owned by this component."""
        fifo = Fifo(capacity, f"{self.name}.{label}")
        fifo._dirty_sink = self._dirty
        self.fifos.append(fifo)
        return fifo

    def adopt_fifo(self, fifo: Fifo) -> Fifo:
        """Register an externally created FIFO for commit by this
        component's simulator."""
        fifo._dirty_sink = self._dirty
        self.fifos.append(fifo)
        return fifo

    def tick(self) -> None:
        """Advance one cycle.  Subclasses override."""
        raise NotImplementedError

    def commit(self) -> None:
        """End-of-cycle commit of the FIFOs that staged pushes."""
        if self._dirty:
            for fifo in self._dirty:
                fifo.commit()
            self._dirty.clear()
        self.cycle += 1

    # -- batched-engine protocol ----------------------------------------

    def next_event(self) -> int | None:
        """Earliest absolute cycle (``>= self.cycle``) at which
        :meth:`tick` could act or mutate state, given current state.

        Called by the batched engine immediately after this component's
        tick, with ``self.cycle`` already advanced to the next cycle.
        Return ``None`` to sleep until activity on an owned or watched
        FIFO (or an explicit :meth:`wake`).  The default — "always due"
        — degrades to per-cycle ticking and is safe for any component.
        """
        return self.cycle

    def advance(self, cycles: int) -> None:
        """Replay ``cycles`` guaranteed-no-op cycles of internal
        bookkeeping (pure time counters such as watchdog waits).

        The batched engine calls this before re-ticking a component it
        skipped; the contract is that the skipped ticks would not have
        touched FIFOs or any state other than what ``advance``
        reproduces.  Default: nothing to replay.

        Telemetry: with the cycle profiler on
        (:func:`repro.obs.profiled`), replayed cycles are charged to
        this component's ``advance`` bin, per-cycle ticks to ``tick``
        and bulk spans to ``bulk`` — the three bins always sum to the
        cycles the component elapsed, on either engine.
        """

    def set_bulk(self, enabled: bool) -> None:
        """Toggle the component's bulk-transfer machinery.

        The batched engine enables bulk mode on every component for the
        duration of a run and disables it on detach.  Components with a
        bulk fast path (e.g. the DRAM channel's incremental FR-FCFS
        mirror) build their auxiliary state here; the step engine never
        calls this, so the oracle always executes the plain per-cycle
        code paths and differential tests genuinely compare the two.
        Default: nothing to build.
        """

    def max_bulk(self, limit: int) -> int:
        """Length of the provably regular burst starting at
        ``self.cycle`` that :meth:`bulk_tick` may execute in one call,
        capped at ``limit``; 0 or 1 means "tick me per cycle".

        Contract: across the declared span, with every other component
        frozen, this component's ticks must perform **no FIFO
        operations** (no pushes, pops or commits — so no wakes, no op
        counting, no occupancy changes) and must not change the value
        of any externally read predicate (``busy``, ``done`` states).
        Only internal state — bank timings, schedulers, pure counters —
        may evolve.  The engine grants a span only while every other
        component sleeps through it, so regular internal evolution is
        unobservable and :meth:`bulk_tick` replacing the per-cycle
        ticks is bit-exact by construction.
        """
        return 0

    def bulk_tick(self, cycles: int) -> None:
        """Execute ``cycles`` ticks' worth of internal evolution as one
        bulk transfer (see :meth:`max_bulk`).  ``self.cycle`` holds the
        first cycle of the span; the engine advances it past the span
        afterwards."""
        raise NotImplementedError

    def watches(self) -> list[Fifo]:
        """FIFOs owned by *other* components whose activity must wake
        this component under the batched engine (inputs it pops, remote
        queues whose fill level gates its tick)."""
        return []

    def wake_fifos(self) -> tuple[list[Fifo], list[Fifo]]:
        """``(any_op, push_sensitive)`` — the FIFOs this component must
        be woken for under the batched engine.

        ``any_op``: pops wake this component the same cycle (pops are
        immediately visible) and commits wake it the next cycle (staged
        pushes become poppable then).  ``push_sensitive`` (a subset):
        *staged* pushes also wake it the same cycle — only needed when
        the component observes a FIFO's pre-commit state, e.g. capacity
        or an attribute updated alongside the push (the coalescers'
        ``accept`` side channel).  The default — everything it owns or
        watches, with every owned FIFO push-sensitive — is safe for any
        component; overriding with tighter sets only saves wake-ups.
        """
        return [*self.fifos, *self.watches()], list(self.fifos)

    def wake(self) -> None:
        """Ask the batched engine to re-evaluate this component (for
        non-FIFO input channels, e.g. credit returns).  No-op under the
        step engine."""
        engine = self._engine
        if engine is not None:
            engine.wake(self._engine_pos)

    @property
    def busy(self) -> bool:
        """True while the component still holds in-flight state.

        The simulator uses this for idle detection; the default
        implementation reports busy while any owned FIFO holds entries.
        """
        return any(not fifo.is_empty for fifo in self.fifos)

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r} @cycle {self.cycle}>"


class Wiring(Component):
    """A container that only hosts the FIFOs wiring other components
    together: it never acts, so the batched engine never ticks it and
    no FIFO wakes it."""

    def tick(self) -> None:
        pass

    def next_event(self) -> int | None:
        return None

    def wake_fifos(self) -> tuple[list[Fifo], list[Fifo]]:
        return [], []
