"""The simulator loop driving all components cycle by cycle."""

from __future__ import annotations

import os
from typing import Callable, Iterable

from ..errors import BudgetExceededError, ConfigError, DeadlockError
from ..obs import profiler as obs_profiler
from .component import Component

ENGINES = ("step", "batched")


def default_engine() -> str:
    """Engine used by the high-level runners when none is requested:
    ``$REPRO_SIM_ENGINE`` if set, otherwise the batched engine."""
    engine = os.environ.get("REPRO_SIM_ENGINE", "batched")
    if engine not in ENGINES:
        raise ConfigError(
            f"REPRO_SIM_ENGINE must be one of {ENGINES}, got {engine!r}"
        )
    return engine


class Simulator:
    """Drives a set of :class:`Component` instances.

    Each cycle, every component's ``tick`` runs (in registration order),
    then every owned FIFO commits.  Because pushes are invisible until
    commit, tick order does not affect results.

    Parameters
    ----------
    components:
        Blocks to simulate, in any order.
    deadlock_horizon:
        Abort with :class:`~repro.errors.DeadlockError` if this many
        consecutive cycles elapse with no FIFO activity anywhere while
        some component still reports ``busy``.
    engine:
        ``"step"`` ticks every component every cycle (the oracle);
        ``"batched"`` makes :meth:`run_until` jump quiet spans via
        :mod:`repro.sim.batched`.  Both produce bit-identical results;
        :meth:`step` always uses the step path.
    """

    def __init__(
        self,
        components: Iterable[Component],
        deadlock_horizon: int = 100_000,
        engine: str = "step",
    ) -> None:
        if engine not in ENGINES:
            raise ConfigError(f"engine must be one of {ENGINES}, got {engine!r}")
        self.components: list[Component] = list(components)
        self.deadlock_horizon = deadlock_horizon
        self.engine = engine
        self.cycle = 0
        self._idle_cycles = 0
        #: shared push/pop counter cell for every FIFO owned by this
        #: simulator's components (per-simulator idle detection — two
        #: live simulators must not mask each other's deadlocks).
        self._ops: list[int] = [0]
        for component in self.components:
            self._share_ops(component)

    def _share_ops(self, component: Component) -> None:
        for fifo in component.fifos:
            fifo._ops = self._ops

    def add(self, component: Component) -> Component:
        """Register one more component."""
        self.components.append(component)
        self._share_ops(component)
        return component

    def step(self, cycles: int = 1) -> None:
        """Advance the simulation by ``cycles`` cycles.

        With the cycle profiler enabled (:func:`repro.obs.profiled`),
        every executed cycle is charged as one ``tick`` per component —
        including the cycle that trips the deadlock detector, so the
        bins stay exact on the error path too.
        """
        ops = self._ops
        profiler = obs_profiler.active()
        executed = 0
        try:
            for _ in range(cycles):
                activity_before = ops[0]
                for component in self.components:
                    component.tick()
                for component in self.components:
                    component.commit()
                self.cycle += 1
                executed += 1
                if ops[0] == activity_before:
                    self._idle_cycles += 1
                    if (
                        self._idle_cycles >= self.deadlock_horizon
                        and any(c.busy for c in self.components)
                    ):
                        busy = [c.name for c in self.components if c.busy]
                        raise DeadlockError(
                            f"no progress for {self._idle_cycles} cycles; "
                            f"busy components: {busy}"
                        )
                else:
                    self._idle_cycles = 0
        finally:
            if profiler is not None and executed:
                for component in self.components:
                    profiler.add(component.name, "tick", executed)

    def run_until(
        self,
        done: Callable[[], bool],
        max_cycles: int = 50_000_000,
    ) -> int:
        """Step until ``done()`` returns True; returns the cycle count.

        Raises :class:`~repro.errors.BudgetExceededError` when
        ``max_cycles`` elapse first and :class:`DeadlockError` when the
        idle detector trips, since the hardware models are expected to
        converge.
        """
        if self.engine == "batched":
            from .batched import BatchedEngine

            return BatchedEngine(self).run(done, max_cycles)
        start = self.cycle
        while not done():
            if self.cycle - start >= max_cycles:
                raise BudgetExceededError(
                    max_cycles, [c.name for c in self.components if c.busy]
                )
            self.step()
        return self.cycle - start
