"""Outside-in per-layer timing for the traced benchmark run.

:func:`install` wraps the public callables of each ``repro`` layer
where their callers look them up (module globals, class attributes and
the experiment registry), so nothing under ``src/`` changes.  Every
wrapped call is charged to one layer key; the clock keeps inclusive
time, self time (the call minus the wrapped calls nested inside it) and
a call count per key.  Cycle-model components are keyed by instance
name, so ``tick``/``advance``/``bulk_tick`` time lands on
``sim.<component>``.

Only the child process of a traced run imports this module.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

#: (layer key, module, attribute path) of every wrapped callable.  A
#: dotted attribute path names a method on a class; the method is
#: replaced on every class of the hierarchy that defines it.
TARGETS = (
    ("sparse.get_matrix", "repro.sparse.suite", "get_matrix"),
    ("sparse.to_sell", "repro.sparse.sell", "SellMatrix.from_csr"),
    ("sparse.ingest", "repro.sparse.corpus", "MatrixCache.ensure"),
    ("axipack.fast_stream", "repro.axipack.fastmodel", "fast_indirect_stream"),
    ("axipack.coalesce", "repro.axipack.fastmodel", "coalesce_window_exact"),
    ("axipack.analyze", "repro.axipack.fastmodel", "analyze_stream"),
    ("mem.timeline", "repro.mem.timeline", "service_timeline"),
    ("vpc.baseline", "repro.vpc.baseline", "BaselineSystem.run"),
    ("vpc.pack", "repro.vpc.system", "PackSystem.run"),
    ("sim.run", "repro.sim.clock", "Simulator.run_until"),
    ("engine.run", "repro.engine.executor", "SweepExecutor.run_stream"),
    ("engine.shard", "repro.engine.executor", "_run_shard_task"),
    ("engine.merge", "repro.engine.backends", "SweepBackend.merge"),
    ("engine.stream", "repro.engine.cache", "AnalysisCache.stream"),
    ("engine.analysis", "repro.engine.cache", "AnalysisCache.analysis"),
    ("corpus.run", "repro.corpus.runner", "CorpusRunner.run"),
    ("report.write", "repro.report.store", "ResultStore.write_table"),
    ("report.write", "repro.report.store", "ResultStore.write_summary"),
    ("report.write", "repro.report.store", "ResultStore.write_manifest"),
    ("report.render", "repro.report.render", "render_document"),
    ("serve.canonicalize", "repro.serve.protocol", "canonicalize"),
)

#: Component methods whose host time is a component's busy time.
COMPONENT_METHODS = ("tick", "advance", "bulk_tick")


class LayerClock:
    """Per-key inclusive time, self time and call counts."""

    def __init__(self) -> None:
        self.total: dict = defaultdict(float)
        self.self_s: dict = defaultdict(float)
        self.calls: dict = defaultdict(int)
        self.cycles = 0
        self.executors: list = []
        self._local = threading.local()

    def call(self, key, fn, *args, **kwargs):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        nested = [0.0]
        stack.append(nested)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - start
            stack.pop()
            if stack:
                stack[-1][0] += elapsed
            self.total[key] += elapsed
            self.self_s[key] += elapsed - nested[0]
            self.calls[key] += 1

    def wrap(self, key, fn):
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(key, fn)

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            return self.call(key, fn, *args, **kwargs)

        return timed

    def _wrap_generator(self, key, fn):
        """Charge the time spent inside the generator, resume by
        resume; the consumer's time between items is not charged."""

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            generator = fn(*args, **kwargs)
            while True:
                try:
                    item = self.call(key, next, generator)
                except StopIteration as stop:
                    return stop.value
                yield item

        return timed


def _import_all() -> None:
    """Import every ``repro`` module so each caller's binding exists
    before patching (lazy imports later resolve to the patched
    objects, which live on the defining modules and classes)."""
    import repro

    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        importlib.import_module(info.name)


def _patch_function(clock: LayerClock, key: str, module: str, name: str) -> None:
    original = getattr(importlib.import_module(module), name)
    wrapped = clock.wrap(key, original)
    for mod_name, mod in list(sys.modules.items()):
        if (mod_name == "repro" or mod_name.startswith("repro.")) and getattr(
            mod, name, None
        ) is original:
            setattr(mod, name, wrapped)


def _subclasses(cls) -> list:
    found, todo = [], [cls]
    while todo:
        current = todo.pop()
        found.append(current)
        todo.extend(current.__subclasses__())
    return found


def _patch_method(clock: LayerClock, key, cls, name: str) -> None:
    raw = cls.__dict__[name]
    if isinstance(raw, classmethod):
        setattr(cls, name, classmethod(clock.wrap(key, raw.__func__)))
    elif isinstance(raw, staticmethod):
        setattr(cls, name, staticmethod(clock.wrap(key, raw.__func__)))
    else:
        setattr(cls, name, clock.wrap(key, raw))


def _patch_component(clock: LayerClock, cls, name: str) -> None:
    raw = cls.__dict__[name]

    @functools.wraps(raw)
    def timed(component, *args):
        return clock.call(("component", component.name), raw, component, *args)

    setattr(cls, name, timed)


def install() -> LayerClock:
    """Wrap every target; returns the clock the wrappers charge."""
    _import_all()
    from repro.engine.executor import SweepExecutor
    from repro.sim.clock import Simulator
    from repro.sim.component import Component

    clock = LayerClock()
    for key, module, path in TARGETS:
        if "." not in path:
            _patch_function(clock, key, module, path)
            continue
        cls_name, method = path.split(".")
        base = getattr(importlib.import_module(module), cls_name)
        for cls in _subclasses(base):
            if method in cls.__dict__:
                _patch_method(clock, key, cls, method)

    for cls in _subclasses(Component):
        for method in COMPONENT_METHODS:
            if method in cls.__dict__:
                _patch_component(clock, cls, method)

    run_until = Simulator.run_until

    @functools.wraps(run_until)
    def counted_run_until(sim, *args, **kwargs):
        cycles = run_until(sim, *args, **kwargs)
        clock.cycles += cycles
        return cycles

    Simulator.run_until = counted_run_until

    init = SweepExecutor.__init__

    @functools.wraps(init)
    def registered_init(executor, *args, **kwargs):
        init(executor, *args, **kwargs)
        clock.executors.append(executor)

    SweepExecutor.__init__ = registered_init

    from repro.report import runner as report_runner

    for name, runner in list(report_runner.RUNNERS.items()):
        report_runner.RUNNERS[name] = clock.wrap(f"report.{name}", runner)
    return clock


def engine_stats(clock: LayerClock) -> dict:
    """Executor counters summed over every executor the run built."""
    totals: dict = defaultdict(int)
    for executor in clock.executors:
        for key, value in executor.stats.items():
            totals[key] += value
    return dict(totals)


def profile_bins(trace_path: str) -> dict:
    """Cycle-profiler bins from the run's NDJSON trace, read with the
    repository's own trace reader and merged by its profiler."""
    from repro.obs import CycleProfiler

    tools = Path(__file__).resolve().parent.parent / "tools"
    sys.path.insert(0, str(tools))
    from trace_summary import load_trace

    merged = CycleProfiler()
    if Path(trace_path).is_file():
        for profile in load_trace(Path(trace_path))[1]:
            merged.merge(profile["bins"])
    return merged.bins


def snapshot(clock: LayerClock, trace_path=None) -> dict:
    """Everything the parent needs to derive per-layer metrics."""
    keys = set(clock.total) | set(clock.self_s)
    return {
        "self_s": {_label(k): clock.self_s[k] for k in keys},
        "total_s": {_label(k): clock.total[k] for k in keys},
        "calls": {_label(k): clock.calls[k] for k in keys},
        "cycles": clock.cycles,
        "engine": engine_stats(clock),
        "bins": profile_bins(trace_path) if trace_path else {},
    }


def _label(key) -> str:
    if isinstance(key, tuple):
        return f"sim.{key[1]}"
    return key

