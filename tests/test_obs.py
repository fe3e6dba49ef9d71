"""The telemetry subsystem: metrics, traces, cycle attribution.

Four contracts pinned here.  **One counter truth**: every stat dict in
the system spells its keys exactly as the tuples below pin them (the
spellings leak into committed manifests and the ``/stats`` wire
schema, so drift is corruption), and ``/metrics`` reads those dicts at
scrape time, so every ``/stats`` counter appears there with the same
value.  **Exactness**: the cycle profiler's per-component bins sum
bit-exactly to the cycles the simulator says elapsed, on both engines,
across the differential grid.
**Propagation**: spans cross the process pool — worker ``engine.shard``
spans come back re-parented under the requesting run span, one trace
id end to end.  **Zero cost off**: disabled tracing hands out one
shared no-op object (the benchmark guard in ``benchmarks/bench_obs.py``
bounds the wall-clock side).
"""

from __future__ import annotations

import importlib.util
import io
import json
import logging
import sys
import threading
import urllib.request
from pathlib import Path

import numpy as np
import pytest

from helpers import banded_stream, random_stream
from repro import obs
from repro.__main__ import main
from repro.axipack.adapter import run_indirect_stream
from repro.config import mlp_config, nocoalescer_config, seq_config
from repro.corpus import CorpusRunner
from repro.engine import SweepExecutor, grid_points
from repro.engine.cache import AnalysisCache
from repro.errors import ServeError
from repro.obs import profiler, trace
from repro.serve import JobManager
from repro.serve.client import ServeClient
from repro.serve.server import ReproServer
from repro.sim import Simulator
from repro.sim.component import Component
from repro.sparse.corpus import Corpus, MatrixCache, synthetic_entries

TINY = 12_000
SWEEP_REQ = {
    "cmd": "sweep",
    "matrices": ["msc01440"],
    "variants": ["MLPnc", "MLP64"],
    "max_nnz": TINY,
}

_SUMMARY_PATH = Path(__file__).resolve().parent.parent / "tools" / "trace_summary.py"
_spec = importlib.util.spec_from_file_location("trace_summary", _SUMMARY_PATH)
trace_summary = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(trace_summary)


@pytest.fixture(autouse=True)
def clean_telemetry():
    """Every test starts and ends with telemetry fully off."""
    obs.reset_registry()
    trace.shutdown()
    profiler.disable()
    yield
    obs.reset_registry()
    trace.shutdown()
    profiler.disable()


# -- metrics registry ----------------------------------------------------


class TestMetricsRegistry:
    def test_counter_round_trip(self):
        registry = obs.MetricsRegistry()
        registry.set_counter("repro_demo_total", 1, help="demo")
        registry.set_counter("repro_demo_total", 3)
        assert registry.value("repro_demo_total") == 3
        text = registry.render()
        assert "# HELP repro_demo_total demo" in text
        assert "# TYPE repro_demo_total counter" in text
        assert "repro_demo_total 3" in text.splitlines()

    def test_labeled_series_are_independent(self):
        registry = obs.MetricsRegistry()
        registry.set_counter("repro_demo_total", 1, flavor="a")
        registry.set_counter("repro_demo_total", 4, flavor="b")
        assert registry.value("repro_demo_total", flavor="a") == 1
        assert registry.value("repro_demo_total", flavor="b") == 4
        assert registry.value("repro_demo_total", flavor="c") == 0
        assert registry.series_count() == 2
        assert 'repro_demo_total{flavor="a"} 1' in registry.render()

    def test_gauge_sets_not_adds(self):
        registry = obs.MetricsRegistry()
        registry.set_gauge("repro_demo_workers", 4)
        registry.set_gauge("repro_demo_workers", 2)
        assert registry.value("repro_demo_workers") == 2
        assert "# TYPE repro_demo_workers gauge" in registry.render()

    def test_histogram_buckets_are_cumulative(self):
        registry = obs.MetricsRegistry()
        for value in (0.003, 0.003, 0.05, 30.0):
            registry.observe("repro_demo_seconds", value)
        lines = registry.render().splitlines()
        bucket = {
            line.split(" ")[0]: int(line.split(" ")[1])
            for line in lines
            if line.startswith("repro_demo_seconds_bucket")
        }
        assert bucket['repro_demo_seconds_bucket{le="0.001"}'] == 0
        assert bucket['repro_demo_seconds_bucket{le="0.005"}'] == 2
        assert bucket['repro_demo_seconds_bucket{le="0.1"}'] == 3
        assert bucket['repro_demo_seconds_bucket{le="60.0"}'] == 4
        assert bucket['repro_demo_seconds_bucket{le="+Inf"}'] == 4
        assert "repro_demo_seconds_count 4" in lines
        (series,) = registry.snapshot()["repro_demo_seconds"]["series"]
        assert series["count"] == 4
        assert series["sum"] == pytest.approx(30.056)

    def test_kind_conflicts_and_bad_values_raise(self):
        registry = obs.MetricsRegistry()
        registry.set_counter("repro_demo_total", 1)
        with pytest.raises(ValueError, match="is a counter"):
            registry.set_gauge("repro_demo_total", 1)
        with pytest.raises(ValueError, match="bad metric name"):
            registry.set_counter("0bad name", 1)
        registry.observe("repro_demo_seconds", 0.1)
        with pytest.raises(ValueError, match="histogram"):
            registry.value("repro_demo_seconds")


# -- canonical names -----------------------------------------------------


class TestCanonicalNames:
    """The stat-dict spellings are load-bearing (committed manifests,
    the ``/stats`` wire schema) — every producer must emit exactly the
    pinned keys."""

    def test_executor_stats_keys(self):
        run_keys = (
            "groups", "tasks", "row_hits", "cache_hits", "cache_misses",
            "cache_evictions",
        )
        executor = SweepExecutor(workers=1)
        assert tuple(executor.stats) == run_keys + ("pool_spawns",)
        executor.run(grid_points("adapter", ("msc01440",), ("MLPnc",), max_nnz=TINY))
        assert tuple(executor.last_stats) == run_keys

    def test_job_manager_stats_keys(self):
        manager = JobManager(executor=SweepExecutor(workers=1))
        assert tuple(manager.stats) == (
            "requests",
            "computed",
            "response_hits",
            "store_hits",
            "coalesced",
            "response_evictions",
            "errors",
        )

    def test_corpus_counts_keys(self):
        runner = CorpusRunner(
            Corpus("tiny", synthetic_entries(("msc01440",))),
            variants=("MLPnc",),
            max_nnz=4_000,
        )
        assert tuple(runner.counts) == (
            "corpus_groups",
            "corpus_computed",
            "corpus_skipped",
            "corpus_failed",
        )

    def test_cache_delta_keys(self):
        assert tuple(AnalysisCache().counters()) == ("hits", "misses", "evictions")


# -- span tracing --------------------------------------------------------


class TestTracing:
    def test_disabled_span_is_the_shared_noop(self):
        assert obs.span("anything") is obs.NULL_SPAN
        with obs.span("anything", attr=1) as span:
            span.set(more=2)  # no-op, no error
        assert obs.current_trace_id() is None

    def test_ndjson_nesting_and_error_status(self, tmp_path):
        path = tmp_path / "trace.ndjson"
        trace.configure(path)
        with obs.span("outer", layer="test") as outer:
            with obs.span("inner") as inner:
                assert inner.trace_id == outer.trace_id
                assert obs.current_trace_id() == outer.trace_id
            with pytest.raises(RuntimeError):
                with obs.span("broken"):
                    raise RuntimeError("boom")
        trace.shutdown()
        records = [json.loads(line) for line in path.read_text().splitlines()]
        by_name = {record["name"]: record for record in records}
        assert set(by_name) == {"outer", "inner", "broken"}
        assert by_name["outer"]["parent"] is None
        assert by_name["inner"]["parent"] == by_name["outer"]["span"]
        assert by_name["broken"]["status"] == "error"
        assert by_name["broken"]["attrs"]["error"] == "RuntimeError"
        assert by_name["outer"]["attrs"] == {"layer": "test"}
        assert all(record["trace"] == by_name["outer"]["trace"] for record in records)
        # spans close inner-first, and duration nests inside the parent
        assert by_name["inner"]["dur_s"] <= by_name["outer"]["dur_s"]

    def test_event_is_stamped_with_the_current_trace(self):
        sink = obs.CollectingSink()
        trace.configure(sink)
        with obs.span("root") as root:
            obs.trace.event({"event": "profile", "bins": {}})
        assert sink.records[0] == {
            "event": "profile",
            "bins": {},
            "trace": root.trace_id,
        }

    def test_adopt_spans_reparents_worker_roots(self):
        sink = obs.CollectingSink()
        trace.configure(sink)
        shipped = [
            {"event": "span", "name": "w.root", "trace": "t0",
             "span": "s1", "parent": None},
            {"event": "span", "name": "w.child", "trace": "t0",
             "span": "s2", "parent": "s1"},
        ]
        with obs.span("request") as request:
            obs.adopt_spans(shipped)
        by_name = {record["name"]: record for record in sink.records}
        assert by_name["w.root"]["parent"] == request.span_id
        assert by_name["w.root"]["trace"] == request.trace_id
        # intra-batch parentage is preserved, only the trace id moves
        assert by_name["w.child"]["parent"] == "s1"
        assert by_name["w.child"]["trace"] == request.trace_id


class TestWorkerPropagation:
    def test_pooled_sharded_run_yields_one_trace_tree(self):
        sink = obs.CollectingSink()
        trace.configure(sink)
        # cycle model: the shard simulations profile in the workers and
        # the bins must ship back with the spans
        points = grid_points(
            "adapter", ("msc01440",), ("MLPnc", "MLP64"), max_nnz=4_000,
            model="cycle",
        )
        with profiler.profiled() as cycles:
            with SweepExecutor(workers=2, shards="auto") as executor:
                with obs.span("request") as request:
                    rows = executor.run(points)
        assert len(rows) == 2
        records = sink.drain()
        runs = [r for r in records if r["name"] == "engine.run"]
        shards = [r for r in records if r["name"] == "engine.shard"]
        assert len(runs) == 1
        assert len(shards) >= 2  # sharded: several worker tasks
        # one connected tree: every span on the request's trace, worker
        # shard spans re-parented under the run span
        assert {r["trace"] for r in records} == {request.trace_id}
        assert runs[0]["parent"] == request.span_id
        assert all(shard["parent"] == runs[0]["span"] for shard in shards)
        assert all(shard["status"] == "ok" for shard in shards)
        # worker profiler bins came back with the shard results
        assert cycles.total() > 0

    def test_serial_run_traces_in_process(self):
        sink = obs.CollectingSink()
        trace.configure(sink)
        points = grid_points("adapter", ("msc01440",), ("MLPnc",), max_nnz=TINY)
        SweepExecutor(workers=1).run(points)
        names_seen = [record["name"] for record in sink.drain()]
        assert names_seen.count("engine.run") == 1
        assert names_seen.count("engine.shard") == 1


# -- cycle attribution ---------------------------------------------------


class _Worker(Component):
    """Always-due component: finishes after ``budget`` ticks."""

    def __init__(self, budget: int):
        super().__init__("worker")
        self.left = budget

    def tick(self):
        self.left -= 1

    def next_event(self):
        return self.cycle if self.left else None

    @property
    def busy(self):
        return self.left > 0


class _Sleeper(Component):
    """Wakes every ``period`` cycles; counts replayed quiet cycles."""

    def __init__(self, period: int):
        super().__init__("sleeper")
        self.period = period
        self.replayed = 0

    def tick(self):
        pass

    def next_event(self):
        return self.cycle + self.period - 1

    def advance(self, cycles):
        self.replayed += cycles

    @property
    def busy(self):
        return False


PROFILE_VARIANTS = {
    "MLPnc": nocoalescer_config(),
    "MLP64": mlp_config(64),
    "SEQ256": seq_config(256),
}


def _profile_streams(n: int) -> dict[str, np.ndarray]:
    return {
        "banded": banded_stream(n, jitter=20, span=4),
        "random": random_stream(n, n * 4, seed=3),
    }


class TestCycleProfiler:
    def test_bins_api(self):
        bins = obs.CycleProfiler()
        bins.add("a", "tick", 3)
        bins.add("a", "bulk", 2)
        bins.add("b", "advance", 5)
        bins.add("b", "tick", 0)  # ignored
        bins.merge({"a": {"tick": 1}})
        assert bins.component_totals() == {"a": 6, "b": 5}
        assert bins.total() == 11
        assert bins.as_rows() == [("a", 4, 0, 2, 6), ("b", 0, 5, 0, 5)]
        drained = bins.drain()
        assert bins.total() == 0 and drained["b"]["advance"] == 5

    @pytest.mark.parametrize("engine", ["step", "batched"])
    def test_sleeper_cycles_are_attributed(self, engine):
        worker, sleeper = _Worker(100), _Sleeper(7)
        with profiler.profiled() as cycles:
            sim = Simulator([worker, sleeper], engine=engine)
            elapsed = sim.run_until(lambda: worker.left == 0, max_cycles=1000)
        assert elapsed == 100
        totals = cycles.component_totals()
        assert totals == {"worker": 100, "sleeper": 100}
        if engine == "step":
            assert cycles.bins["sleeper"] == {"tick": 100, "advance": 0, "bulk": 0}
        else:
            # the batched engine replayed the quiet spans it skipped,
            # and the component's own accounting agrees with the bins
            assert cycles.bins["sleeper"]["advance"] == sleeper.replayed > 0

    @pytest.mark.parametrize("variant", sorted(PROFILE_VARIANTS))
    @pytest.mark.parametrize("stream", sorted(_profile_streams(8)))
    @pytest.mark.parametrize("engine", ["step", "batched"])
    def test_bins_sum_to_elapsed_cycles(self, variant, stream, engine):
        """The exactness contract on the differential grid: for every
        component, tick + advance + bulk equals the cycles the run
        elapsed — the engines may split the work differently (that is
        the attribution), but never lose or invent a cycle."""
        idx = _profile_streams(768)[stream]
        with profiler.profiled() as cycles:
            metrics = run_indirect_stream(
                idx, PROFILE_VARIANTS[variant], engine=engine
            )
        totals = cycles.component_totals()
        assert totals  # the grid actually profiled something
        assert set(totals.values()) == {metrics.cycles}
        if engine == "step":
            for actions in cycles.bins.values():
                assert actions["advance"] == 0 and actions["bulk"] == 0

    def test_both_engines_profile_identical_components(self):
        idx = _profile_streams(768)["random"]
        per_engine = {}
        for engine in ("step", "batched"):
            with profiler.profiled() as cycles:
                run_indirect_stream(idx, mlp_config(64), engine=engine)
            per_engine[engine] = cycles.component_totals()
        assert per_engine["step"] == per_engine["batched"]


# -- serve surface -------------------------------------------------------


class TestServeSurface:
    @pytest.fixture()
    def server(self):
        manager = JobManager(executor=SweepExecutor(workers=1))
        server = ReproServer(("127.0.0.1", 0), manager)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        yield server
        server.shutdown()
        server.server_close()
        manager.close()

    def _url(self, server, path: str) -> str:
        return f"http://127.0.0.1:{server.server_address[1]}{path}"

    def _post(self, server, path: str, payload: dict) -> list[dict]:
        request = urllib.request.Request(
            self._url(server, path),
            data=json.dumps(payload).encode(),
            headers={"Content-Type": "application/json"},
        )
        with urllib.request.urlopen(request) as response:
            return [json.loads(line) for line in response.read().decode().splitlines()]

    def test_stats_and_metrics_round_trip(self, server):
        self._post(server, "/sweep", SWEEP_REQ)
        self._post(server, "/sweep", SWEEP_REQ)

        with urllib.request.urlopen(self._url(server, "/stats")) as response:
            stats = json.loads(response.read().decode())
        assert {"jobs", "engine", "workers", "trace", "metrics"} <= set(stats)
        assert stats["trace"] is None  # no tracer configured
        metrics = stats["metrics"]
        assert metrics["repro_serve_requests_total"]["series"][0]["value"] == 2
        assert metrics["repro_serve_requests_total"]["type"] == "counter"

        with urllib.request.urlopen(self._url(server, "/metrics")) as response:
            assert response.headers["Content-Type"].startswith(
                "text/plain; version=0.0.4"
            )
            text = response.read().decode()
        lines = text.splitlines()
        # at least one counter from each layer, plus latency + gauges
        assert "repro_serve_requests_total 2" in lines
        assert "repro_serve_computed_total 1" in lines
        assert "repro_serve_response_hits_total 1" in lines
        assert "repro_engine_groups_total 1" in lines
        assert "repro_engine_tasks_total 1" in lines
        assert "# TYPE repro_serve_request_seconds histogram" in lines
        assert 'repro_serve_request_seconds_count{source="computed"} 1' in lines
        assert 'repro_serve_request_seconds_count{source="cache"} 1' in lines
        assert "# TYPE repro_engine_workers gauge" in lines
        assert "repro_engine_workers 1" in lines
        assert "repro_serve_response_cache_entries 1" in lines

        client = ServeClient(self._url(server, ""))
        assert client.metrics() == text

    def test_metrics_expose_every_stat_counter(self, server):
        """One counter truth: every ``/stats`` counter of the job layers
        and the engine, corpus tallies included, is a ``/metrics``
        series with the same value, zeros included."""
        self._post(server, "/sweep", SWEEP_REQ)
        self._post(server, "/sweep", SWEEP_REQ)
        server.manager.executor.add_stats(corpus_groups=1)

        with urllib.request.urlopen(self._url(server, "/stats")) as response:
            stats = json.loads(response.read().decode())
        with urllib.request.urlopen(self._url(server, "/metrics")) as response:
            lines = response.read().decode().splitlines()
        expected = [f"repro_serve_{k}_total {v}" for k, v in stats["jobs"].items()]
        for key, value in stats["engine"].items():
            layer = "" if key.startswith("corpus_") else "engine_"
            expected.append(f"repro_{layer}{key}_total {value}")
        assert "repro_serve_store_hits_total 0" in expected
        assert "repro_corpus_groups_total 1" in expected
        assert [line for line in expected if line not in lines] == []

    def test_request_events_echo_the_trace_id(self):
        sink = obs.CollectingSink()
        trace.configure(sink)
        manager = JobManager(executor=SweepExecutor(workers=1))
        try:
            events = list(manager.stream(SWEEP_REQ))
        finally:
            manager.close()
        accepted, done = events[0], events[-1]
        assert accepted["event"] == "accepted" and done["event"] == "done"
        request_spans = [r for r in sink.records if r["name"] == "serve.request"]
        assert len(request_spans) == 1
        assert accepted["trace"] == done["trace"] == request_spans[0]["trace"]
        # the engine's spans joined the same trace (the serve compute
        # path streams groups, so the shard spans carry the engine side)
        assert any(
            r["name"] == "engine.shard" and r["trace"] == done["trace"]
            for r in sink.records
        )

    def test_request_latency_is_recorded_even_on_errors(self):
        manager = JobManager(executor=SweepExecutor(workers=1))
        try:
            with pytest.raises(ServeError):
                list(manager.stream({"cmd": "frobnicate"}))
        finally:
            manager.close()
        snapshot = obs.get_registry().snapshot()
        (series,) = snapshot["repro_serve_request_seconds"]["series"]
        assert series["labels"] == {"source": "error"}
        assert series["count"] == 1
        assert manager.stats["errors"] == 1


# -- warn-level logging --------------------------------------------------


class TestLogging:
    def test_logging_setup_is_idempotent(self):
        root = obs.logging_setup(0)
        again = obs.logging_setup(2)
        assert root is again
        assert root.level == logging.DEBUG
        assert sum(isinstance(h, logging.StreamHandler) for h in root.handlers) == 1
        obs.logging_setup(0)
        assert root.level == logging.WARNING

    def test_warning_follows_a_swapped_stderr(self, monkeypatch):
        """The handler writes to the ``sys.stderr`` of the moment, so a
        stream closed after set-up (a finished capture) is never
        written to."""
        first = io.StringIO()
        monkeypatch.setattr(sys, "stderr", first)
        obs.logging_setup(0)
        first.close()
        second = io.StringIO()
        monkeypatch.setattr(sys, "stderr", second)
        logging.getLogger("repro.engine.executor").warning("pool respawned")
        assert "pool respawned" in second.getvalue()
        assert "Logging error" not in second.getvalue()

    def test_leader_failure_is_logged(self, caplog, monkeypatch):
        manager = JobManager(executor=SweepExecutor(workers=1))
        monkeypatch.setattr(
            manager,
            "_compute_chunks",
            lambda request: (_ for _ in ()).throw(ServeError("rigged")),
        )
        try:
            with caplog.at_level(logging.WARNING, logger="repro"):
                with pytest.raises(ServeError, match="rigged"):
                    list(manager.stream(SWEEP_REQ))
        finally:
            manager.close()
        assert any(
            "single-flight leader failed" in record.message
            for record in caplog.records
        )

    def test_corrupt_journal_is_logged(self, caplog, tmp_path):
        runner = CorpusRunner(
            Corpus("tiny", synthetic_entries(("msc01440",))),
            store_dir=tmp_path / "store",
            cache=MatrixCache(tmp_path / "cache"),
            variants=("MLPnc",),
            max_nnz=4_000,
        )
        path = runner._journal_path("feedbeef")
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("{not json")
        with caplog.at_level(logging.WARNING, logger="repro"):
            assert runner._replay("feedbeef", ["key"]) is None
            path.write_text(json.dumps({"key": ["other"], "rows": []}))
            assert runner._replay("feedbeef", ["key"]) is None
        messages = [record.message for record in caplog.records]
        assert any("unreadable" in message for message in messages)
        assert any("does not match its job key" in message for message in messages)


# -- the CLI surface and trace_summary -----------------------------------


class TestTraceFiles:
    def test_cli_sweep_trace_flag(self, tmp_path, capsys):
        path = tmp_path / "sweep.ndjson"
        argv = [
            "sweep", "msc01440", "MLPnc",
            "--model", "cycle", "--nnz", "2000", "--trace", str(path),
        ]
        assert main(argv) == 0
        spans, profiles = trace_summary.load_trace(path)
        by_name = {record["name"]: record for record in spans}
        assert by_name["cli.sweep"]["parent"] is None
        assert by_name["engine.run"]["parent"] == by_name["cli.sweep"]["span"]
        # the cycle model ran under the profiler: bins landed in the trace
        assert len(profiles) == 1 and profiles[0]["bins"]
        assert trace_summary.render(path, None) == 0
        assert "cycle attribution" in capsys.readouterr().out

    def test_cli_trace_env_fallback(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "stream.ndjson"
        monkeypatch.setenv("REPRO_TRACE", str(path))
        assert main(["stream", "msc01440", "MLP64", "--nnz", "2000"]) == 0
        spans, _profiles = trace_summary.load_trace(path)
        assert any(record["name"] == "cli.stream" for record in spans)

    def test_corpus_trace_meets_the_coverage_gate(
        self, tmp_path, capsys, monkeypatch
    ):
        """The acceptance criterion: a traced corpus run attributes at
        least 95% of its wall-time to named child spans."""
        # cold-start the per-process analysis cache: earlier tests in a
        # full-suite run may have warmed the same (matrix, nnz) entries,
        # and a pure-hit run never opens a cache.analysis span
        from repro.engine import executor as executor_mod

        monkeypatch.setattr(executor_mod, "_PROCESS_CACHE", AnalysisCache())
        path = tmp_path / "corpus.ndjson"
        runner = CorpusRunner(
            Corpus("tiny", synthetic_entries(("msc01440", "pwtk"))),
            store_dir=tmp_path / "store",
            cache=MatrixCache(tmp_path / "cache"),
            variants=("MLPnc", "MLP64"),
            max_nnz=4_000,
        )
        with obs.tracing(path, root="cli.corpus"):
            runner.run()
        spans, _profiles = trace_summary.load_trace(path)
        share = trace_summary.coverage(spans)
        assert share is not None and share >= 0.95
        names_seen = {record["name"] for record in spans}
        assert {
            "cli.corpus", "corpus.run", "corpus.entry",
            "corpus.finalize", "cache.analysis",
        } <= names_seen
        entries = [r for r in spans if r["name"] == "corpus.entry"]
        assert {r["attrs"]["status"] for r in entries} == {"computed"}
        # the renderer agrees and the gate passes
        assert trace_summary.render(path, min_coverage=95.0) == 0
        out = capsys.readouterr().out
        assert "per-phase wall-time" in out
        assert "OK: coverage" in out

    def test_summary_gate_fails_below_threshold(self, tmp_path, capsys):
        path = tmp_path / "thin.ndjson"
        records = [
            {"event": "span", "name": "root", "trace": "t", "span": "a",
             "parent": None, "ts": 0.0, "dur_s": 10.0, "status": "ok", "attrs": {}},
            {"event": "span", "name": "child", "trace": "t", "span": "b",
             "parent": "a", "ts": 1.0, "dur_s": 2.0, "status": "ok", "attrs": {}},
            {"event": "span", "name": "child", "trace": "t", "span": "c",
             "parent": "a", "ts": 2.0, "dur_s": 3.0, "status": "ok", "attrs": {}},
        ]
        path.write_text("".join(json.dumps(r) + "\n" for r in records))
        spans, _profiles = trace_summary.load_trace(path)
        # overlapping children count once: union of [1,3) and [2,5) is 4s
        assert trace_summary.coverage(spans) == pytest.approx(0.4)
        assert trace_summary.render(path, min_coverage=95.0) == 1
        assert "FAIL: coverage" in capsys.readouterr().err

    def test_tracing_none_path_is_a_noop(self):
        with obs.tracing(None) as root:
            assert root is None
        assert not trace.active()
        assert profiler.active() is None
