"""SweepExecutor: schema, dedup, determinism, experiment smoke runs.

Everything here runs at tiny scale (12k nonzeros, small suite
matrices) — the goal is pinning the engine's contract, not paper
numbers:

* result tables have a fixed schema and come back in input order;
* per-matrix analysis is deduplicated behind the keyed cache;
* each distinct point is evaluated once per executor (the row memo);
* a process pool returns bit-identical tables to serial execution;
* every refactored experiment runs end-to-end through an explicit
  executor.
"""

import multiprocessing
import os
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.engine import (
    ADAPTER_KIND,
    AnalysisCache,
    SweepExecutor,
    SweepPoint,
    get_backend,
    grid_points,
    registered_kinds,
    workers_from_env,
)
from repro.engine import backends as backends_mod
from repro.engine import executor as executor_mod
from repro.errors import ExperimentError
from repro.experiments import run_fig3, run_fig4, run_fig5a, run_fig5b, run_fig6b

from helpers import GRID_INPUTS

TINY = 12_000
ADAPTER_COLUMNS = {
    "kind", "matrix", "format", "variant", "model", "max_nnz",
    "count", "cycles", "idx_txns", "elem_txns",
    "indir_gbps", "elem_gbps", "index_gbps", "loss_gbps", "coal_rate",
}
SYSTEM_COLUMNS = {
    "kind", "matrix", "system", "model", "max_nnz",
    "runtime_cycles", "indirect_fraction", "gflops",
    "traffic_vs_ideal", "bw_utilization",
}


class TestGrids:
    @pytest.mark.parametrize("kind", registered_kinds())
    def test_grid_order_and_shape(self, kind):
        matrices, variants, max_nnz = GRID_INPUTS[kind]
        matrices += ("msc01440",)
        formats = ("sell", "csr") if get_backend(kind).index_stream else None
        points = grid_points(kind, matrices, variants, formats, max_nnz)
        # format-major, then matrix, then variant — figure order; kinds
        # without an index stream carry no format.
        assert [(p.fmt, p.matrix, p.variant) for p in points] == [
            (fmt, matrix, variant)
            for fmt in formats or ("",)
            for matrix in matrices
            for variant in variants
        ]
        assert {(p.kind, p.max_nnz, p.model) for p in points} == {
            (kind, max_nnz, "fast")
        }

    @pytest.mark.parametrize("kind", ["system", "strided"])
    def test_format_axis_rejected_without_index_stream(self, kind):
        matrices, variants, max_nnz = GRID_INPUTS[kind]
        with pytest.raises(ExperimentError, match="no traversal-format axis"):
            grid_points(kind, matrices, variants, ("csr",), max_nnz)

    def test_group_key_shares_matrix_work(self):
        a = SweepPoint("pwtk", "MLPnc", "sell", TINY)
        b = SweepPoint("pwtk", "MLP256", "sell", TINY)
        c = SweepPoint("pwtk", "MLPnc", "csr", TINY)
        assert a.group_key == b.group_key != c.group_key


class TestExecutor:
    def test_adapter_rows_schema_and_order(self):
        points = grid_points(
            "adapter", ("pwtk", "msc01440"), ("MLPnc", "MLP64"), max_nnz=TINY
        )
        rows = SweepExecutor(workers=1).run(points)
        assert len(rows) == len(points)
        for point, row in zip(points, rows):
            assert set(row) == ADAPTER_COLUMNS
            assert row["kind"] == ADAPTER_KIND
            assert (row["matrix"], row["variant"]) == (point.matrix, point.variant)
            assert row["cycles"] > 0 and row["elem_txns"] > 0

    def test_system_rows_schema(self):
        rows = SweepExecutor(workers=1).run(
            grid_points(
                "system", ("pwtk",), ("base", "pack0", "pack256"), max_nnz=TINY
            )
        )
        assert [set(r) for r in rows] == [SYSTEM_COLUMNS] * 3
        assert [r["system"] for r in rows] == ["base", "pack0", "pack256"]

    def test_duplicate_points_resolve_to_same_row(self):
        point = SweepPoint("pwtk", "MLP64", "sell", TINY)
        rows = SweepExecutor(workers=1).run([point, point])
        assert rows[0] == rows[1]
        assert rows[0] is not rows[1]  # caller-safe copies

    def test_pool_matches_serial_bit_exactly(self):
        points = grid_points(
            "adapter", ("pwtk", "msc01440", "G3_circuit"),
            ("MLPnc", "MLP64", "MLP256"), max_nnz=TINY,
        ) + grid_points("system", ("pwtk",), ("base", "pack256"), max_nnz=TINY)
        serial = SweepExecutor(workers=1).run(points)
        pooled = SweepExecutor(workers=2).run(points)
        assert serial == pooled

    def test_rejects_bad_worker_count(self):
        with pytest.raises(ExperimentError):
            SweepExecutor(workers=0)

    def test_workers_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        assert workers_from_env() == 1
        monkeypatch.setenv("REPRO_WORKERS", "3")
        assert workers_from_env() == 3
        monkeypatch.setenv("REPRO_WORKERS", "zero")
        with pytest.raises(ExperimentError):
            workers_from_env()
        monkeypatch.setenv("REPRO_WORKERS", "0")
        with pytest.raises(ExperimentError):
            workers_from_env()


class TestAnalysisCache:
    def test_stream_and_analysis_are_memoised(self):
        cache = AnalysisCache()
        s1 = cache.stream("pwtk", "sell", TINY)
        s2 = cache.stream("pwtk", "sell", TINY)
        assert s1 is s2
        a1 = cache.analysis("pwtk", "sell", TINY, 8)
        assert a1 is cache.analysis("pwtk", "sell", TINY, 8)
        assert a1 is not cache.analysis("pwtk", "sell", TINY, 16)
        assert a1.blocks.size == s1.size


class TestExperimentsThroughEngine:
    """Each refactored experiment, end-to-end, serial == pooled."""

    MATRICES = ("pwtk", "msc01440")

    @pytest.mark.parametrize(
        "runner,kwargs",
        [
            (run_fig3, {"matrices": MATRICES, "variants": ("MLPnc", "MLP256")}),
            (run_fig4, {"matrices": MATRICES}),
            (run_fig5a, {"matrices": MATRICES}),
            (run_fig5b, {"matrices": MATRICES}),
            (run_fig6b, {"matrices": MATRICES}),
        ],
        ids=["fig3", "fig4", "fig5a", "fig5b", "fig6b"],
    )
    def test_runs_and_is_deterministic_across_executors(self, runner, kwargs):
        serial = runner(max_nnz=TINY, executor=SweepExecutor(workers=1), **kwargs)
        pooled = runner(max_nnz=TINY, executor=SweepExecutor(workers=2), **kwargs)
        assert serial["rows"] == pooled["rows"]
        assert serial["summary"] == pooled["summary"]
        assert serial["rows"] and serial["summary"]


class TestCacheBound:
    def test_fifo_eviction_keeps_cache_bounded(self):
        cache = AnalysisCache(maxsize=2)
        first = cache.stream("pwtk", "sell", TINY)
        cache.stream("msc01440", "sell", TINY)
        cache.stream("G3_circuit", "sell", TINY)
        assert len(cache._streams) == 2
        # oldest entry was evicted; re-request rebuilds identically
        rebuilt = cache.stream("pwtk", "sell", TINY)
        assert rebuilt is not first
        assert (rebuilt == first).all()

    def test_evictions_are_counted(self):
        cache = AnalysisCache(maxsize=2)
        for matrix in ("pwtk", "msc01440", "G3_circuit"):
            cache.stream(matrix, "sell", TINY)
        counters = cache.counters()
        assert counters["evictions"] == 1
        assert set(counters) == {"hits", "misses", "evictions"}


class _DyingBackend(backends_mod.AdapterBackend):
    """The adapter backend, except that the worker process running a
    task exits without a word: on the first task of all when ``flag``
    names a file not yet created (the task creates it), on every task
    when ``flag`` is None."""

    def __init__(self, flag) -> None:
        self.flag = flag

    def run_group(self, group_key, variants, cache):
        if self.flag is None:
            os._exit(1)
        try:
            os.close(os.open(self.flag, os.O_CREAT | os.O_EXCL))
        except FileExistsError:
            return super().run_group(group_key, variants, cache)
        os._exit(1)


_FORKED_WORKERS = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="workers see the test's backend only when forked",
)


class TestPersistentPool:
    """The executor is a reusable resource: one pool across runs."""

    def points(self, variants=("MLPnc", "MLP64")):
        # Two matrix groups on two workers: one task each, so every
        # run that computes fans out over the pool.
        return grid_points(
            "adapter", ("msc01440", "pwtk"), variants, max_nnz=TINY
        )

    def test_pool_survives_across_runs(self):
        # The second run's points are new to the executor, so its tasks
        # (not its row memo) answer them, on the same pool.
        unseen = self.points(("MLP128", "MLP256"))
        executor = SweepExecutor(workers=2)
        try:
            executor.run(self.points())
            pool = executor._pool
            assert pool is not None
            second = executor.run(unseen)
            assert executor.last_stats["tasks"] == 2
            assert executor._pool is pool, "pool was respawned between runs"
            assert executor.stats["pool_spawns"] == 1
            assert second == SweepExecutor(workers=1).run(unseen)
        finally:
            executor.close()
        assert executor._pool is None

    def test_close_is_idempotent_and_respawns_on_demand(self):
        unseen = self.points(("MLP128", "MLP256"))
        executor = SweepExecutor(workers=2)
        executor.run(self.points())
        executor.close()
        executor.close()
        # A closed executor is still usable; the next run that has
        # tasks to run respawns the pool.
        assert executor.run(unseen) == SweepExecutor(workers=1).run(unseen)
        assert executor.stats["pool_spawns"] == 2
        executor.close()

    def test_context_manager_releases_the_pool(self):
        with SweepExecutor(workers=2) as executor:
            executor.run(self.points())
            assert executor._pool is not None
        assert executor._pool is None

    @_FORKED_WORKERS
    def test_pool_broken_once_is_respawned_once(self, monkeypatch, tmp_path):
        expected = SweepExecutor(workers=1).run(self.points())
        monkeypatch.setitem(
            backends_mod._REGISTRY, ADAPTER_KIND, _DyingBackend(tmp_path / "died")
        )
        with SweepExecutor(workers=2) as executor:
            assert executor.run(self.points()) == expected
            assert executor.stats["pool_spawns"] == 2
        assert (tmp_path / "died").exists()

    @_FORKED_WORKERS
    def test_pool_broken_twice_raises(self, monkeypatch):
        monkeypatch.setitem(backends_mod._REGISTRY, ADAPTER_KIND, _DyingBackend(None))
        with SweepExecutor(workers=2) as executor:
            with pytest.raises(BrokenProcessPool):
                executor.run(self.points())

    def test_serial_executor_never_spawns(self):
        executor = SweepExecutor(workers=1)
        executor.run(self.points())
        assert executor._pool is None
        assert executor.stats["pool_spawns"] == 0

    def test_last_stats_include_eviction_counter(self):
        executor = SweepExecutor(workers=1)
        executor.run(self.points())
        stats = executor.last_stats
        assert {"cache_hits", "cache_misses", "cache_evictions"} <= set(stats)

    def test_add_stats_folds_external_counters(self):
        executor = SweepExecutor(workers=1)
        executor.run(self.points())
        executor.add_stats(corpus_groups=2, corpus_computed=1, corpus_skipped=1)
        assert executor.last_stats["corpus_groups"] == 2
        assert executor.stats["corpus_computed"] == 1
        # accumulates across calls, alongside the engine's own counters
        executor.add_stats(corpus_groups=3)
        assert executor.last_stats["corpus_groups"] == 5
        assert executor.stats["corpus_groups"] == 5
        assert executor.stats["groups"] >= 1  # engine counters untouched

    def test_corpus_run_reports_progress_through_executor_stats(self, tmp_path):
        from repro.corpus import CorpusRunner
        from repro.sparse.corpus import Corpus, MatrixCache, synthetic_entries

        executor = SweepExecutor(workers=1)
        runner = CorpusRunner(
            Corpus("counters", synthetic_entries(("msc01440", "pwtk"))),
            executor=executor,
            store_dir=tmp_path,
            cache=MatrixCache(tmp_path / "cache"),
            variants=("MLPnc",),
            max_nnz=TINY,
        )
        runner.run()
        assert executor.last_stats["corpus_groups"] == 2
        assert executor.last_stats["corpus_computed"] == 2
        assert executor.last_stats["corpus_skipped"] == 0
        assert executor.last_stats["corpus_failed"] == 0
        # a resumed run reports skips through the same counters
        resumed = SweepExecutor(workers=1)
        CorpusRunner(
            Corpus("counters", synthetic_entries(("msc01440", "pwtk"))),
            executor=resumed,
            store_dir=tmp_path,
            cache=MatrixCache(tmp_path / "cache"),
            variants=("MLPnc",),
            max_nnz=TINY,
        ).run()
        assert resumed.stats["corpus_skipped"] == 2
        assert resumed.stats["corpus_computed"] == 0

    def test_run_stream_covers_all_groups(self):
        executor = SweepExecutor(workers=1)
        points = grid_points("adapter", ("msc01440", "pwtk"), ("MLP64",), max_nnz=TINY)
        streamed = list(executor.run_stream(points))
        assert {key[1] for key, _, _ in streamed} == {"msc01440", "pwtk"}
        rows = [row for _, _, group_rows in streamed for row in group_rows]
        assert sorted(r["matrix"] for r in rows) == ["msc01440", "pwtk"]
        # run() reassembles the same rows in input order.
        assert executor.run(points) == sorted(
            rows, key=lambda r: [p.matrix for p in points].index(r["matrix"])
        )

    def test_closed_stream_counts_the_work_it_did(self, monkeypatch):
        """A consumer that stops early (a serve client's disconnect
        closes the generator) still has the tasks that completed and
        the groups that merged counted."""
        monkeypatch.setattr(executor_mod, "_PROCESS_CACHE", AnalysisCache())
        points = grid_points(
            "adapter", ("msc01440", "pwtk"), ("MLPnc", "MLP64"), max_nnz=4_000
        )
        executor = SweepExecutor(workers=1)
        stream = executor.run_stream(points)
        next(stream)
        stream.close()
        first = dict(executor.last_stats)
        assert (first["groups"], first["tasks"]) == (1, 1)
        assert first["cache_misses"] > 0  # the cold cache was consulted
        assert {key: executor.stats[key] for key in first} == first
        # a full run of points the executor has not seen still counts
        # every group and task
        executor.run(
            grid_points(
                "adapter", ("msc01440", "pwtk"), ("MLP128", "MLP256"), max_nnz=4_000
            )
        )
        assert (executor.last_stats["groups"], executor.last_stats["tasks"]) == (2, 2)
        assert (executor.stats["groups"], executor.stats["tasks"]) == (3, 3)


class TestRowMemo:
    """Each distinct point is evaluated once per executor."""

    MATRICES = ("msc01440", "pwtk")

    def grid(self, variants):
        return grid_points("adapter", self.MATRICES, variants, max_nnz=TINY)

    def test_rerun_is_answered_from_the_memo(self):
        points = self.grid(("MLPnc", "MLP64"))
        executor = SweepExecutor(workers=1)
        first = executor.run(points)
        assert executor.last_stats["row_hits"] == 0
        assert executor.run(points) == first
        stats = executor.last_stats
        assert (stats["groups"], stats["tasks"]) == (0, 0)
        assert stats["row_hits"] == len(points)
        assert executor.stats["row_hits"] == len(points)

    @pytest.mark.parametrize(
        "workers,model,matrices",
        [(1, "fast", MATRICES), (2, "fast", MATRICES), (2, "cycle", ("msc01440",))],
        ids=["serial", "pooled", "sharded"],
    )
    def test_overlapping_grid_computes_only_new_variants(
        self, workers, model, matrices
    ):
        def grid(variants):
            return grid_points(
                "adapter", matrices, variants, max_nnz=4_000, model=model
            )

        overlap = grid(("MLPnc", "MLP8", "MLP16", "MLP64", "MLP128", "MLP256"))
        with SweepExecutor(workers=workers) as executor:
            executor.run(grid(("MLPnc", "MLP64")))
            rows = executor.run(overlap)
            stats = dict(executor.last_stats)
        # Per matrix only the four new variants reach the backend: one
        # task per group, or, for the one cycle-model group on two
        # workers, two chunks of two.
        assert stats["row_hits"] == 2 * len(matrices)
        assert (stats["groups"], stats["tasks"]) == (len(matrices), 2)
        assert rows == SweepExecutor(workers=1).run(overlap)

    def test_streamed_partial_group_carries_every_variant(self):
        executor = SweepExecutor(workers=1)
        executor.run(self.grid(("MLP64",)))
        streamed = list(executor.run_stream(self.grid(("MLPnc", "MLP64"))))
        assert [variants for _, variants, _ in streamed] == [("MLPnc", "MLP64")] * 2
        for _, variants, rows in streamed:
            assert [row["variant"] for row in rows] == list(variants)

    def test_fully_answered_groups_stream_first(self):
        executor = SweepExecutor(workers=1)
        executor.run(grid_points("adapter", ("pwtk",), ("MLP64",), max_nnz=TINY))
        streamed = list(executor.run_stream(self.grid(("MLP64",))))
        assert [key[1] for key, _, _ in streamed] == ["pwtk", "msc01440"]

    def test_mutating_returned_rows_never_reaches_the_memo(self):
        points = self.grid(("MLPnc", "MLP64"))
        executor = SweepExecutor(workers=1)
        # computed rows, then memo rows, from both entry points
        for mark in (-1, -2):
            for _, _, rows in executor.run_stream(points):
                for row in rows:
                    row["cycles"] = mark
        for row in executor.run(points):
            row["cycles"] = -3
        assert executor.run(points) == SweepExecutor(workers=1).run(points)
        assert executor.last_stats["row_hits"] == len(points)

    def test_bound_evicts_the_oldest_row(self, monkeypatch):
        monkeypatch.setattr(executor_mod, "_ROW_MEMO_ROWS", 2)
        executor = SweepExecutor(workers=1)
        executor.run(grid_points(
            "adapter", ("msc01440",), ("MLPnc", "MLP64", "MLP256"), max_nnz=TINY
        ))
        assert len(executor._rows) == 2
        oldest = grid_points("adapter", ("msc01440",), ("MLPnc",), max_nnz=TINY)
        executor.run(oldest)
        assert (executor.last_stats["tasks"], executor.last_stats["row_hits"]) == (1, 0)
        newest = grid_points("adapter", ("msc01440",), ("MLP256",), max_nnz=TINY)
        executor.run(newest)
        assert (executor.last_stats["tasks"], executor.last_stats["row_hits"]) == (0, 1)

    def test_closed_stream_remembers_only_merged_groups(self):
        points = self.grid(("MLPnc", "MLP64"))
        executor = SweepExecutor(workers=1)
        stream = executor.run_stream(points)
        key, variants, _ = next(stream)
        stream.close()
        assert key[1] == "msc01440"
        executor.run(points)
        stats = executor.last_stats
        assert stats["row_hits"] == len(variants)
        assert (stats["groups"], stats["tasks"]) == (1, 1)
