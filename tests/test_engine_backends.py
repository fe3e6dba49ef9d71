"""Backend registry and sharding: registration contract, exact merges.

The engine's dispatch is a registry of :class:`SweepBackend` objects;
these tests pin its contract:

* unknown kinds fail loudly (``repro.errors`` type, message lists the
  registered kinds) at both point construction and lookup;
* duplicate registration is rejected unless explicitly replaced;
* for **every** registered backend, any shard count produces tables
  byte-identical to the serial run (property-based over shard counts),
  including the adapter backends' window-aligned stream chunking;
* shard/chunk identity is part of the analysis-cache key, so a chunk
  analysis can never be served where the whole-matrix one belongs.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import (
    AnalysisCache,
    ShardTask,
    SweepExecutor,
    SweepPoint,
    get_backend,
    grid_points,
    register_backend,
    registered_kinds,
    resolve_shards,
    shards_from_env,
)
from repro.engine.backends import AdapterBackend
from repro.errors import ExperimentError, ReproError

from helpers import GRID_INPUTS, tiny_grid

TINY = 12_000


class TestRegistry:
    def test_every_registered_backend_has_a_test_grid(self):
        assert set(GRID_INPUTS) == set(registered_kinds())

    def test_unknown_kind_raises_with_registered_names(self):
        with pytest.raises(ExperimentError) as excinfo:
            SweepPoint("pwtk", "MLP64", kind="warp")
        message = str(excinfo.value)
        assert "warp" in message
        for kind in registered_kinds():
            assert kind in message

    def test_unknown_kind_is_a_repro_error(self):
        with pytest.raises(ReproError):
            get_backend("nope")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ExperimentError) as excinfo:
            register_backend(AdapterBackend())
        assert "already registered" in str(excinfo.value)
        # the registry is unchanged and replace=True swaps deliberately
        original = get_backend("adapter")
        replacement = AdapterBackend()
        try:
            assert register_backend(replacement, replace=True) is replacement
            assert get_backend("adapter") is replacement
        finally:
            register_backend(original, replace=True)

    def test_kindless_backend_rejected(self):
        class Anonymous(AdapterBackend):
            kind = ""

        with pytest.raises(ExperimentError):
            register_backend(Anonymous())

    def test_grid_points_dispatches_per_kind(self):
        for kind in GRID_INPUTS:
            points = tiny_grid(kind)
            assert points, kind
            assert all(p.kind == kind for p in points)


class TestShardingMatchesSerial:
    """merge(split(...)) == run_group(...) for every backend."""

    @pytest.mark.parametrize("kind", sorted(GRID_INPUTS))
    @settings(max_examples=6, deadline=None)
    @given(shards=st.integers(min_value=1, max_value=9))
    def test_sharded_equals_serial(self, kind, shards):
        points = tiny_grid(kind)
        serial = SweepExecutor(workers=1, shards=1).run(points)
        sharded = SweepExecutor(workers=1, shards=shards).run(points)
        assert serial == sharded

    def test_single_variant_stream_chunking_is_exact(self):
        # One variant, many shards: the adapter backend must chunk the
        # stream itself (window-aligned) and the merged row must be
        # bit-identical — floats and all — to the serial row.
        for variant in ("MLP256", "MLP8", "SEQ256", "MLPnc"):
            points = grid_points("adapter", ("pwtk",), (variant,), max_nnz=TINY)
            serial = SweepExecutor(workers=1, shards=1).run(points)
            chunked = SweepExecutor(workers=1, shards=5).run(points)
            assert serial == chunked, variant

    def test_pooled_sharded_equals_serial(self):
        points = (
            tiny_grid("adapter") + tiny_grid("system") + tiny_grid("multichannel")
        )
        serial = SweepExecutor(workers=1, shards=1).run(points)
        pooled = SweepExecutor(workers=2, shards=4).run(points)
        assert serial == pooled

    def test_adapter_split_shapes(self):
        backend = get_backend("adapter")
        key = ("adapter", "pwtk", "sell", TINY, "fast")
        # shard budget below the variant count: contiguous variant chunks
        tasks = backend.split(key, ("a", "b", "c"), 2)
        assert [t.variants for t in tasks] == [("a",), ("b", "c")]
        assert all(t.chunk is None for t in tasks)
        # budget beyond the variant count (fast model): stream chunks
        tasks = backend.split(key, ("a", "b"), 4)
        assert [(t.variants, t.chunk) for t in tasks] == [
            (("a",), (0, 2)), (("a",), (1, 2)),
            (("b",), (0, 2)), (("b",), (1, 2)),
        ]
        # the cycle model never stream-chunks (not exactly mergeable)
        cycle_key = ("adapter", "pwtk", "sell", TINY, "cycle")
        tasks = backend.split(cycle_key, ("a",), 4)
        assert [t.chunk for t in tasks] == [None]

    def test_chunked_task_on_chunkless_backend_rejected(self):
        backend = get_backend("system")
        task = ShardTask(("system", "pwtk", "", TINY, "fast"), ("base",), (0, 2))
        with pytest.raises(ExperimentError):
            backend.run_shard(task, AnalysisCache())


class TestShardKnobs:
    def test_shards_from_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_SHARDS", raising=False)
        assert shards_from_env() == 1
        monkeypatch.setenv("REPRO_SHARDS", "4")
        assert shards_from_env() == 4
        monkeypatch.setenv("REPRO_SHARDS", "auto")
        assert shards_from_env() == "auto"
        monkeypatch.setenv("REPRO_SHARDS", "many")
        with pytest.raises(ExperimentError):
            shards_from_env()
        monkeypatch.setenv("REPRO_SHARDS", "0")
        with pytest.raises(ExperimentError):
            shards_from_env()

    def test_resolve_shards(self, monkeypatch):
        monkeypatch.delenv("REPRO_SHARDS", raising=False)
        assert resolve_shards(None, 3) == 1
        assert resolve_shards("auto", 3) == 3
        assert resolve_shards(2, 3) == 2
        monkeypatch.setenv("REPRO_SHARDS", "auto")
        assert resolve_shards(None, 5) == 5
        with pytest.raises(ExperimentError):
            resolve_shards(0, 3)

    def test_executor_counts_tasks_and_cache_traffic(self):
        executor = SweepExecutor(workers=1, shards=4)
        executor.run(grid_points("adapter", ("pwtk",), ("MLP256",), max_nnz=TINY))
        assert executor.last_stats["groups"] == 1
        assert executor.last_stats["tasks"] == 4
        total = executor.last_stats["cache_hits"] + executor.last_stats["cache_misses"]
        assert total > 0
        assert executor.stats["tasks"] == executor.last_stats["tasks"]


class TestChunkedCacheKeys:
    def test_chunk_is_part_of_the_key(self):
        cache = AnalysisCache()
        whole = cache.stream("pwtk", "sell", TINY)
        chunk = cache.stream("pwtk", "sell", TINY, chunk=(0, 512))
        assert chunk.size == 512
        assert chunk is not whole
        assert chunk is cache.stream("pwtk", "sell", TINY, chunk=(0, 512))
        assert (chunk == whole[:512]).all()

    def test_chunk_analysis_never_aliases_whole_analysis(self):
        cache = AnalysisCache()
        whole = cache.analysis("pwtk", "sell", TINY, 8)
        chunk = cache.analysis("pwtk", "sell", TINY, 8, chunk=(256, 1024))
        assert chunk is not whole
        assert chunk.blocks.size == 1024 - 256
        assert (chunk.blocks == whole.blocks[256:1024]).all()

    def test_counters_track_hits_and_misses(self):
        cache = AnalysisCache()
        assert cache.counters() == {"hits": 0, "misses": 0, "evictions": 0}
        cache.stream("pwtk", "sell", TINY)
        misses = cache.counters()["misses"]
        assert misses >= 1
        cache.stream("pwtk", "sell", TINY)
        assert cache.counters() == {"hits": 1, "misses": misses, "evictions": 0}


class TestBackendValidation:
    def test_multichannel_rejects_bad_labels(self):
        backend = get_backend("multichannel")
        with pytest.raises(ExperimentError):
            backend.variant_setup("MLP64")
        with pytest.raises(ExperimentError):
            backend.variant_setup("ch0")

    def test_multichannel_cycle_model_runs(self):
        """model='cycle' wires the adapter to MultiChannelMemory (the
        historic rejection is lifted); the fast per-channel timelines
        must land near the cycle run on the same point."""
        points = [
            SweepPoint("pwtk", "ch2", "sell", 3000, model, "multichannel")
            for model in ("cycle", "fast")
        ]
        cycle_row, fast_row = SweepExecutor(workers=1).run(points)
        assert cycle_row["model"] == "cycle" and cycle_row["channels"] == 2
        assert cycle_row["cycles"] > 0
        assert 0.7 <= cycle_row["cycles"] / fast_row["cycles"] <= 1.6

    def test_strided_rejects_bad_labels(self):
        backend = get_backend("strided")
        with pytest.raises(ExperimentError):
            backend.stride_bytes("x16")

    def test_multichannel_bandwidth_never_degrades(self):
        rows = SweepExecutor(workers=1).run(tiny_grid("multichannel"))
        gbps = [row["indir_gbps"] for row in rows]
        assert gbps == sorted(gbps)
        assert rows[0]["channels"] == 1 and rows[-1]["channels"] == 4
        assert rows[-1]["peak_gbps"] == 4 * rows[0]["peak_gbps"]


def test_multichannel_ch1_matches_single_channel_fast_model():
    """One channel degenerates exactly to the adapter backend's MLP256
    row: both run ``fast_indirect_stream`` on the same stream."""
    executor = SweepExecutor(workers=1)
    (single,) = executor.run(
        grid_points("adapter", ("pwtk",), ("MLP256",), max_nnz=TINY)
    )
    (multi,) = executor.run(
        grid_points("multichannel", ("pwtk",), ("ch1",), max_nnz=TINY)
    )
    for column in ("count", "cycles", "idx_txns", "elem_txns", "indir_gbps"):
        assert single[column] == multi[column], column
