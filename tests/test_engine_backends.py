"""Backend registry and sharding: registration contract, exact merges.

The engine's dispatch is a registry of :class:`SweepBackend` objects;
these tests pin its contract:

* unknown kinds fail loudly (``repro.errors`` type, message lists the
  registered kinds) at both point construction and lookup;
* duplicate registration is rejected unless explicitly replaced;
* for **every** registered backend, any split of a group into shard
  tasks merges back to the serial rows (property-based over the
  number of pieces);
* a shard task is a chunk of a group's variants, never of a stream, so
  a single-variant group is one task however many pieces are asked for;
* the executor plans the split itself: at ``workers > 1`` a
  cycle-model group splits into ``ceil(workers / computed groups)``
  chunks, every other group is one task, and one worker splits
  nothing.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import (
    AnalysisCache,
    SweepExecutor,
    SweepPoint,
    get_backend,
    grid_points,
    register_backend,
    registered_kinds,
)
from repro.engine.backends import AdapterBackend
from repro.errors import ExperimentError, ReproError

from helpers import GRID_INPUTS, tiny_grid

TINY = 12_000
#: cycle-model scale: small enough for a tier-1 simulation
CYCLE_NNZ = 4_000


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
        serial = SweepExecutor(workers=1).run(points)
        (key,) = {point.group_key for point in points}  # one matrix group
        variants = tuple(point.variant for point in points)
        backend = get_backend(kind)
        tasks = backend.split(key, variants, shards)
        cache = AnalysisCache()
        payloads = [backend.run_group(key, task.variants, cache) for task in tasks]
        assert backend.merge(key, variants, tasks, payloads) == serial

    def test_single_variant_group_runs_in_process(self):
        # One variant of a cycle-model group on two workers: the rule
        # asks for two pieces, but the stream never splits, so the
        # group is one task, which runs in-process without spawning
        # the pool, and the row is the serial row.
        for variant in ("MLP256", "MLP8", "SEQ256", "MLPnc"):
            points = grid_points(
                "adapter", ("msc01440",), (variant,), max_nnz=CYCLE_NNZ,
                model="cycle",
            )
            serial = SweepExecutor(workers=1).run(points)
            with SweepExecutor(workers=2) as executor:
                sharded = executor.run(points)
                assert executor.last_stats["tasks"] == 1, variant
                assert executor.stats["pool_spawns"] == 0, variant
            assert serial == sharded, variant

    def test_pooled_sharded_equals_serial(self):
        points = (
            tiny_grid("adapter") + tiny_grid("system") + tiny_grid("multichannel")
        )
        serial = SweepExecutor(workers=1).run(points)
        with SweepExecutor(workers=2) as executor:
            pooled = executor.run(points)
            assert executor.stats["pool_spawns"] == 1
        assert serial == pooled

    def test_adapter_split_shapes(self):
        backend = get_backend("adapter")
        for model in ("fast", "cycle"):
            key = ("adapter", "pwtk", "sell", TINY, model)
            # shard budget below the variant count: contiguous variant chunks
            tasks = backend.split(key, ("a", "b", "c"), 2)
            assert [t.variants for t in tasks] == [("a",), ("b", "c")]
            # budget beyond the variant count: one task per variant
            tasks = backend.split(key, ("a", "b"), 4)
            assert [t.variants for t in tasks] == [("a",), ("b",)], model
            tasks = backend.split(key, ("a",), 4)
            assert [t.variants for t in tasks] == [("a",)], model


class TestSplitRule:
    """The executor derives each group's split from the worker count,
    the group's model and the number of groups the run computes."""

    def cycle_grid(self, matrices=("msc01440",), variants=("MLPnc", "MLP64")):
        return grid_points(
            "adapter", matrices, variants, max_nnz=CYCLE_NNZ, model="cycle"
        )

    def test_one_cycle_group_splits_over_the_pool(self):
        points = self.cycle_grid(variants=("MLPnc", "MLP64", "MLP256"))
        serial = SweepExecutor(workers=1).run(points)
        with SweepExecutor(workers=2) as executor:
            pooled = executor.run(points)
            assert executor.last_stats["groups"] == 1
            assert executor.last_stats["tasks"] == 2
            assert executor.stats["pool_spawns"] == 1
        assert pooled == serial

    def test_one_fast_group_is_one_in_process_task(self):
        points = grid_points(
            "adapter", ("pwtk",), ("MLPnc", "MLP8", "MLP64", "MLP256"), max_nnz=TINY
        )
        with SweepExecutor(workers=2) as executor:
            executor.run(points)
            assert executor.last_stats["tasks"] == 1
            assert executor.stats["pool_spawns"] == 0

    @pytest.mark.parametrize("model", ["fast", "cycle"])
    def test_as_many_groups_as_workers_is_one_task_each(self, model):
        points = grid_points(
            "adapter", ("msc01440", "pwtk"), ("MLPnc", "MLP64"),
            max_nnz=CYCLE_NNZ, model=model,
        )
        _, _, tasks, _ = SweepExecutor(workers=2)._plan(points)
        assert [t.variants for t in tasks] == [("MLPnc", "MLP64")] * 2

    def test_one_worker_splits_nothing(self):
        points = self.cycle_grid(variants=("MLPnc", "MLP8", "MLP64", "MLP256"))
        _, _, tasks, _ = SweepExecutor(workers=1)._plan(points)
        assert [t.variants for t in tasks] == [("MLPnc", "MLP8", "MLP64", "MLP256")]

    def test_executor_counts_tasks_and_cache_traffic(self):
        executor = SweepExecutor(workers=1)
        executor.run(grid_points(
            "adapter", ("pwtk",), ("MLPnc", "MLP8", "MLP64", "MLP256"), max_nnz=TINY
        ))
        assert executor.last_stats["groups"] == 1
        assert executor.last_stats["tasks"] == 1
        total = executor.last_stats["cache_hits"] + executor.last_stats["cache_misses"]
        assert total > 0
        assert executor.stats["tasks"] == executor.last_stats["tasks"]


class TestChunkedCacheKeys:
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
