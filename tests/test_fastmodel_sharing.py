"""Shared fast-model pricing: memory terms priced once per stream.

The fast model splits its pricing into the memory side (coalesced
element transactions and the DRAM timeline, :func:`price_memory`) and
the per-variant formula (:func:`price_variant`).  A
:class:`StreamAnalysis` memoises the memory side by (window, index
fetches, DRAM config, channels), so SEQx reuses MLPx's terms, a scatter
its gather's, and the ``system`` backend's pack rows reuse Fig. 3's
SELL streams.  These tests pin that the sharing changes no result and
that the shared work really runs once; they also pin the per-channel
grouping against the mask loop it replaced, and the term breakdown in
``extras``.
"""

import random
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.axipack.fastmodel as fastmodel
from repro.axipack import StridedBurst, fast_strided_stream
from repro.axipack.fastmodel import (
    _channel_dram_cycles,
    analyze_stream,
    fast_indirect_stream,
)
from repro.axipack.scatter import fast_indirect_scatter
from repro.config import DramConfig, variant_config
from repro.engine import (
    AnalysisCache,
    SweepExecutor,
    SweepPoint,
    get_backend,
    grid_points,
)
from repro.engine import executor as executor_mod
from repro.mem.timeline import service_timeline
from repro.sparse.sell import SellMatrix
from repro.sparse.suite import get_matrix
from repro.vpc import PACK_SYSTEMS, PackSystem

TINY = 12_000
VARIANTS = (
    "MLPnc", "MLP8", "MLP16", "MLP32", "MLP64", "MLP128", "MLP256",
    "SEQ64", "SEQ256",
)
EXTRA_TERMS = (
    "gen_cycles", "watcher_cycles", "dram_bound_cycles", "pack_cycles",
    "issue_cycles", "fill_cycles", "tail_cycles",
)


def _stream() -> np.ndarray:
    return AnalysisCache().stream("pwtk", "sell", TINY)


def _count_calls(monkeypatch, module, name: str) -> list:
    """Count calls of ``module.name`` (as its callers there see it)."""
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def _count_sell_builds(monkeypatch) -> list:
    """Count SELL builds (``SellMatrix.from_csr`` calls)."""
    builds = []
    from_csr = SellMatrix.from_csr.__func__

    def counted(cls, *args, **kwargs):
        builds.append(1)
        return from_csr(cls, *args, **kwargs)

    monkeypatch.setattr(SellMatrix, "from_csr", classmethod(counted))
    return builds


def _mask_loop_oracle(merged, dram, channels):
    """The per-channel pricing before the grouping sort: one mask per
    channel over the whole stream, idle channels priced empty."""
    cycles = 0
    stats: dict[str, int] = {}
    hits = txns = 0
    for channel in range(channels):
        result = service_timeline(
            merged[merged % channels == channel] // channels, dram
        )
        cycles = max(cycles, result.cycles)
        hits += result.row_hits
        txns += result.transactions
        for key, value in result.stats.items():
            stats[key] = stats.get(key, 0) + value
    return cycles, stats, (hits / txns if txns else 0.0)


class TestSharedMemoryTerms:
    def test_warm_analysis_prices_like_fresh_calls(self):
        """Every variant, channel count, index width, DRAM config and
        path priced through one analysis, in shuffled order, equals a
        fresh call field for field: each part of the memo key is
        varied.  The scatter path has one channel."""
        indices = _stream()
        drams = (DramConfig(), DramConfig(queue_depth=8))
        analysis = analyze_stream(indices, 8)
        jobs = [
            ("gather", v, ch, width, dram)
            for v in VARIANTS for ch in (1, 2, 4) for width in (4, 8)
            for dram in drams
        ]
        jobs += [
            ("scatter", v, 1, width, dram)
            for v in VARIANTS if v != "MLPnc" for width in (4, 8) for dram in drams
        ]
        random.Random(24).shuffle(jobs)
        for path, variant, channels, width, dram in jobs:
            config = replace(variant_config(variant), index_bytes=width)
            if path == "gather":
                shared = fast_indirect_stream(
                    indices, config, dram, variant, analysis, channels
                )
                fresh = fast_indirect_stream(
                    indices, config, dram, variant, channels=channels
                )
            else:
                shared = fast_indirect_scatter(indices, config, dram, analysis)
                fresh = fast_indirect_scatter(indices, config, dram)
            assert shared == fresh, (path, variant, channels, width, dram)
            assert shared.dram_stats == fresh.dram_stats
            assert shared.extras == fresh.extras

    def test_results_do_not_share_mutable_state(self):
        indices = _stream()
        mlp64, seq64 = variant_config("MLP64"), variant_config("SEQ64")
        analysis = analyze_stream(indices, 8)
        first = fast_indirect_stream(indices, mlp64, analysis=analysis)
        expected = fast_indirect_stream(indices, seq64)
        first.dram_stats["activates"] += 1_000
        first.dram_stats.clear()
        later = fast_indirect_stream(indices, seq64, analysis=analysis)
        assert later == expected
        assert later.dram_stats and later.dram_stats == expected.dram_stats

    def test_seq_reuses_the_mlp_timeline(self, monkeypatch):
        """SEQ256 coalesces with MLP256's window, so a fresh cache
        prices the group's DRAM timeline once."""
        timelines = _count_calls(monkeypatch, fastmodel, "service_timeline")
        rows = get_backend("adapter").run_group(
            ("adapter", "pwtk", "sell", TINY, "fast"), ("MLP256", "SEQ256"),
            AnalysisCache(),
        )
        assert len(timelines) == 1
        assert rows[0]["elem_txns"] == rows[1]["elem_txns"]
        assert rows[1]["cycles"] >= rows[0]["cycles"]

    def test_pack_systems_reuse_the_adapter_group(self, monkeypatch):
        """After Fig. 3's MLPnc/MLP64/MLP256 group over the SELL stream,
        the matching system group builds SELL once and prices no
        timeline of its own."""
        cache = AnalysisCache()
        get_backend("adapter").run_group(
            ("adapter", "pwtk", "sell", TINY, "fast"), tuple(PACK_SYSTEMS.values()),
            cache,
        )
        timelines = _count_calls(monkeypatch, fastmodel, "service_timeline")
        builds = _count_sell_builds(monkeypatch)
        rows = get_backend("system").run_group(
            ("system", "pwtk", "", TINY, "fast"), ("base", *PACK_SYSTEMS), cache
        )
        assert [row["system"] for row in rows] == ["base", *PACK_SYSTEMS]
        assert len(builds) == 1
        assert timelines == []

    def test_cold_system_group_builds_sell_once(self, monkeypatch):
        """On a cold process cache, a system group's pack systems and
        the stream their analysis prices share one SELL-32 build, and
        the rows equal those priced over the cache's own stream."""
        monkeypatch.setattr(executor_mod, "_PROCESS_CACHE", AnalysisCache())
        builds = _count_sell_builds(monkeypatch)
        rows = SweepExecutor(workers=1).run(
            grid_points("system", ("pwtk",), tuple(PACK_SYSTEMS), max_nnz=TINY)
        )
        assert len(builds) == 1
        warm = AnalysisCache()
        warm.stream("pwtk", "sell", TINY)
        assert rows == get_backend("system").run_group(
            ("system", "pwtk", "", TINY, "fast"), tuple(PACK_SYSTEMS), warm
        )

    @pytest.mark.parametrize("system", list(PACK_SYSTEMS))
    def test_pack_run_with_analysis_equals_plain_run(self, system):
        csr = get_matrix("pwtk", TINY)
        sell = csr.to_sell(32)
        analysis = analyze_stream(sell.index_stream(), 8)
        pack = PackSystem(PACK_SYSTEMS[system], name=system)
        assert pack.run(sell, "pwtk", analysis=analysis) == pack.run(csr, "pwtk")


class TestChannelGrouping:
    @given(
        st.integers(0, 20_000),
        st.integers(2, 1_024),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=25, deadline=None)
    def test_matches_the_mask_loop(self, size, channels, seed):
        rng = np.random.default_rng(seed)
        merged = rng.integers(0, 1 << 23, size, dtype=np.int64)
        dram = DramConfig()
        assert _channel_dram_cycles(merged, dram, channels) == _mask_loop_oracle(
            merged, dram, channels
        )

    def test_empty_stream_reports_every_key(self):
        dram = DramConfig()
        empty = np.empty(0, dtype=np.int64)
        cycles, stats, rate = _channel_dram_cycles(empty, dram, 8)
        assert (cycles, rate) == (0, 0.0)
        assert stats == dict(service_timeline(empty, dram).stats)

    @pytest.mark.parametrize("channels", [2**53 + 1, 2**63 - 1])
    def test_multichannel_row_reports_the_exact_count(self, channels):
        """A channel count past 2**53 prices only the channels with
        traffic, and its row carries the count as an exact int."""
        point = SweepPoint(
            "pwtk", f"ch{channels}", "sell", 3_000, "fast", "multichannel"
        )
        (row,) = SweepExecutor(workers=1).run([point])
        assert type(row["channels"]) is int and row["channels"] == channels


class TestTermBreakdown:
    @staticmethod
    def _assert_formula(metrics):
        terms = {key: metrics.extras[key] for key in EXTRA_TERMS}
        assert metrics.cycles == max(
            terms["gen_cycles"], terms["watcher_cycles"],
            terms["dram_bound_cycles"], terms["pack_cycles"],
            terms["issue_cycles"],
        ) + terms["fill_cycles"] + terms["tail_cycles"]

    @pytest.mark.parametrize("variant", ["MLPnc", "MLP64", "SEQ256"])
    def test_gather_and_two_channels(self, variant):
        indices = _stream()
        config = variant_config(variant)
        self._assert_formula(fast_indirect_stream(indices, config))
        two = fast_indirect_stream(indices, config, channels=2)
        self._assert_formula(two)
        assert two.extras["channels"] == 2.0

    @pytest.mark.parametrize("variant", ["MLP8", "MLP256"])
    def test_scatter(self, variant):
        self._assert_formula(fast_indirect_scatter(_stream(), variant_config(variant)))

    @pytest.mark.parametrize("stride", [8, 64, 4096])
    def test_strided(self, stride):
        burst = StridedBurst(base=0, count=2_000, stride_bytes=stride)
        self._assert_formula(fast_strided_stream(burst))
