"""Fast model: window-exact coalescing and analytic timing."""

import numpy as np
import pytest

from repro.axipack.fastmodel import (
    _interleave_streams,
    coalesce_window_exact,
    fast_indirect_stream,
)
from repro.config import DramConfig, mlp_config, nocoalescer_config, seq_config
from repro.mem.timeline import service_timeline

from helpers import banded_stream, random_stream


class TestWindowExactCoalescing:
    def test_all_unique_blocks(self):
        blocks = np.arange(100, dtype=np.int64) * 7  # no two share a block
        count, tags = coalesce_window_exact(blocks, 16)
        assert count == 100
        assert np.array_equal(tags, blocks)

    def test_all_same_block(self):
        blocks = np.zeros(1000, dtype=np.int64)
        count, _ = coalesce_window_exact(blocks, 64)
        assert count == 0 or count == 1  # single open warp carries forever
        # (flushed once at stream end by the watchdog -> one access)

    def test_duplicates_within_window_merge(self):
        blocks = np.array([0, 1, 0, 1, 0, 1, 0, 1], dtype=np.int64)
        count, tags = coalesce_window_exact(blocks, 8)
        assert count == 2
        assert tags.tolist() == [0, 1]

    def test_duplicates_across_windows_do_not_merge(self):
        """Except via the single carried CSHR, separate windows cannot
        share a warp."""
        blocks = np.array([0, 1, 0, 1], dtype=np.int64)
        count, _ = coalesce_window_exact(blocks, 2)
        # windows [0,1], [0,1]: warp 0, warp 1 carried -> absorbs nothing
        # of window 2 (tag 1 matches window2's second entry!) ...
        # window1: tags [0,1], carry=1; window2: {0,1}: 1 merges into
        # carry, 0 is new -> 3 total.
        assert count == 3

    def test_carry_merges_consecutive_window_tail(self):
        blocks = np.array([5, 5, 5, 5, 5, 5, 5, 5], dtype=np.int64)
        count, _ = coalesce_window_exact(blocks, 4)
        assert count <= 1

    def test_first_occurrence_order(self):
        blocks = np.array([3, 1, 3, 2], dtype=np.int64)
        _, tags = coalesce_window_exact(blocks, 4)
        assert tags.tolist() == [3, 1, 2]

    def test_empty_stream(self):
        count, tags = coalesce_window_exact(np.empty(0, dtype=np.int64), 8)
        assert count == 0 and len(tags) == 0

    def test_window_longer_than_stream(self):
        """A window longer than the stream is one window, and a direct
        call sizes nothing by W (variant labels stop at W = 2048, the
        ``CoalescerConfig`` offset budget)."""
        blocks = np.array([3, 1, 3, 2], dtype=np.int64)
        count, tags = coalesce_window_exact(blocks, 1 << 40)
        assert count == 3
        assert tags.tolist() == [3, 1, 2]


def interleave_textbook(elem_blocks, idx_blocks):
    """Index transaction k goes to slot ``int(linspace(0, T-1, m)[k])``
    of the ``T``-slot merged stream; element transactions fill the
    remaining slots in order."""
    total = len(elem_blocks) + len(idx_blocks)
    slots = [None] * total
    positions = np.linspace(0, total - 1, num=len(idx_blocks))
    for k, block in enumerate(idx_blocks.tolist()):
        slot = int(positions[k])
        assert slots[slot] is None  # the definition needs distinct slots
        slots[slot] = block
    elements = iter(elem_blocks.tolist())
    return [next(elements) if block is None else block for block in slots]


class TestInterleave:
    @staticmethod
    def check(elem_count, idx_count, rng):
        elem = rng.integers(0, 1 << 20, elem_count)
        idx = np.arange(idx_count, dtype=np.int64) + (1 << 22)
        merged = _interleave_streams(elem, idx)
        assert merged.dtype == np.int64
        assert merged.tolist() == interleave_textbook(elem, idx)

    def test_every_small_shape(self):
        """Every shape up to 64 element and 64 index transactions."""
        rng = np.random.default_rng(0)
        for elem_count in range(65):
            for idx_count in range(65):
                self.check(elem_count, idx_count, rng)

    def test_report_sized_stream(self):
        """A 60k-request stream's shape: ~23k warps, 3,750 index
        transactions (4-byte indices, 64-byte accesses)."""
        self.check(23_456, 3_750, np.random.default_rng(1))


class TestDramEstimate:
    def test_sequential_is_bus_bound(self):
        dram = DramConfig()
        blocks = np.arange(1000, dtype=np.int64)
        assert service_timeline(blocks, dram).cycles == 1000 * dram.t_burst

    def test_single_bank_hammer_is_trc_bound(self):
        dram = DramConfig()
        stride = dram.num_banks * dram.blocks_per_row  # same bank, new row
        blocks = np.arange(64, dtype=np.int64) * stride
        assert service_timeline(blocks, dram).cycles == 64 * dram.t_rc

    def test_empty(self):
        empty = np.empty(0, dtype=np.int64)
        assert service_timeline(empty, DramConfig()).cycles == 0


class TestFastMetrics:
    def test_mlpnc_element_txn_per_request(self):
        idx = random_stream(2000, 100_000)
        m = fast_indirect_stream(idx, nocoalescer_config())
        assert m.elem_txns == 2000
        assert m.coalesce_rate == pytest.approx(0.125, abs=1e-9)

    def test_seq_same_coalescing_lower_bw(self):
        idx = banded_stream(4000)
        mlp = fast_indirect_stream(idx, mlp_config(256))
        seq = fast_indirect_stream(idx, seq_config(256))
        assert seq.elem_txns == mlp.elem_txns
        assert seq.indirect_bw_gbps <= 8.0
        assert mlp.indirect_bw_gbps > seq.indirect_bw_gbps

    def test_window_monotonicity(self):
        idx = banded_stream(8000)
        txns = [fast_indirect_stream(idx, mlp_config(w)).elem_txns
                for w in (8, 16, 32, 64, 128, 256)]
        assert all(a >= b for a, b in zip(txns, txns[1:]))

    def test_idx_txn_count(self):
        idx = banded_stream(1600)
        m = fast_indirect_stream(idx, mlp_config(64))
        assert m.idx_txns == 100  # 1600*4/64

    def test_marks_fast_model(self):
        m = fast_indirect_stream(banded_stream(100), mlp_config(8))
        assert m.extras["model"] == 1.0


@pytest.mark.parametrize("dtype", [np.uint32, np.int64], ids=["uint32", "int64"])
class TestStaleAnalysisGuard:
    """The engine caches uint32 streams; callers may pass int64 ones.
    Both must reach the same guard and the same fallback."""

    def test_mismatched_analysis_is_recomputed(self, dtype):
        """A stale analysis (wrong stream length or geometry) must be
        ignored, not silently mixed with the new stream."""
        from repro.axipack.fastmodel import analyze_stream

        short = banded_stream(1000).astype(dtype)
        full = banded_stream(4000).astype(dtype)
        stale = analyze_stream(short, 8)
        cfg = mlp_config(64)
        with_stale = fast_indirect_stream(full, cfg, analysis=stale)
        clean = fast_indirect_stream(full, cfg)
        assert with_stale.elem_txns == clean.elem_txns
        assert with_stale.cycles == clean.cycles


    def test_equal_length_different_stream_is_rejected(self, dtype):
        """The sampled content fingerprint catches a stale analysis
        from a different stream of identical length and geometry."""
        from repro.axipack.fastmodel import analyze_stream

        a = banded_stream(4000, seed=1).astype(dtype)
        b = banded_stream(4000, seed=99).astype(dtype)
        stale = analyze_stream(a, 8)
        cfg = mlp_config(64)
        with_stale = fast_indirect_stream(b, cfg, analysis=stale)
        clean = fast_indirect_stream(b, cfg)
        assert with_stale.elem_txns == clean.elem_txns
        assert with_stale.cycles == clean.cycles


def test_matching_analysis_copies_no_uint32_stream():
    """With a matching analysis only the guard's probes are cast: pricing
    a variant over the engine's cached uint32 stream allocates far less
    than the stream itself."""
    import tracemalloc

    from repro.axipack.fastmodel import analyze_stream

    stream = banded_stream(60_000).astype(np.uint32)
    analysis = analyze_stream(stream, 8)
    cfg = mlp_config(64)
    expected = fast_indirect_stream(stream, cfg)
    fast_indirect_stream(stream, cfg, analysis=analysis)  # fills the memo
    tracemalloc.start()
    try:
        metrics = fast_indirect_stream(stream, cfg, analysis=analysis)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert metrics == expected
    assert peak < stream.size
