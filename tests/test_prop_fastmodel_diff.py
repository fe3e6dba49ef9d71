"""Property-based differential tests: vectorized hot paths vs oracles.

The fast model's coalescing kernel and its DRAM pricing were rewritten
as NumPy segment operations; naive per-window / per-transaction loops
are retained in :mod:`repro.axipack.reference` as oracles.  The
vectorized implementations must be *bit-exact* against them — same
wide-access counts, same warp tags in the same issue order, same cycle
counts and service stats — on arbitrary block streams, window sizes,
and queue depths.

Two vectorized kernels are pinned here:

* :func:`~repro.axipack.fastmodel.coalesce_window_exact` against the
  seed per-window loop;
* :func:`~repro.mem.timeline.service_timeline` (the bank-state DRAM
  timeline) against its walking oracle, including adversarial
  single-bank and row-thrash streams where the bank dimension
  degenerates.

Oracle-independent floors back the timeline up: on row-thrash streams
— globally distinct rows, so FR-FCFS reordering has nothing to merge —
the queue-serial replay can never undercut the in-order two-term bound
``max(bus, t_rc * busiest bank's activates)``, the pure bus-occupancy
term is a floor on every stream, and reordering never needs more
activates than an in-order open-row walk.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.axipack.fastmodel import (
    analyze_stream,
    block_sort_order,
    coalesce_window_exact,
)
from repro.axipack.reference import (
    coalesce_window_reference,
    service_timeline_reference,
)
from repro.config import DramConfig
from repro.mem.timeline import service_timeline


@st.composite
def block_streams(draw):
    """Block-id streams spanning the shapes sweeps actually produce:
    dense reuse, wandering locality, constants, and sparse far ids."""
    count = draw(st.integers(min_value=0, max_value=500))
    kind = draw(st.sampled_from(["dense", "walk", "constant", "sparse"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**31)))
    if count == 0:
        return np.empty(0, dtype=np.int64)
    if kind == "dense":
        blocks = rng.integers(0, draw(st.integers(1, 30)), count)
    elif kind == "walk":
        blocks = np.cumsum(rng.integers(-2, 3, count)) + 50
    elif kind == "constant":
        blocks = np.full(count, rng.integers(0, 100))
    else:
        blocks = rng.integers(0, 1 << 40, count)
    return blocks.astype(np.int64)


@st.composite
def single_bank_streams(draw):
    """Adversarial streams confined to one bank: every block maps to
    the same bank (``block % num_banks`` constant), rows arbitrary —
    the regime where the per-bank activate chain is the whole service
    time and any per-bank accounting slip shows up at full magnitude."""
    dram = DramConfig()
    count = draw(st.integers(min_value=1, max_value=400))
    bank = draw(st.integers(0, dram.num_banks - 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**31)))
    kind = draw(st.sampled_from(["hammer", "few_rows", "bursty"]))
    if kind == "hammer":  # every request a fresh row
        rows = np.arange(count, dtype=np.int64)
    elif kind == "few_rows":  # ping-pong over a handful of rows
        rows = rng.integers(0, draw(st.integers(1, 4)), count)
    else:  # runs of row hits with occasional jumps
        rows = np.cumsum(rng.integers(0, 2, count))
    return bank + rows * dram.num_banks * dram.blocks_per_row


@st.composite
def row_thrash_streams(draw):
    """Globally distinct rows (strictly increasing per bank): FR-FCFS
    reordering has nothing to merge, so every transaction is an
    activate and the in-order two-term bound is a true floor."""
    dram = DramConfig()
    count = draw(st.integers(min_value=1, max_value=400))
    rng = np.random.default_rng(draw(st.integers(0, 2**31)))
    banks = rng.integers(0, draw(st.integers(1, dram.num_banks)) , count)
    rows = np.arange(count, dtype=np.int64)  # new row for every request
    return banks + rows * dram.num_banks * dram.blocks_per_row


windows = st.integers(min_value=1, max_value=300)
queue_depths = st.integers(min_value=1, max_value=80)


class TestCoalescerDifferential:
    @given(blocks=block_streams(), window=windows)
    @settings(max_examples=300, deadline=None)
    def test_bit_exact_vs_reference(self, blocks, window):
        """Wide-access count AND warp-tag issue order match the oracle
        exactly — no tolerance."""
        count_vec, tags_vec = coalesce_window_exact(blocks, window)
        count_ref, tags_ref = coalesce_window_reference(blocks, window)
        assert count_vec == count_ref
        assert np.array_equal(tags_vec, tags_ref)

    @given(blocks=block_streams(), window=windows)
    @settings(max_examples=100, deadline=None)
    def test_precomputed_order_is_equivalent(self, blocks, window):
        """Passing the cached by-value sort (the sweep path) changes
        nothing versus computing it in-call."""
        order = block_sort_order(blocks) if blocks.size else None
        count_a, tags_a = coalesce_window_exact(blocks, window, order)
        count_b, tags_b = coalesce_window_exact(blocks, window)
        assert count_a == count_b
        assert np.array_equal(tags_a, tags_b)

    @given(blocks=block_streams(), window=windows)
    @settings(max_examples=100, deadline=None)
    def test_tag_multiset_is_subset_of_windows(self, blocks, window):
        """Sanity invariants independent of the oracle: never more
        warps than requests, never fewer than distinct blocks."""
        count, tags = coalesce_window_exact(blocks, window)
        assert count == len(tags) <= blocks.size
        if blocks.size:
            assert count >= len(np.unique(blocks)) - 1  # carry may hide one
            assert set(tags.tolist()) <= set(blocks.tolist())

    @given(blocks=block_streams())
    @settings(max_examples=50, deadline=None)
    def test_analyze_stream_geometry(self, blocks):
        """analyze_stream derives blocks/order consistently."""
        analysis = analyze_stream(blocks * 8, 8)
        assert np.array_equal(analysis.blocks, blocks)
        assert np.array_equal(analysis.order, block_sort_order(blocks))


def assert_timeline_matches_oracle(blocks, dram, queue_depth=None):
    vec = service_timeline(blocks, dram, queue_depth)
    ref = service_timeline_reference(blocks, dram, queue_depth)
    assert vec.cycles == ref.cycles
    assert vec.stats == ref.stats
    assert np.array_equal(vec.bank_busy, ref.bank_busy)
    return vec


class TestTimelineDifferential:
    @given(blocks=block_streams(), queue_depth=queue_depths)
    @settings(max_examples=200, deadline=None)
    def test_bit_exact_vs_walking_oracle(self, blocks, queue_depth):
        """Cycles, every stat counter, and the per-bank busy vector
        match the walking oracle exactly — no tolerance."""
        assert_timeline_matches_oracle(blocks, DramConfig(), queue_depth)

    @given(blocks=single_bank_streams(), queue_depth=queue_depths)
    @settings(max_examples=150, deadline=None)
    def test_single_bank_adversarial(self, blocks, queue_depth):
        """One-bank streams: the whole service time rides on one bank
        chain; the replay must still match the oracle bit-exactly and
        never report work on any other bank."""
        dram = DramConfig()
        result = assert_timeline_matches_oracle(blocks, dram, queue_depth)
        bank = int(blocks[0] % dram.num_banks)
        assert result.bank_busy[bank] > 0
        others = np.delete(result.bank_busy, bank)
        assert not others.any()
        assert result.cold_activates == 1

    @given(blocks=row_thrash_streams(), queue_depth=queue_depths)
    @settings(max_examples=150, deadline=None)
    def test_row_thrash_never_undercuts_legacy_bound(self, blocks, queue_depth):
        """Globally distinct rows: reordering merges nothing, so every
        transaction is an activate and the legacy two-term bound —
        ``max(bus, t_rc * busiest bank's activates)`` plus refresh — is
        a floor on the replay."""
        dram = DramConfig()
        result = assert_timeline_matches_oracle(blocks, dram, queue_depth)
        n = int(blocks.size)
        busiest = int(np.bincount(blocks % dram.num_banks).max())
        floor = max(n * dram.t_burst, busiest * dram.t_rc)
        if dram.t_refi > 0:
            floor += floor // dram.t_refi * dram.t_rfc
        assert result.activates == n
        assert result.row_hits == 0
        assert result.cycles >= floor

    @given(blocks=block_streams(), queue_depth=queue_depths)
    @settings(max_examples=100, deadline=None)
    def test_invariants(self, blocks, queue_depth):
        """Oracle-independent floors and conservation laws: the bus
        occupancy is a lower bound, reordering only ever removes
        activates versus the legacy in-order walk, hits + activates
        account for every transaction, and no bank is busier than the
        whole channel."""
        dram = DramConfig()
        result = service_timeline(blocks, dram, queue_depth)
        n = int(blocks.size)
        assert result.cycles >= n * dram.t_burst
        assert result.transactions == n
        if n:
            # In-order open-row walk: each bank's first request, then
            # every change of row between its consecutive requests.
            banks = blocks % dram.num_banks
            rows = blocks // (dram.num_banks * dram.blocks_per_row)
            by_bank = np.argsort(banks, kind="stable")
            bank, row = banks[by_bank], rows[by_bank]
            in_order = 1 + np.count_nonzero(
                (bank[1:] != bank[:-1]) | (row[1:] != row[:-1])
            )
            assert result.activates <= in_order
            assert result.bank_busy.max() <= result.cycles
            assert (result.occupancy() <= 1.0).all()
