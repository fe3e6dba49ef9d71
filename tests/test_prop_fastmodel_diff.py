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
  seed per-window loop, including ids over the whole int64 range, and
  the :func:`~repro.axipack.fastmodel.previous_occurrence` array it
  runs on against a dict walk;
* :func:`~repro.mem.timeline.service_timeline` (the bank-state DRAM
  timeline) against its walking oracle, including adversarial
  single-bank and row-thrash streams where the bank dimension
  degenerates, ids over the whole int64 range, where the replay keys
  on dense row ranks, random DRAM geometries, and streams whose key
  fields sit exactly at the 63-bit limit.

Oracle-independent floors back the timeline up: on row-thrash streams
— globally distinct rows, so FR-FCFS reordering has nothing to merge —
the queue-serial replay can never undercut the in-order two-term bound
``max(bus, t_rc * busiest bank's activates)``, the pure bus-occupancy
term is a floor on every stream, and reordering never needs more
activates than an in-order open-row walk.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.axipack.fastmodel import (
    analyze_stream,
    coalesce_window_exact,
    previous_occurrence,
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


@st.composite
def wide_block_streams(draw):
    """Block ids spread over +-2^62 plus both int64 extremes.  With at
    least 8 requests no int64 sort key holds their row span, so the
    timeline must dense-rank the rows (and ``previous_occurrence`` its
    blocks).  Ids come from a small pool, and half of them move to
    another bank inside their row, so rows repeat within and across
    queue windows (hits and carried hits)."""
    count = draw(st.integers(min_value=8, max_value=300))
    rng = np.random.default_rng(draw(st.integers(0, 2**31)))
    i64 = np.iinfo(np.int64)
    pool = rng.integers(-(1 << 62), 1 << 62, draw(st.integers(1, 20)))
    blocks = np.r_[i64.min, i64.max, pool][rng.integers(0, pool.size + 2, count)]
    # New low 8 bits (16 banks x 16 blocks per row): same row, new bank.
    rebank = rng.random(count) < 0.5
    blocks[rebank] = (blocks[rebank] & ~0xFF) | rng.integers(0, 0x100, rebank.sum())
    blocks[rng.choice(count, 2, replace=False)] = (i64.min, i64.max)
    return blocks


@st.composite
def dram_geometries(draw):
    """DRAM geometries beyond the default: the timeline key's field
    widths follow the bank count, the blocks per row (not always a
    power of two), the queue depth and the stream length."""
    return DramConfig(
        num_banks=draw(st.sampled_from([1, 2, 4, 16, 64])),
        row_bytes=64 * draw(st.integers(1, 40)),
        t_refi=draw(st.sampled_from([0, 3900])),
    )


windows = st.integers(min_value=1, max_value=300)
queue_depths = st.integers(min_value=1, max_value=80)


def previous_occurrence_walk(blocks):
    """Each request's previous request to the same block, by a walk
    that remembers every block's latest position."""
    latest: dict[int, int] = {}
    prev = []
    for position, block in enumerate(blocks.tolist()):
        prev.append(latest.get(block, -1))
        latest[block] = position
    return np.array(prev, dtype=np.int64)


#: sweep-shaped streams and streams with ids at both int64 extremes.
any_block_streams = st.one_of(block_streams(), wide_block_streams())


class TestCoalescerDifferential:
    @given(blocks=any_block_streams, window=windows)
    @settings(max_examples=500, deadline=None)
    def test_bit_exact_vs_reference(self, blocks, window):
        """Wide-access count AND warp-tag issue order match the oracle
        exactly — no tolerance — ids at the int64 extremes included."""
        count_vec, tags_vec = coalesce_window_exact(blocks, window)
        count_ref, tags_ref = coalesce_window_reference(blocks, window)
        assert count_vec == count_ref
        assert np.array_equal(tags_vec, tags_ref)

    @given(blocks=block_streams(), window=windows)
    @settings(max_examples=100, deadline=None)
    def test_precomputed_order_is_equivalent(self, blocks, window):
        """Passing the cached previous-occurrence array (the sweep
        path) changes nothing versus computing it in-call."""
        prev = previous_occurrence(blocks)
        count_a, tags_a = coalesce_window_exact(blocks, window, prev)
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
        """analyze_stream derives blocks/prev consistently."""
        analysis = analyze_stream(blocks * 8, 8)
        assert np.array_equal(analysis.blocks, blocks)
        assert np.array_equal(analysis.prev, previous_occurrence(blocks))

    @given(blocks=any_block_streams)
    @settings(max_examples=400, deadline=None)
    def test_previous_occurrence_matches_walk(self, blocks):
        """The one-sort previous-occurrence array equals a dict walk."""
        assert np.array_equal(
            previous_occurrence(blocks), previous_occurrence_walk(blocks)
        )


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

    @given(blocks=wide_block_streams(), queue_depth=queue_depths)
    @settings(max_examples=200, deadline=None)
    def test_wide_keys_bit_exact_vs_walking_oracle(self, blocks, queue_depth):
        """Ids over the whole int64 range, where the replay keys on
        dense row ranks, still match the walking oracle exactly."""
        assert_timeline_matches_oracle(blocks, DramConfig(), queue_depth)

    @given(blocks=any_block_streams, dram=dram_geometries(), queue_depth=queue_depths)
    @settings(max_examples=300, deadline=None)
    def test_bit_exact_across_dram_geometries(self, blocks, dram, queue_depth):
        """Bank counts from 1 to 64, rows of 1 to 40 blocks, refresh
        on or off: the key's field widths change with every draw, and
        the replay still matches the walking oracle exactly."""
        assert_timeline_matches_oracle(blocks, dram, queue_depth)

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


class TestTimelineKeyWidth:
    """The sort key's four fields (bank, queue window, row, slot) may
    use 63 bits, so every key is a non-negative int64.  One bank and
    one block per row make the rows the block ids themselves."""

    DRAM = DramConfig(num_banks=1, row_bytes=64)

    @staticmethod
    def ranked(monkeypatch, blocks, dram, queue_depth):
        """Price ``blocks`` and report whether the rows were ranked
        (the rank path is the replay's only ``np.unique``)."""
        calls = []
        unique = np.unique

        def spy(*args, **kwargs):
            calls.append(args)
            return unique(*args, **kwargs)

        monkeypatch.setattr(np, "unique", spy)
        assert_timeline_matches_oracle(blocks, dram, queue_depth)
        return bool(calls)

    def test_exactly_63_bits_price_raw_rows(self, monkeypatch):
        # Two windows (1 bit) of two slots (1 bit) and a 61-bit row span.
        far = (1 << 61) - 1
        blocks = np.array([0, far, far, 0], dtype=np.int64)
        assert not self.ranked(monkeypatch, blocks, self.DRAM, 1)

    def test_one_bit_more_takes_the_rank_path(self, monkeypatch):
        far = (1 << 62) - 1  # a 62-bit row span: 64 bits in all
        blocks = np.array([0, far, far, 0], dtype=np.int64)
        assert self.ranked(monkeypatch, blocks, self.DRAM, 1)

    def test_ranks_within_63_bits_are_priced(self, monkeypatch):
        # A 62-bit slot field leaves one bit: two distinct rows fit.
        blocks = np.array([0, 10**15, 0], dtype=np.int64)
        assert self.ranked(monkeypatch, blocks, self.DRAM, 1 << 61)

    def test_ranks_needing_64_bits_are_refused(self):
        blocks = np.array([0, 5, 10**15], dtype=np.int64)  # three rows
        with pytest.raises(ValueError, match="too long"):
            service_timeline(blocks, self.DRAM, 1 << 61)
