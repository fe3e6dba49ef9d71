"""Bank-state timeline: unit contract, bit-exactness against the
walking oracle on real suite streams, and the differential vs the
cycle channel.

The differential tier is the acceptance gate for the timeline
subsystem: replaying a transaction stream through
:func:`repro.mem.timeline.service_timeline` must land within
``TIMELINE_TOLERANCE`` of driving the same stream through the
cycle-accurate FR-FCFS :class:`repro.mem.dram.DramChannel` — on the
matrix suite's real warp-tag streams *and* on adversarial bank/row
patterns.

Tolerances (referenced by README/ARCHITECTURE):

* suite streams (coalesced warp tags, raw MLPnc block streams) sit
  within a few percent of the channel (bus-bound regime);
* adversarial streams (uniform random banks/rows, single-bank row
  hammer, two-row ping-pong) stay within ``TIMELINE_TOLERANCE`` =
  ratio in [0.70, 1.35] — the queue-serial replay is conservative-low
  on pure activate chains (no t_RP/t_RCD modelling) and
  conservative-high on scattered traffic (whole-window barriers).
"""

import math

import numpy as np
import pytest

from repro.axipack.reference import service_timeline_reference
from repro.config import DramConfig
from repro.mem.backing_store import BackingStore
from repro.mem.dram import DramChannel
from repro.mem.multichannel import MultiChannelMemory
from repro.mem.request import MemRequest
from repro.mem.timeline import TimelineResult, service_timeline
from repro.sim.clock import Simulator
from repro.sparse.suite import list_matrices

#: Declared differential tolerance: timeline service cycles vs the
#: cycle-accurate channel, as a ratio band over every stream in the
#: differential set.
TIMELINE_TOLERANCE = (0.70, 1.35)


def drive_channel(blocks, dram: DramConfig | None = None) -> int:
    """Push one read per wide block through a DramChannel, respecting
    queue backpressure; returns the cycle the last response arrived."""
    dram = dram or DramConfig()
    blocks = np.asarray(blocks, dtype=np.int64)
    store = BackingStore(int(blocks.max() + 1) * dram.access_bytes + 4096)
    channel = DramChannel(store, dram)
    sim = Simulator([channel])
    issued = done = 0
    count = len(blocks)
    while done < count:
        while issued < count and channel.req.can_push():
            channel.req.push(
                MemRequest(
                    addr=int(blocks[issued]) * dram.access_bytes,
                    nbytes=dram.access_bytes,
                )
            )
            issued += 1
        sim.step()
        while channel.rsp.can_pop():
            channel.rsp.pop()
            done += 1
    return sim.cycle


def suite_streams(matrices, max_nnz=12_000, nc_budget=3000):
    """The streams the fast model actually prices: MLP256 warp tags and
    raw (coalescer-less) block streams of real suite matrices."""
    from repro.axipack.fastmodel import analyze_stream, coalesce_window_exact
    from repro.axipack.streams import matrix_index_stream
    from repro.sparse.suite import get_matrix

    streams = {}
    for name in matrices:
        indices = matrix_index_stream(get_matrix(name, max_nnz), "sell")
        blocks = analyze_stream(indices, 8).blocks
        _, tags = coalesce_window_exact(blocks, 256)
        streams[f"{name}-mlp256"] = tags
        streams[f"{name}-mlpnc"] = blocks[:nc_budget]
    return streams


def adversarial_streams(dram: DramConfig):
    """Bank/row stress patterns: scattered traffic, a single-bank row
    hammer, and a reorderable two-row ping-pong."""
    rng = np.random.default_rng(11)
    bank_stride = dram.num_banks * dram.blocks_per_row
    return {
        "uniform-random": rng.integers(0, 1 << 20, 4000).astype(np.int64),
        "single-bank-hammer": np.arange(1500, dtype=np.int64) * bank_stride,
        "two-row-pingpong": np.tile(
            np.array([0, bank_stride], dtype=np.int64), 800
        ),
    }


class TestTimelineContract:
    def test_empty_stream(self):
        result = service_timeline(np.empty(0, dtype=np.int64), DramConfig())
        assert result.cycles == 0
        assert result.transactions == 0
        assert (result.occupancy() == 0.0).all()

    def test_queue_depth_validated(self):
        with pytest.raises(ValueError):
            service_timeline(np.zeros(4, dtype=np.int64), DramConfig(), 0)

    def test_result_accounting(self):
        dram = DramConfig()
        blocks = np.arange(500, dtype=np.int64)
        result = service_timeline(blocks, dram)
        assert isinstance(result, TimelineResult)
        assert result.row_hits + result.activates == 500
        assert result.activates == result.cold_activates + result.row_conflicts
        assert result.queue_windows == math.ceil(500 / (2 * dram.queue_depth))
        assert 0.0 <= result.row_hit_rate <= 1.0
        assert result.bank_busy.sum() > 0

    def test_sequential_stream_is_bus_bound(self):
        dram = DramConfig()
        result = service_timeline(np.arange(1000, dtype=np.int64), dram)
        assert result.cycles == 1000 * dram.t_burst
        assert result.row_hit_rate > 0.9

    def test_key_overflow_is_refused(self):
        """A stream whose sort key overflows int64 even over ranked
        rows is refused, never priced wrongly."""
        dram = DramConfig(num_banks=1 << 40)
        blocks = np.arange(4096, dtype=np.int64) << 44  # bank 0, rows 0..4095
        with pytest.raises(ValueError, match="too long"):
            service_timeline(blocks, dram, 1)

    def test_smaller_queue_is_never_faster(self):
        """Shrinking the reorder horizon can only lose merges: service
        time is monotone non-increasing in queue depth."""
        dram = DramConfig()
        rng = np.random.default_rng(5)
        blocks = rng.integers(0, 1 << 16, 3000).astype(np.int64)
        cycles = [
            service_timeline(blocks, dram, depth).cycles
            for depth in (1, 4, 16, 32, 64)
        ]
        assert all(a >= b for a, b in zip(cycles, cycles[1:]))


class TestOracleOnSuiteStreams:
    """The vectorized replay equals the walking oracle on the streams
    the fast model prices: every suite matrix's MLP256 warp tags and
    raw MLPnc blocks at 12k nnz."""

    @pytest.mark.parametrize("queue_depth", [None, 4])
    @pytest.mark.parametrize("matrix", list_matrices())
    def test_bit_exact_vs_walking_oracle(self, matrix, queue_depth):
        dram = DramConfig()
        for name, blocks in suite_streams((matrix,)).items():
            blocks = np.asarray(blocks, dtype=np.int64)
            vec = service_timeline(blocks, dram, queue_depth)
            ref = service_timeline_reference(blocks, dram, queue_depth)
            assert vec.cycles == ref.cycles, name
            assert vec.stats == ref.stats, name
            assert np.array_equal(vec.bank_busy, ref.bank_busy), name


class TestChannelStride:
    def test_stride_strips_channel_bits_before_bank_decode(self):
        dram = DramConfig()
        store = BackingStore(1 << 16)
        plain = DramChannel(store, dram)
        strided = DramChannel(store, dram, channel_stride=2)
        # Even blocks only (what channel 0 of a 2-way interleave sees):
        # the plain decode dilutes them onto the even banks, the strided
        # decode spreads them over all num_banks banks.
        addrs = [2 * i * dram.access_bytes for i in range(dram.num_banks)]
        assert len({plain.bank_of(a) for a in addrs}) == dram.num_banks // 2
        assert len({strided.bank_of(a) for a in addrs}) == dram.num_banks
        with pytest.raises(ValueError):
            DramChannel(store, dram, channel_stride=0)

    def test_multichannel_channels_use_the_stride(self):
        memory = MultiChannelMemory(BackingStore(1 << 16), num_channels=4)
        assert all(ch.channel_stride == 4 for ch in memory.channels)


class TestDifferentialVsCycleChannel:
    """The acceptance differential: timeline vs repro.mem.dram."""

    QUICK = ("pwtk", "hood", "G3_circuit")

    def _ratios(self, streams):
        dram = DramConfig()
        rows = []
        for name, blocks in streams.items():
            blocks = np.asarray(blocks, dtype=np.int64)
            sim_cycles = drive_channel(blocks, dram)
            timeline = service_timeline(blocks, dram).cycles
            rows.append((name, timeline / sim_cycles))
        return rows

    def test_suite_streams_within_tolerance(self):
        lo, hi = TIMELINE_TOLERANCE
        for name, timeline_ratio in self._ratios(suite_streams(self.QUICK)):
            assert lo <= timeline_ratio <= hi, (name, timeline_ratio)
            # Bus-bound regime: the timeline actually sits much closer.
            assert 0.90 <= timeline_ratio <= 1.05, (name, timeline_ratio)

    def test_adversarial_streams_within_tolerance(self):
        """The declared band holds on the bank/row stress set,
        including the reorderable two-row ping-pong that FR-FCFS
        serves as row hits."""
        lo, hi = TIMELINE_TOLERANCE
        rows = self._ratios(adversarial_streams(DramConfig()))
        for name, timeline_ratio in rows:
            assert lo <= timeline_ratio <= hi, (name, timeline_ratio)


@pytest.mark.slow
class TestDifferentialFullSuite:
    """Every suite matrix's streams through the differential (slow)."""

    def test_all_suite_matrices_within_tolerance(self):
        dram = DramConfig()
        lo, hi = TIMELINE_TOLERANCE
        for name, blocks in suite_streams(
            tuple(list_matrices()), nc_budget=2000
        ).items():
            blocks = np.asarray(blocks, dtype=np.int64)
            if blocks.size == 0:
                continue
            ratio = service_timeline(blocks, dram).cycles / drive_channel(
                blocks, dram
            )
            assert lo <= ratio <= hi, (name, ratio)
