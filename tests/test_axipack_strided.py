"""Strided AXI-Pack bursts through the coalescer."""

import numpy as np
import pytest

from repro.axipack import strided
from repro.axipack.packer import ElementPacker
from repro.axipack.strided import (
    StridedBurst,
    fast_strided_stream,
    run_strided_stream,
)
from repro.config import mlp_config, nocoalescer_config, seq_config
from repro.engine import SweepExecutor, grid_points
from repro.errors import ReproError, SimulationError


class TestBurstDescriptor:
    def test_addressing(self):
        burst = StridedBurst(base=128, count=4, stride_bytes=16)
        assert [burst.address_of(j) for j in range(4)] == [128, 144, 160, 176]

    def test_validation(self):
        with pytest.raises(ValueError):
            StridedBurst(base=0, count=0, stride_bytes=8)
        with pytest.raises(ValueError):
            StridedBurst(base=0, count=4, stride_bytes=4)  # < element

    def test_addresses_past_int64_rejected(self):
        # 999 * 2**62 wraps in int64, and the wrapped addresses would
        # count 13 wide accesses for 1,000 elements in 1,000 blocks.
        with pytest.raises(ReproError, match="int64"):
            StridedBurst(base=0, count=1000, stride_bytes=2**62)
        with pytest.raises(ReproError, match="int64"):
            StridedBurst(base=0, count=1, stride_bytes=2**63)
        burst = StridedBurst(base=0, count=2, stride_bytes=2**62)  # fits
        assert fast_strided_stream(burst, mlp_config(64)).elem_txns == 2

    def test_overflowing_sweep_is_an_error_not_a_row(self):
        points = grid_points("strided", ("linear",), (f"s{2**62}",), max_nnz=1000)
        with pytest.raises(ReproError, match="int64"):
            SweepExecutor(workers=1).run(points)


class TestCycleModel:
    def test_unit_stride_coalesces_to_one_block_per_8(self):
        burst = StridedBurst(base=0, count=1024, stride_bytes=8)
        metrics = run_strided_stream(burst, mlp_config(64))
        assert metrics.elem_txns == 1024 // 8

    def test_block_stride_cannot_coalesce(self):
        burst = StridedBurst(base=0, count=512, stride_bytes=64)
        metrics = run_strided_stream(burst, mlp_config(64))
        assert metrics.elem_txns == 512

    def test_intermediate_stride(self):
        burst = StridedBurst(base=0, count=512, stride_bytes=16)
        metrics = run_strided_stream(burst, mlp_config(64))
        assert metrics.elem_txns == 512 // 4

    def test_no_coalescer_direct_path(self):
        burst = StridedBurst(base=0, count=300, stride_bytes=8)
        metrics = run_strided_stream(burst, nocoalescer_config())
        assert metrics.elem_txns == 300

    def test_sequential_variant(self):
        burst = StridedBurst(base=0, count=400, stride_bytes=8)
        seq = run_strided_stream(burst, seq_config(64))
        par = run_strided_stream(burst, mlp_config(64))
        assert seq.elem_txns == par.elem_txns
        assert seq.cycles >= par.cycles

    def test_no_index_traffic(self):
        burst = StridedBurst(base=0, count=256, stride_bytes=8)
        metrics = run_strided_stream(burst, mlp_config(64))
        assert metrics.idx_txns == 0
        assert metrics.idx_fetch_bytes == 0

    def test_unaligned_base(self):
        burst = StridedBurst(base=24, count=200, stride_bytes=8)
        metrics = run_strided_stream(burst, mlp_config(16))
        assert metrics.count == 200

    @pytest.mark.parametrize("base,stride", [(0, 12), (4, 24), (0, 4100)])
    def test_unaligned_addresses_verify(self, base, stride):
        """An element at an address that is not a multiple of 8 B is
        the backing word it falls in; verify=True checks every burst."""
        burst = StridedBurst(base=base, count=200, stride_bytes=stride)
        assert run_strided_stream(burst, nocoalescer_config()).count == 200
        assert run_strided_stream(burst, mlp_config(64)).count == 200

    def test_verify_catches_a_corrupted_element(self, monkeypatch):
        class CorruptingPacker(ElementPacker):
            def tick(self):
                before = len(self.output)
                super().tick()
                if before <= 7 < len(self.output):
                    self.output[7] += 1.0

        monkeypatch.setattr(strided, "ElementPacker", CorruptingPacker)
        burst = StridedBurst(base=0, count=64, stride_bytes=12)
        with pytest.raises(SimulationError, match="strided output mismatch"):
            run_strided_stream(burst, mlp_config(64))


class TestFastModelAgreement:
    @pytest.mark.parametrize("stride", [8, 16, 32, 64])
    def test_txn_counts_match(self, stride):
        burst = StridedBurst(base=0, count=1000, stride_bytes=stride)
        cycle = run_strided_stream(burst, mlp_config(64))
        fast = fast_strided_stream(burst, mlp_config(64))
        assert abs(cycle.elem_txns - fast.elem_txns) <= 2

    def test_cycles_within_band(self):
        burst = StridedBurst(base=0, count=2000, stride_bytes=16)
        cycle = run_strided_stream(burst, mlp_config(64))
        fast = fast_strided_stream(burst, mlp_config(64))
        assert 0.6 <= cycle.cycles / fast.cycles <= 1.7

    def test_bandwidth_inverse_in_stride(self):
        bws = []
        for stride in (8, 16, 32, 64):
            burst = StridedBurst(base=0, count=2000, stride_bytes=stride)
            bws.append(fast_strided_stream(burst, mlp_config(64)).indirect_bw_gbps)
        assert bws == sorted(bws, reverse=True)
