"""Micro-benchmarks: the substrates' raw throughput.

These track the Python models' own performance (cycles simulated per
second, kernel throughput), so regressions in the simulator itself are
visible next to the paper-figure benchmarks.  One is a gate: the SELL-C
build must stay bit-exact against, and at least ``SELL_MIN_SPEEDUP``
times faster than, the per-row loop kept in
:mod:`repro.axipack.reference`.
"""

import time

import numpy as np
import pytest

from repro.axipack import fast_indirect_stream, run_indirect_stream
from repro.axipack.reference import sell_from_csr_reference
from repro.config import mlp_config, nocoalescer_config
from repro.mem.backing_store import BackingStore
from repro.mem.dram import DramChannel
from repro.mem.request import MemRequest
from repro.sim.clock import Simulator
from repro.sparse.suite import DEFAULT_MAX_NNZ, get_matrix, list_matrices
from repro.sparse.spmv import spmv_csr, spmv_sell

from _bench_util import record

#: required aggregate speedup of the SELL build over the per-row loop.
#: On a 2-core x86 VM the suite at 60k nnz gains about 20x; matrices
#: with few, long rows gain least (6.5x on hood at 120k nnz, 4x on pwtk
#: at 250k), so the gate sits well under the aggregate.
SELL_MIN_SPEEDUP = 5.0


def _banded(count):
    rng = np.random.default_rng(1)
    return np.clip(
        np.arange(count) // 4 + rng.integers(-20, 21, count), 0, count
    ).astype(np.uint32)


def test_bench_cycle_adapter_mlp64(benchmark):
    idx = _banded(4000)
    result = benchmark.pedantic(
        run_indirect_stream, args=(idx, mlp_config(64)), rounds=2, iterations=1
    )
    benchmark.extra_info["cycles"] = result.cycles
    assert result.count == 4000


def test_bench_cycle_adapter_mlpnc(benchmark):
    idx = _banded(2000)
    result = benchmark.pedantic(
        run_indirect_stream, args=(idx, nocoalescer_config()), rounds=2, iterations=1
    )
    benchmark.extra_info["cycles"] = result.cycles


def test_bench_fast_adapter_full_matrix(benchmark):
    matrix = get_matrix("pwtk", max_nnz=250_000)
    idx = matrix.to_sell(32).index_stream()
    result = benchmark(fast_indirect_stream, idx, mlp_config(256))
    benchmark.extra_info["indirect_bw_gbps"] = round(result.indirect_bw_gbps, 2)


def test_bench_dram_channel_stream(benchmark):
    def run():
        store = BackingStore(1 << 20)
        dram = DramChannel(store)
        sim = Simulator([dram])
        issued = 0
        while issued < 512:
            if dram.req.can_push():
                dram.req.push(MemRequest(addr=(issued * 64) % (1 << 20), nbytes=64))
                issued += 1
            sim.step()
        sim.run_until(lambda: not dram.busy, max_cycles=100_000)
        return sim.cycle

    cycles = benchmark.pedantic(run, rounds=2, iterations=1)
    assert cycles < 512 * 2 + 500


def test_bench_spmv_csr_kernel(benchmark):
    matrix = get_matrix("pwtk", max_nnz=250_000)
    x = np.random.default_rng(0).normal(size=matrix.ncols)
    y = benchmark(spmv_csr, matrix, x)
    assert y.shape == (matrix.nrows,)


def test_bench_spmv_sell_kernel(benchmark):
    matrix = get_matrix("pwtk", max_nnz=250_000).to_sell(32)
    x = np.random.default_rng(0).normal(size=matrix.ncols)
    y = benchmark(spmv_sell, matrix, x)
    assert y.shape == (matrix.nrows,)


def test_bench_sell_conversion(benchmark):
    """>= 5x over the per-row reference loop across the 20 suite
    matrices at full scale, equal to it array for array."""
    names = list_matrices()
    matrices = [get_matrix(name, DEFAULT_MAX_NNZ) for name in names]

    sells = benchmark.pedantic(
        lambda: [matrix.to_sell(32) for matrix in matrices], rounds=3, iterations=1
    )
    build_seconds = benchmark.stats.stats.min

    t0 = time.perf_counter()
    references = [sell_from_csr_reference(matrix, 32) for matrix in matrices]
    reference_seconds = time.perf_counter() - t0

    for sell, reference in zip(sells, references):
        for name in ("slice_ptr", "slice_widths", "col_idx", "val"):
            got, want = getattr(sell, name), getattr(reference, name)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        assert sell.true_nnz == reference.true_nnz

    speedup = reference_seconds / build_seconds
    record(
        benchmark,
        "sell_build_speedup",
        {
            "rows": [
                {"matrix": name, "nnz": sell.true_nnz, "padded_nnz": sell.padded_nnz}
                for name, sell in zip(names, sells)
            ],
            "summary": {
                "reference_s": round(reference_seconds, 3),
                "build_s": round(build_seconds, 4),
                "speedup": round(speedup, 1),
            },
        },
    )
    assert speedup >= SELL_MIN_SPEEDUP, (
        f"SELL build is only {speedup:.1f}x faster than the per-row loop "
        f"(gate {SELL_MIN_SPEEDUP}x)"
    )
