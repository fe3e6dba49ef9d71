"""Bank-state timeline runtime gates.

The timeline (:func:`repro.mem.timeline.service_timeline`) prices DRAM
in every fast-model hot path, so its cost rides on every sweep cell.
Two gates guard its vectorization: the replay must beat the walking
oracle (:func:`repro.axipack.reference.service_timeline_reference`,
one Python loop iteration per transaction) by at least
``MIN_SPEEDUP`` while staying bit-exact against it, and its
per-transaction cost must not grow with the stream (linearithmic
scaling).  Since the replay keys on bit fields and dropped its binary
searches and segmented reductions it runs about 13–17x faster than
the oracle on a 2-core x86 VM (8–12x before), so falling under 5x
signals an accidental de-vectorization.
"""

import time

import numpy as np

from repro.axipack.reference import service_timeline_reference
from repro.config import DramConfig
from repro.mem.timeline import service_timeline

from _bench_util import record

#: transaction-stream size for the runtime gate (full-scale sweeps see
#: streams of this order per matrix).
STREAM_SIZE = 500_000
#: slice replayed through the pure-Python oracle (it is O(n) but slow).
ORACLE_SLICE = 40_000
#: required speedup of the vectorized replay over the walking oracle.
MIN_SPEEDUP = 5.0


def _mixed_stream(size: int) -> np.ndarray:
    """Realistic mixture: mostly local runs with scattered excursions,
    the block-id shape coalesced suite streams produce."""
    rng = np.random.default_rng(42)
    local = np.cumsum(rng.integers(-2, 3, size)) + (1 << 16)
    scattered = rng.integers(0, 1 << 22, size)
    take_scattered = rng.random(size) < 0.2
    return np.where(take_scattered, scattered, local).astype(np.int64)


def test_bench_timeline_vs_walking_oracle(benchmark):
    """>= 5x faster than the walking oracle; bit-exact against it."""
    dram = DramConfig()
    blocks = _mixed_stream(STREAM_SIZE)

    benchmark.pedantic(
        lambda: service_timeline(blocks, dram), rounds=3, iterations=1
    )
    timeline_seconds = benchmark.stats.stats.min

    oracle_runs = []
    for _ in range(3):
        t0 = time.perf_counter()
        oracle = service_timeline_reference(blocks[:ORACLE_SLICE], dram)
        oracle_runs.append(time.perf_counter() - t0)
    oracle_seconds = min(oracle_runs) * (STREAM_SIZE / ORACLE_SLICE)

    sliced = service_timeline(blocks[:ORACLE_SLICE], dram)
    assert sliced.cycles == oracle.cycles
    assert sliced.stats == oracle.stats
    assert np.array_equal(sliced.bank_busy, oracle.bank_busy)

    speedup = oracle_seconds / timeline_seconds
    record(
        benchmark,
        "timeline_runtime",
        {
            "rows": [
                {
                    "stream_size": STREAM_SIZE,
                    "timeline_s": round(timeline_seconds, 4),
                    "oracle_s_scaled": round(oracle_seconds, 3),
                }
            ],
            "summary": {"speedup_vs_oracle": round(speedup, 1)},
        },
    )
    assert speedup >= MIN_SPEEDUP, (
        f"timeline is only {speedup:.1f}x faster than the walking oracle "
        f"(gate {MIN_SPEEDUP}x)"
    )


def test_bench_timeline_scales_linearithmically(benchmark):
    """Doubling the stream must not blow the per-transaction cost up
    (guards against accidental quadratic group handling)."""
    dram = DramConfig()
    small = _mixed_stream(STREAM_SIZE // 4)
    large = _mixed_stream(STREAM_SIZE)

    benchmark.pedantic(lambda: service_timeline(large, dram), rounds=2, iterations=1)
    large_seconds = benchmark.stats.stats.min
    t0 = time.perf_counter()
    for _ in range(2):
        service_timeline(small, dram)
    small_seconds = (time.perf_counter() - t0) / 2

    per_txn_ratio = (large_seconds / len(large)) / (small_seconds / len(small))
    benchmark.extra_info["per_txn_ratio_4x"] = round(per_txn_ratio, 2)
    assert per_txn_ratio <= 2.5
