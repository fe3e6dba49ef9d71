"""Sharded sweep executor acceptance gate.

The PR that introduced backend sharding claims a single-matrix sweep —
the shape of every fig4-style ablation, previously a single serial
pool task — now saturates the worker pool.  The gate: with
``REPRO_WORKERS=4`` and ``--shards auto``, a one-matrix window sweep
through the cycle-accurate adapter model must run **>= 2.5x** faster
than the serial executor, while producing byte-identical rows.

A second, gate-free case records the fast-model stream-sharding path
(window-aligned chunk extraction + exact carry merge) so its overhead
stays visible in the benchmark history.

Skipped when the host has fewer than 4 cores — a parallel speedup
cannot be demonstrated without parallel hardware.
"""

import os
import time

import pytest

from repro.engine import SweepExecutor, grid_points

from _bench_util import record

CORES = os.cpu_count() or 1

#: fig4-style single-matrix window ablation: one matrix group, eight
#: window variants — exactly the sweep shape that could not scale
#: before intra-matrix sharding.
MATRIX = "msc01440"
VARIANTS = tuple(f"MLP{w}" for w in (8, 16, 32, 64, 128, 256, 512, 1024))
CYCLE_NNZ = 12_000


@pytest.mark.skipif(CORES < 4, reason=f"needs >= 4 cores, have {CORES}")
def test_bench_sharded_single_matrix_speedup(benchmark, monkeypatch):
    """>= 2.5x wall-clock at REPRO_WORKERS=4 / shards auto, rows equal."""
    monkeypatch.setenv("REPRO_WORKERS", "4")
    points = grid_points(
        "adapter", (MATRIX,), VARIANTS, max_nnz=CYCLE_NNZ, model="cycle"
    )

    t0 = time.perf_counter()
    serial_rows = SweepExecutor(workers=1, shards=1).run(points)
    serial_seconds = time.perf_counter() - t0

    def sharded():
        return SweepExecutor(shards="auto").run(points)  # workers from env

    sharded_rows = benchmark.pedantic(sharded, rounds=3, iterations=1)
    sharded_seconds = benchmark.stats.stats.min
    assert sharded_rows == serial_rows  # sharding must not change a bit

    speedup = serial_seconds / sharded_seconds
    record(
        benchmark,
        "executor_sharded_speedup",
        {
            "rows": [
                {
                    "variant": row["variant"],
                    "cycles": row["cycles"],
                    "elem_txns": row["elem_txns"],
                }
                for row in serial_rows
            ],
            "summary": {
                "matrix": MATRIX,
                "model": "cycle",
                "workers": 4,
                "serial_s": round(serial_seconds, 3),
                "sharded_s": round(sharded_seconds, 3),
                "speedup": round(speedup, 2),
            },
        },
    )
    assert speedup >= 2.5, f"only {speedup:.2f}x over the serial executor"


def test_bench_stream_chunk_merge_overhead(benchmark):
    """Fast-model stream sharding: chunk extraction + exact carry merge
    must stay within 3x of the unsharded fast path (it re-sorts each
    chunk instead of reusing the whole-stream analysis) and match it
    byte-for-byte.  Runs serially so the overhead is isolated from pool
    scheduling.  Every timed run uses a fresh executor, whose row memo
    is empty, while the process ``AnalysisCache`` stays warm."""
    points = grid_points("adapter", ("af_shell10",), ("MLP256",), max_nnz=120_000)
    serial_rows = SweepExecutor(workers=1, shards=1).run(points)

    t0 = time.perf_counter()
    SweepExecutor(workers=1, shards=1).run(points)  # warm cache timing baseline
    serial_seconds = time.perf_counter() - t0

    chunk_tasks = []

    def chunked():
        executor = SweepExecutor(workers=1, shards=8)
        rows = executor.run(points)
        chunk_tasks.append(executor.last_stats["tasks"])
        return rows

    chunked_rows = benchmark.pedantic(chunked, rounds=3, iterations=1)
    chunked_seconds = benchmark.stats.stats.min
    assert chunked_rows == serial_rows
    assert chunk_tasks == [8] * 3, f"chunk tasks per run: {chunk_tasks}"

    overhead = chunked_seconds / max(serial_seconds, 1e-9)
    record(
        benchmark,
        "executor_chunk_overhead",
        {
            "rows": [{"shards": 8, "chunk_tasks": chunk_tasks[-1]}],
            "summary": {
                "serial_warm_s": round(serial_seconds, 4),
                "chunked_warm_s": round(chunked_seconds, 4),
                "overhead_x": round(overhead, 2),
            },
        },
    )
    assert overhead <= 3.0, f"chunked path {overhead:.2f}x slower than serial"
