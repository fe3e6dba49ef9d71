"""Sharded sweep executor acceptance gate.

A single-matrix cycle-model sweep — the shape of every fig4-style
ablation — is one group, and the executor splits a cycle-model group's
variants into ``ceil(workers / computed groups)`` shard tasks, so one
such group saturates the worker pool.  The gate: with
``REPRO_WORKERS=4``, a one-matrix window sweep through the
cycle-accurate adapter model must run **>= 2.5x** faster than the
serial executor, while producing byte-identical rows.

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
    """>= 2.5x wall-clock at REPRO_WORKERS=4, rows equal."""
    monkeypatch.setenv("REPRO_WORKERS", "4")
    points = grid_points(
        "adapter", (MATRIX,), VARIANTS, max_nnz=CYCLE_NNZ, model="cycle"
    )

    t0 = time.perf_counter()
    serial_rows = SweepExecutor(workers=1).run(points)
    serial_seconds = time.perf_counter() - t0

    def sharded():
        return SweepExecutor().run(points)  # workers from env

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

