"""Absolute cycle-model numbers for the gather, scatter and strided paths.

The differential suite (``test_sim_engines.py``) compares two engines
running the same component code, so a change that moves both engines
alike still passes it.  These pins fix the numbers themselves: cycles,
wide element and index transactions and the DRAM channel's counters,
on three seeded streams of 1.5k-3k indices (a permutation, heavy
duplicates and an FEM-like band) and two strided bursts.  They run on
the default engine, so the step-engine CI canary re-checks them on the
oracle.

A refactor of the cycle model must leave every pin as it is.  A change
that moves a number on purpose updates the pin in the same change and
says why.
"""

from __future__ import annotations

import numpy as np
import pytest

from helpers import banded_stream
from repro.axipack.adapter import run_indirect_stream
from repro.axipack.scatter import run_indirect_scatter
from repro.axipack.strided import StridedBurst, run_strided_stream
from repro.config import mlp_config, nocoalescer_config, seq_config

VARIANTS = {
    "MLPnc": nocoalescer_config(),
    "MLP8": mlp_config(8),
    "MLP64": mlp_config(64),
    "SEQ256": seq_config(256),
}


def _stream(name: str) -> np.ndarray:
    if name == "permutation":
        return np.random.default_rng(21).permutation(2048).astype(np.uint32)
    if name == "duplicates":
        return np.random.default_rng(22).integers(0, 96, 1536).astype(np.uint32)
    return banded_stream(3000, seed=23)


def _measure(case: str):
    path, source, variant = case.split("/")
    config = VARIANTS[variant]
    if path == "gather":
        metrics = run_indirect_stream(_stream(source), config)
    elif path == "scatter":
        idx = _stream(source)
        values = np.random.default_rng(24).standard_normal(idx.size)
        metrics = run_indirect_scatter(idx, values, config)
    else:
        burst = StridedBurst(base=0, count=1500, stride_bytes=int(source[1:]))
        metrics = run_strided_stream(burst, config)
    return metrics.cycles, metrics.elem_txns, metrics.idx_txns, metrics.dram_stats


#: ``path/stream/variant`` -> (cycles, elem_txns, idx_txns, dram_stats).
PINS = {
    "gather/permutation/MLPnc": (
        4978, 2048, 128,
        {
            "row_misses": 132, "transactions": 2176, "read_txns": 2176, "bytes": 139264,
            "row_conflicts": 520, "idle_closes": 107, "refreshes": 1,
        },
    ),
    "gather/permutation/MLP8": (
        4873, 2010, 128,
        {
            "row_misses": 126, "transactions": 2138, "read_txns": 2138, "bytes": 136832,
            "row_conflicts": 512, "idle_closes": 98, "refreshes": 1,
        },
    ),
    "gather/permutation/MLP64": (
        4537, 1829, 128,
        {
            "row_misses": 120, "transactions": 1957, "read_txns": 1957, "bytes": 125248,
            "row_conflicts": 469, "idle_closes": 96, "refreshes": 1,
        },
    ),
    "gather/permutation/SEQ256": (
        3569, 1346, 128,
        {
            "row_misses": 81, "transactions": 1474, "read_txns": 1474, "bytes": 94336,
            "row_conflicts": 343, "idle_closes": 80,
        },
    ),
    "gather/duplicates/MLPnc": (
        3300, 1536, 96,
        {
            "row_misses": 56, "transactions": 1632, "read_txns": 1632, "bytes": 104448,
            "idle_closes": 45,
        },
    ),
    "gather/duplicates/MLP8": (
        2373, 1072, 96,
        {
            "row_misses": 28, "transactions": 1168, "read_txns": 1168, "bytes": 74752,
            "idle_closes": 17,
        },
    ),
    "gather/duplicates/MLP64": (
        761, 264, 96,
        {
            "row_misses": 16, "transactions": 360, "read_txns": 360, "bytes": 23040,
            "idle_closes": 4,
        },
    ),
    "gather/duplicates/SEQ256": (
        2163, 67, 96,
        {
            "row_misses": 83, "transactions": 163, "read_txns": 163, "bytes": 10432,
            "idle_closes": 82,
        },
    ),
    "gather/banded/MLPnc": (
        6776, 3000, 188,
        {
            "row_misses": 140, "transactions": 3188, "read_txns": 3188, "bytes": 204032,
            "idle_closes": 128, "refreshes": 1,
        },
    ),
    "gather/banded/MLP8": (
        3125, 1356, 188,
        {
            "row_misses": 112, "transactions": 1544, "read_txns": 1544, "bytes": 98816,
            "idle_closes": 106,
        },
    ),
    "gather/banded/MLP64": (
        1076, 286, 188,
        {
            "row_misses": 19, "transactions": 474, "read_txns": 474, "bytes": 30336,
            "row_conflicts": 16, "idle_closes": 18,
        },
    ),
    "gather/banded/SEQ256": (
        4289, 142, 188,
        {
            "row_misses": 165, "transactions": 330, "read_txns": 330, "bytes": 21120,
            "idle_closes": 164, "refreshes": 1,
        },
    ),
    "scatter/permutation/MLP8": (
        4853, 2010, 128,
        {
            "row_misses": 126, "transactions": 2138, "read_txns": 128, "bytes": 136832,
            "write_txns": 2010, "row_conflicts": 512, "idle_closes": 96, "refreshes": 1,
        },
    ),
    "scatter/permutation/MLP64": (
        4535, 1829, 128,
        {
            "row_misses": 120, "transactions": 1957, "read_txns": 128, "bytes": 125248,
            "write_txns": 1829, "row_conflicts": 469, "idle_closes": 95, "refreshes": 1,
        },
    ),
    "scatter/permutation/SEQ256": (
        3567, 1346, 128,
        {
            "row_misses": 81, "transactions": 1474, "read_txns": 128, "bytes": 94336,
            "write_txns": 1346, "row_conflicts": 343, "idle_closes": 80,
        },
    ),
    "scatter/duplicates/MLP8": (
        2371, 1072, 96,
        {
            "row_misses": 28, "transactions": 1168, "read_txns": 96, "bytes": 74752,
            "write_txns": 1072, "idle_closes": 17,
        },
    ),
    "scatter/duplicates/MLP64": (
        755, 264, 96,
        {
            "row_misses": 16, "transactions": 360, "read_txns": 96, "bytes": 23040,
            "write_txns": 264, "idle_closes": 4,
        },
    ),
    "scatter/duplicates/SEQ256": (
        2133, 67, 96,
        {
            "row_misses": 83, "transactions": 163, "read_txns": 96, "bytes": 10432,
            "idle_closes": 82, "write_txns": 67,
        },
    ),
    "scatter/banded/MLP8": (
        3123, 1356, 188,
        {
            "row_misses": 112, "transactions": 1544, "read_txns": 188, "bytes": 98816,
            "write_txns": 1356, "idle_closes": 105,
        },
    ),
    "scatter/banded/MLP64": (
        1070, 286, 188,
        {
            "row_misses": 19, "transactions": 474, "read_txns": 188, "bytes": 30336,
            "write_txns": 286, "row_conflicts": 16, "idle_closes": 18,
        },
    ),
    "scatter/banded/SEQ256": (
        4283, 142, 188,
        {
            "row_misses": 165, "transactions": 330, "read_txns": 188, "bytes": 21120,
            "write_txns": 142, "idle_closes": 164, "refreshes": 1,
        },
    ),
    "strided/s8/MLP64": (
        514, 188, 0,
        {
            "row_misses": 17, "transactions": 188, "read_txns": 188, "bytes": 12032,
            "idle_closes": 16,
        },
    ),
    "strided/s8/SEQ256": (
        1288, 188, 0,
        {
            "row_misses": 33, "transactions": 188, "read_txns": 188, "bytes": 12032,
            "idle_closes": 32,
        },
    ),
    "strided/s72/MLP64": (
        3135, 1500, 0,
        {
            "row_misses": 17, "transactions": 1500, "read_txns": 1500, "bytes": 96000,
            "row_conflicts": 96, "idle_closes": 16,
        },
    ),
    "strided/s72/SEQ256": (
        3774, 1500, 0,
        {
            "row_misses": 33, "transactions": 1500, "read_txns": 1500, "bytes": 96000,
            "row_conflicts": 96, "idle_closes": 32,
        },
    ),
}


@pytest.mark.parametrize("case", sorted(PINS))
def test_cycle_model_numbers_are_pinned(case):
    assert _measure(case) == PINS[case]

