"""Absolute cycle- and fast-model numbers for the gather, scatter and
strided paths.

The differential suite (``test_sim_engines.py``) compares two engines
running the same component code, so a change that moves both engines
alike still passes it, and the cross-validation suite holds the fast
model only to a band around the cycle model.  These pins fix the
numbers themselves: cycles, wide element and index transactions and
the DRAM counters, on three seeded streams of 1.5k-3k indices (a
permutation, heavy duplicates and an FEM-like band) and strided bursts
of 1,500 elements.  The cycle-model pins run on the default engine, so
the step-engine CI canary re-checks them on the oracle.  The
``fast-*`` pins fix the fast model's gather and strided timing
(:func:`repro.axipack.fastmodel.price_block_stream`); the fast scatter
prices as the fast gather does, so it has no pins of its own.

A refactor of either model must leave every pin as it is.  A change
that moves a number on purpose updates the pin in the same change and
says why.
"""

from __future__ import annotations

import numpy as np
import pytest

from helpers import banded_stream
from repro.axipack.adapter import run_indirect_stream
from repro.axipack.fastmodel import fast_indirect_stream
from repro.axipack.scatter import run_indirect_scatter
from repro.axipack.strided import (
    StridedBurst,
    fast_strided_stream,
    run_strided_stream,
)
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
    if path.endswith("gather"):
        run = fast_indirect_stream if path == "fast-gather" else run_indirect_stream
        metrics = run(_stream(source), config)
    elif path == "scatter":
        idx = _stream(source)
        values = np.random.default_rng(24).standard_normal(idx.size)
        metrics = run_indirect_scatter(idx, values, config)
    else:
        burst = StridedBurst(base=0, count=1500, stride_bytes=int(source[1:]))
        run = fast_strided_stream if path == "fast-strided" else run_strided_stream
        metrics = run(burst, config)
    return metrics.cycles, metrics.elem_txns, metrics.idx_txns, metrics.dram_stats


#: ``path/stream/variant`` -> (cycles, elem_txns, idx_txns, dram_stats);
#: a ``fast-`` path is the fast model, whose DRAM counters are the
#: bank-state timeline's.
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
    "fast-gather/permutation/MLPnc": (
        4766, 2048, 128,
        {
            "activates": 173, "row_hits": 2003, "row_conflicts": 157,
            "cold_activates": 16, "refreshes": 1, "queue_windows": 34,
        },
    ),
    "fast-gather/permutation/MLP8": (
        4706, 2010, 128,
        {
            "activates": 171, "row_hits": 1967, "row_conflicts": 155,
            "cold_activates": 16, "refreshes": 1, "queue_windows": 34,
        },
    ),
    "fast-gather/permutation/MLP64": (
        4456, 1829, 128,
        {
            "activates": 173, "row_hits": 1784, "row_conflicts": 157,
            "cold_activates": 16, "refreshes": 1, "queue_windows": 31,
        },
    ),
    "fast-gather/permutation/SEQ256": (
        3565, 1346, 128,
        {
            "activates": 178, "row_hits": 1296, "row_conflicts": 162,
            "cold_activates": 16, "refreshes": 0, "queue_windows": 24,
        },
    ),
    "fast-gather/duplicates/MLPnc": (
        3328, 1536, 96,
        {
            "activates": 99, "row_hits": 1533, "row_conflicts": 83,
            "cold_activates": 16, "refreshes": 0, "queue_windows": 26,
        },
    ),
    "fast-gather/duplicates/MLP8": (
        2416, 1072, 96,
        {
            "activates": 97, "row_hits": 1071, "row_conflicts": 81,
            "cold_activates": 16, "refreshes": 0, "queue_windows": 19,
        },
    ),
    "fast-gather/duplicates/MLP64": (
        912, 264, 96,
        {
            "activates": 85, "row_hits": 275, "row_conflicts": 69, "cold_activates": 16,
            "refreshes": 0, "queue_windows": 6,
        },
    ),
    "fast-gather/duplicates/SEQ256": (
        2112, 67, 96,
        {
            "activates": 52, "row_hits": 111, "row_conflicts": 36, "cold_activates": 16,
            "refreshes": 0, "queue_windows": 3,
        },
    ),
    "fast-gather/banded/MLPnc": (
        6790, 3000, 188,
        {
            "activates": 250, "row_hits": 2938, "row_conflicts": 234,
            "cold_activates": 16, "refreshes": 1, "queue_windows": 50,
        },
    ),
    "fast-gather/banded/MLP8": (
        3197, 1356, 188,
        {
            "activates": 239, "row_hits": 1305, "row_conflicts": 223,
            "cold_activates": 16, "refreshes": 0, "queue_windows": 25,
        },
    ),
    "fast-gather/banded/MLP64": (
        1266, 285, 188,
        {
            "activates": 140, "row_hits": 333, "row_conflicts": 124,
            "cold_activates": 16, "refreshes": 0, "queue_windows": 8,
        },
    ),
    "fast-gather/banded/SEQ256": (
        4088, 141, 188,
        {
            "activates": 105, "row_hits": 224, "row_conflicts": 89,
            "cold_activates": 16, "refreshes": 0, "queue_windows": 6,
        },
    ),
    "fast-strided/s8/MLPnc": (
        3064, 1500, 0,
        {
            "activates": 16, "row_hits": 1484, "row_conflicts": 0, "cold_activates": 16,
            "refreshes": 0, "queue_windows": 24,
        },
    ),
    "fast-strided/s8/MLP64": (
        696, 188, 0,
        {
            "activates": 16, "row_hits": 172, "row_conflicts": 0, "cold_activates": 16,
            "refreshes": 0, "queue_windows": 3,
        },
    ),
    "fast-strided/s8/SEQ256": (
        2588, 188, 0,
        {
            "activates": 16, "row_hits": 172, "row_conflicts": 0, "cold_activates": 16,
            "refreshes": 0, "queue_windows": 3,
        },
    ),
    "fast-strided/s72/MLPnc": (
        3064, 1500, 0,
        {
            "activates": 112, "row_hits": 1388, "row_conflicts": 96,
            "cold_activates": 16, "refreshes": 0, "queue_windows": 24,
        },
    ),
    "fast-strided/s72/MLP64": (
        3320, 1500, 0,
        {
            "activates": 112, "row_hits": 1388, "row_conflicts": 96,
            "cold_activates": 16, "refreshes": 0, "queue_windows": 24,
        },
    ),
    "fast-strided/s72/SEQ256": (
        4088, 1500, 0,
        {
            "activates": 112, "row_hits": 1388, "row_conflicts": 96,
            "cold_activates": 16, "refreshes": 0, "queue_windows": 24,
        },
    ),
    "fast-strided/s4096/MLPnc": (
        18339, 1500, 0,
        {
            "activates": 375, "row_hits": 1125, "row_conflicts": 374,
            "cold_activates": 1, "refreshes": 4, "queue_windows": 24,
        },
    ),
    "fast-strided/s4096/MLP64": (
        18595, 1500, 0,
        {
            "activates": 375, "row_hits": 1125, "row_conflicts": 374,
            "cold_activates": 1, "refreshes": 4, "queue_windows": 24,
        },
    ),
    "fast-strided/s4096/SEQ256": (
        19363, 1500, 0,
        {
            "activates": 375, "row_hits": 1125, "row_conflicts": 374,
            "cold_activates": 1, "refreshes": 4, "queue_windows": 24,
        },
    ),
}


@pytest.mark.parametrize("case", sorted(PINS))
def test_cycle_model_numbers_are_pinned(case):
    assert _measure(case) == PINS[case]

