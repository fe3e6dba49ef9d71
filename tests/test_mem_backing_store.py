"""Backing store: allocation, typed access, bounds, residency."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.errors import MemoryModelError
from repro.mem.backing_store import BackingStore

SRC = Path(__file__).resolve().parents[1] / "src"


def test_alloc_is_aligned():
    store = BackingStore(4096)
    a = store.alloc(10, align=64)
    b = store.alloc(10, align=64)
    assert a % 64 == 0
    assert b % 64 == 0
    assert b >= a + 10


def test_alloc_array_roundtrip():
    store = BackingStore(4096)
    values = np.arange(10, dtype=np.float64)
    base = store.alloc_array(values)
    assert np.array_equal(store.read_typed(base, 10, np.float64), values)


def test_read_block_is_a_copy():
    store = BackingStore(256)
    base = store.alloc_array(np.array([1, 2, 3, 4], dtype=np.uint8))
    block = store.read_block(base, 4)
    block[0] = 99
    assert store.read_block(base, 1)[0] == 1


def test_write_block_typed_views():
    store = BackingStore(256)
    base = store.alloc(64)
    store.write_typed(base, np.array([3.5, -1.25], dtype=np.float64))
    got = store.read_typed(base, 2, np.float64)
    assert got.tolist() == [3.5, -1.25]


def test_uint32_indices_layout():
    """Indices are stored little-endian 32 b as the paper specifies."""
    store = BackingStore(256)
    idx = np.array([1, 2, 0xDEADBEEF], dtype=np.uint32)
    base = store.alloc_array(idx)
    raw = store.read_block(base, 12)
    assert raw.view("<u4").tolist() == idx.tolist()


def test_out_of_range_read_rejected():
    store = BackingStore(128)
    with pytest.raises(MemoryModelError):
        store.read_block(120, 16)


def test_negative_access_rejected():
    store = BackingStore(128)
    with pytest.raises(MemoryModelError):
        store.read_block(-1, 4)


def test_exhaustion_raises():
    store = BackingStore(128)
    with pytest.raises(MemoryModelError):
        store.alloc(256)


def test_bytes_allocated_tracks_high_water():
    store = BackingStore(1024)
    store.alloc(100, align=64)
    assert store.bytes_allocated == 100


def test_invalid_size_rejected():
    with pytest.raises(MemoryModelError):
        BackingStore(0)


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss counts KiB on Linux")
def test_untouched_pages_stay_unresident():
    """A sparse write pattern over a large store makes only the pages
    it touches resident: a 512 MB store written one word every 64 KB
    must grow the peak RSS by far less than its size."""
    script = """
import resource
import numpy as np
from repro.mem.backing_store import BackingStore

size = 512 << 20
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
store = BackingStore(size)
store.scatter_typed(np.arange(0, size, 64 << 10), np.ones(size // (64 << 10)))
print((resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before) // 1024)
"""
    out = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert int(out.stdout) < 128  # MB of growth
