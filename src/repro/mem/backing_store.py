"""Byte-addressable backing store behind the memory models.

A :class:`BackingStore` is a flat numpy byte buffer plus a bump
allocator.  Both memory models serve reads and writes from it, so the
functional output of a simulation is the data that actually moved
through the modelled channel.
"""

from __future__ import annotations

import numpy as np

from ..errors import MemoryModelError


class BackingStore:
    """Flat little-endian memory image with a bump allocator."""

    def __init__(self, size: int = 1 << 26) -> None:
        if size <= 0:
            raise MemoryModelError("backing store size must be positive")
        self.size = size
        self.data = np.zeros(size, dtype=np.uint8)
        self._next_free = 0

    # -- allocation ------------------------------------------------------

    def alloc(self, nbytes: int, align: int = 64) -> int:
        """Reserve ``nbytes`` and return the base address."""
        if nbytes < 0:
            raise MemoryModelError("negative allocation")
        base = -(-self._next_free // align) * align
        if base + nbytes > self.size:
            raise MemoryModelError(
                f"backing store exhausted: need {nbytes} bytes at {base}, "
                f"capacity {self.size}"
            )
        self._next_free = base + nbytes
        return base

    def alloc_array(self, array: np.ndarray, align: int = 64) -> int:
        """Allocate space for ``array``, copy it in, return the base."""
        flat = np.ascontiguousarray(array).view(np.uint8).reshape(-1)
        base = self.alloc(flat.nbytes, align)
        self.data[base : base + flat.nbytes] = flat
        return base

    @property
    def bytes_allocated(self) -> int:
        return self._next_free

    # -- raw access ------------------------------------------------------

    def _check_range(self, addr: int, nbytes: int) -> None:
        if addr < 0 or addr + nbytes > self.size:
            raise MemoryModelError(
                f"access [{addr}, {addr + nbytes}) outside store of {self.size} bytes"
            )

    def read_block(self, addr: int, nbytes: int) -> np.ndarray:
        """Copy out ``nbytes`` starting at ``addr``."""
        self._check_range(addr, nbytes)
        return self.data[addr : addr + nbytes].copy()

    def write_block(
        self, addr: int, block: np.ndarray, mask: np.ndarray | None = None
    ) -> None:
        """Copy a byte array into the store at ``addr``.

        ``mask`` (one bool per byte) models AXI write strobes: only
        asserted bytes are committed.
        """
        flat = np.ascontiguousarray(block).view(np.uint8).reshape(-1)
        self._check_range(addr, flat.nbytes)
        if mask is None:
            self.data[addr : addr + flat.nbytes] = flat
            return
        mask = np.asarray(mask, dtype=bool).reshape(-1)
        if mask.shape != flat.shape:
            raise MemoryModelError("write mask length must match data length")
        region = self.data[addr : addr + flat.nbytes]
        region[mask] = flat[mask]

    # -- typed views -------------------------------------------------------

    def read_typed(self, addr: int, count: int, dtype: np.dtype | str) -> np.ndarray:
        """Copy out ``count`` elements of ``dtype`` starting at ``addr``."""
        dtype = np.dtype(dtype)
        raw = self.read_block(addr, count * dtype.itemsize)
        return raw.view(dtype)

    def write_typed(self, addr: int, values: np.ndarray) -> None:
        """Alias of :meth:`write_block` for typed arrays."""
        self.write_block(addr, values)

    def scatter_typed(self, addrs: np.ndarray, values: np.ndarray) -> None:
        """Write ``values[i]`` (one typed element) at byte address
        ``addrs[i]`` for every ``i``; every other byte keeps its
        value."""
        raw = np.ascontiguousarray(values).view(np.uint8).reshape(len(addrs), -1)
        addrs = np.asarray(addrs, dtype=np.int64)
        if addrs.size:
            self._check_range(int(addrs.min()), 0)
            self._check_range(int(addrs.max()), raw.shape[1])
        self.data[addrs[:, None] + np.arange(raw.shape[1])] = raw
