"""Coordinate-format builder for sparse matrices."""

from __future__ import annotations

import numpy as np

from ..errors import SparseFormatError


class CooMatrix:
    """A coordinate-format matrix used as a construction intermediate.

    Duplicate entries are summed on conversion to CSR, matching the
    conventional MatrixMarket/scipy semantics.
    """

    def __init__(
        self,
        nrows: int,
        ncols: int,
        rows: np.ndarray | list[int] | None = None,
        cols: np.ndarray | list[int] | None = None,
        vals: np.ndarray | list[float] | None = None,
    ) -> None:
        if nrows <= 0 or ncols <= 0:
            raise SparseFormatError("matrix dimensions must be positive")
        self.nrows = nrows
        self.ncols = ncols
        self.rows = np.asarray(rows if rows is not None else [], dtype=np.int64)
        self.cols = np.asarray(cols if cols is not None else [], dtype=np.int64)
        self.vals = np.asarray(vals if vals is not None else [], dtype=np.float64)
        if not (len(self.rows) == len(self.cols) == len(self.vals)):
            raise SparseFormatError("rows, cols and vals must have equal length")
        self._validate_bounds()

    def _validate_bounds(self) -> None:
        if len(self.rows) == 0:
            return
        if self.rows.min() < 0 or self.rows.max() >= self.nrows:
            raise SparseFormatError("row index out of range")
        if self.cols.min() < 0 or self.cols.max() >= self.ncols:
            raise SparseFormatError("column index out of range")

    @property
    def nnz(self) -> int:
        """Stored entry count (before duplicate summing)."""
        return len(self.vals)

    def to_csr(self) -> "CsrMatrix":
        """Convert to CSR, summing duplicate coordinates."""
        from .csr import CsrMatrix

        if self.nnz == 0:
            row_ptr = np.zeros(self.nrows + 1, dtype=np.int64)
            return CsrMatrix(
                self.nrows,
                self.ncols,
                row_ptr,
                np.empty(0, dtype=np.uint32),
                np.empty(0, dtype=np.float64),
            )

        keys = self.rows * self.ncols + self.cols
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        vals = self.vals[order]

        # The keys are sorted: each run of equal keys starts where a key
        # differs from its left neighbour.
        starts = np.empty(keys.size, dtype=bool)
        starts[0] = True
        np.not_equal(keys[1:], keys[:-1], out=starts[1:])
        first_pos = np.flatnonzero(starts)
        unique_keys = keys[first_pos]
        summed = np.add.reduceat(vals, first_pos)
        rows = unique_keys // self.ncols
        cols = (unique_keys - rows * self.ncols).astype(np.uint32)

        row_counts = np.bincount(rows, minlength=self.nrows)
        row_ptr = np.zeros(self.nrows + 1, dtype=np.int64)
        np.cumsum(row_counts, out=row_ptr[1:])
        return CsrMatrix(self.nrows, self.ncols, row_ptr, cols, summed)

    def to_dense(self) -> np.ndarray:
        """Dense ndarray (small matrices / tests only)."""
        dense = np.zeros((self.nrows, self.ncols))
        np.add.at(dense, (self.rows, self.cols), self.vals)
        return dense
