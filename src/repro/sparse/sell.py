"""Sliced ELLPACK (SELL) format, 32 rows per slice (paper Sec. III).

Rows are grouped into chunks of ``C`` (32) consecutive rows; each slice
is stored dense at the width of its longest row, column-of-slice major:
for slice ``s`` and slice-column ``c`` the ``C`` entries for rows
``s*C .. s*C+C-1`` are contiguous.  That storage order is exactly the
order the vector unit consumes entries and therefore the order of the
adapter's indirect index stream.

Padding entries repeat the row's last valid column index with a zero
value, so padded SpMV is exact and padded indirect accesses stay local
(they re-touch a block the row already touched, as a hardware
implementation would do to avoid polluting the stream with address 0).
Rows that are entirely empty pad with column 0.
"""

from __future__ import annotations

import numpy as np

from ..errors import SparseFormatError
from .csr import CsrMatrix


class SellMatrix:
    """SELL-C (sigma = 1, i.e. no row sorting) matrix."""

    INDEX_DTYPE = np.uint32
    VALUE_DTYPE = np.float64

    def __init__(
        self,
        nrows: int,
        ncols: int,
        chunk: int,
        slice_ptr: np.ndarray,
        slice_widths: np.ndarray,
        col_idx: np.ndarray,
        val: np.ndarray,
        true_nnz: int,
    ) -> None:
        self.nrows = int(nrows)
        self.ncols = int(ncols)
        self.chunk = int(chunk)
        #: entry offset of each slice into col_idx/val (len = nslices + 1).
        self.slice_ptr = np.ascontiguousarray(slice_ptr, dtype=np.int64)
        self.slice_widths = np.ascontiguousarray(slice_widths, dtype=np.int64)
        self.col_idx = np.ascontiguousarray(col_idx, dtype=self.INDEX_DTYPE)
        self.val = np.ascontiguousarray(val, dtype=self.VALUE_DTYPE)
        self.true_nnz = int(true_nnz)
        self._validate()

    def _validate(self) -> None:
        if self.chunk <= 0:
            raise SparseFormatError("chunk size must be positive")
        if len(self.slice_ptr) != self.nslices + 1:
            raise SparseFormatError("slice_ptr length must be nslices + 1")
        expected = self.slice_widths * self.chunk
        if np.any(np.diff(self.slice_ptr) != expected):
            raise SparseFormatError("slice_ptr inconsistent with slice widths")
        if self.slice_ptr[-1] != len(self.col_idx):
            raise SparseFormatError("slice_ptr must end at the padded nnz")
        if len(self.col_idx) != len(self.val):
            raise SparseFormatError("col_idx and val must have equal length")

    # -- shape ---------------------------------------------------------------

    @property
    def nslices(self) -> int:
        return -(-self.nrows // self.chunk)

    @property
    def padded_nnz(self) -> int:
        """Stored entries including padding."""
        return len(self.col_idx)

    @property
    def padding_overhead(self) -> float:
        """Padded / true nonzero ratio (1.0 = no padding)."""
        if self.true_nnz == 0:
            return 1.0
        return self.padded_nnz / self.true_nnz

    # -- construction ----------------------------------------------------------

    @classmethod
    def from_csr(cls, csr: CsrMatrix, chunk: int = 32) -> "SellMatrix":
        """Build from CSR in whole-array NumPy.

        :func:`repro.axipack.reference.sell_from_csr_reference` is the
        per-row loop this must equal array for array.
        """
        nrows, ncols = csr.shape
        nslices = -(-nrows // chunk)
        row_lengths = csr.row_lengths()
        # Rows past nrows in the last slice have length 0.
        lengths = np.zeros(nslices * chunk, dtype=np.int64)
        lengths[:nrows] = row_lengths
        slice_widths = lengths.reshape(nslices, chunk).max(axis=1)

        slice_ptr = np.zeros(nslices + 1, dtype=np.int64)
        np.cumsum(slice_widths * chunk, out=slice_ptr[1:])

        # Every slot starts as its row's pad: the row's last valid index,
        # or 0 for an empty row.  A slice of width w stores its per-row
        # pad vector w times (column-of-slice major).
        pad = np.zeros(nslices * chunk, dtype=cls.INDEX_DTYPE)
        nonempty = np.flatnonzero(row_lengths)
        pad[nonempty] = csr.col_idx[csr.row_ptr[nonempty + 1] - 1]
        col_idx = np.repeat(
            pad.reshape(nslices, chunk), slice_widths, axis=0
        ).ravel()
        val = np.zeros(slice_ptr[-1], dtype=cls.VALUE_DTYPE)

        # The k-th entry of row r lands in slot r % C of its slice's
        # k-th column.
        rows = np.repeat(np.arange(nrows, dtype=np.int64), row_lengths)
        k = np.arange(csr.nnz, dtype=np.int64) - csr.row_ptr[rows]
        dst = slice_ptr[rows // chunk] + rows % chunk + k * chunk
        col_idx[dst] = csr.col_idx
        val[dst] = csr.val
        return cls(
            nrows, ncols, chunk, slice_ptr, slice_widths, col_idx, val, csr.nnz
        )

    # -- kernels ------------------------------------------------------------

    def spmv(self, x: np.ndarray) -> np.ndarray:
        """Reference SELL SpMV: ``y = A @ x``."""
        x = np.asarray(x, dtype=self.VALUE_DTYPE)
        if x.shape != (self.ncols,):
            raise SparseFormatError(f"vector shape {x.shape} != ({self.ncols},)")
        y = np.zeros(self.nslices * self.chunk, dtype=self.VALUE_DTYPE)
        for s in range(self.nslices):
            width = self.slice_widths[s]
            if width == 0:
                continue
            base = self.slice_ptr[s]
            block_vals = self.val[base : base + width * self.chunk]
            block_cols = self.col_idx[base : base + width * self.chunk]
            contrib = (block_vals * x[block_cols]).reshape(width, self.chunk)
            y[s * self.chunk : (s + 1) * self.chunk] += contrib.sum(axis=0)
        return y[: self.nrows]

    def index_stream(self) -> np.ndarray:
        """Column indices in storage order (the adapter's indirect
        stream for SELL SpMV)."""
        return self.col_idx

    def to_csr(self) -> CsrMatrix:
        """Convert back to CSR, dropping padding entries."""
        rows = []
        cols = []
        vals = []
        for s in range(self.nslices):
            width = int(self.slice_widths[s])
            if width == 0:
                continue
            base = int(self.slice_ptr[s])
            block = slice(base, base + width * self.chunk)
            local_rows = np.tile(np.arange(self.chunk), width) + s * self.chunk
            keep = (self.val[block] != 0) & (local_rows < self.nrows)
            rows.append(local_rows[keep])
            cols.append(self.col_idx[block][keep])
            vals.append(self.val[block][keep])
        from .coo import CooMatrix

        if not rows:
            return CooMatrix(self.nrows, self.ncols).to_csr()
        coo = CooMatrix(
            self.nrows,
            self.ncols,
            np.concatenate(rows),
            np.concatenate(cols),
            np.concatenate(vals),
        )
        return coo.to_csr()

    # -- memory footprint ------------------------------------------------------

    def footprint_bytes(self) -> dict[str, int]:
        """Bytes per array as stored in DRAM by the evaluation."""
        return {
            "slice_ptr": self.slice_ptr.nbytes,
            "col_idx": self.col_idx.nbytes,
            "val": self.val.nbytes,
        }

    def __repr__(self) -> str:
        return (
            f"SellMatrix({self.nrows}x{self.ncols}, C={self.chunk}, "
            f"nnz={self.true_nnz}, padded={self.padded_nnz})"
        )
