"""MatrixMarket coordinate IO.

SuiteSparse distributes matrices in MatrixMarket format; this module
reads and writes the coordinate flavour (``real`` / ``integer`` /
``pattern``, ``general`` / ``symmetric``) so users with local ``.mtx``
files can run the harness on the paper's real inputs.
"""

from __future__ import annotations

import gzip
import zlib
from array import array
from pathlib import Path
from typing import IO, Iterator

import numpy as np

from ..errors import SparseFormatError
from .coo import CooMatrix
from .csr import CsrMatrix

_HEADER_PREFIX = "%%MatrixMarket"
_SUPPORTED_FIELDS = {"real", "integer", "pattern"}
_SUPPORTED_SYMMETRIES = {"general", "symmetric"}


def _open_text(path: Path) -> IO[str]:
    if path.suffix == ".gz":
        return gzip.open(path, "rt", encoding="utf-8")
    return open(path, "r", encoding="utf-8")


def _data_lines(handle: IO[str]) -> Iterator[str]:
    for line in handle:
        line = line.strip()
        if line and not line.startswith("%"):
            yield line


def read_matrix_market(path: str | Path) -> CsrMatrix:
    """Read a MatrixMarket coordinate file into CSR.

    Symmetric matrices are expanded to their full (general) pattern,
    matching how the paper's SpMV consumes them.

    Storage grows with the entries the file holds, never with the count
    its size line declares.  Every malformed input (a bad line, a byte
    that is not UTF-8, a ``.gz`` file that is not gzip or is cut short)
    raises :class:`~repro.errors.SparseFormatError` naming the file.
    """
    path = Path(path)
    try:
        with _open_text(path) as handle:
            return _read_coordinates(handle)
    except SparseFormatError as exc:
        raise SparseFormatError(f"{path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise SparseFormatError(f"{path}: not UTF-8 text ({exc.reason})") from exc
    except (gzip.BadGzipFile, EOFError, zlib.error) as exc:
        raise SparseFormatError(f"{path}: unreadable gzip data ({exc})") from exc


def _read_coordinates(handle: IO[str]) -> CsrMatrix:
    header = handle.readline().strip()
    parts = header.split()
    if len(parts) != 5 or parts[0] != _HEADER_PREFIX:
        raise SparseFormatError(f"bad MatrixMarket header: {header!r}")
    _, kind, layout, field, symmetry = (p.lower() for p in parts)
    if kind != "matrix" or layout != "coordinate":
        raise SparseFormatError(
            f"only coordinate matrices are supported, got {kind}/{layout}"
        )
    if field not in _SUPPORTED_FIELDS:
        raise SparseFormatError(f"unsupported field type {field!r}")
    if symmetry not in _SUPPORTED_SYMMETRIES:
        raise SparseFormatError(f"unsupported symmetry {symmetry!r}")

    lines = _data_lines(handle)
    try:
        size_line = next(lines)
    except StopIteration:
        raise SparseFormatError("missing size line") from None
    tokens = size_line.split()
    if len(tokens) != 3:
        raise SparseFormatError(
            f"bad size line {size_line!r}: expected 'nrows ncols nnz'"
        )
    try:
        nrows, ncols, nnz = (int(tok) for tok in tokens)
    except ValueError:
        raise SparseFormatError(
            f"bad size line {size_line!r}: dimensions must be integers"
        ) from None
    if nrows < 0 or ncols < 0 or nnz < 0:
        raise SparseFormatError(
            f"bad size line {size_line!r}: dimensions must be non-negative"
        )

    value_tokens = 2 if field == "pattern" else 3
    rows, cols, vals = array("q"), array("q"), array("d")
    count = 0
    for line in lines:
        if count >= nnz:
            raise SparseFormatError(f"expected {nnz} entries, found more")
        tokens = line.split()
        if len(tokens) < value_tokens:
            raise SparseFormatError(
                f"bad entry line {line!r}: expected at least "
                f"{value_tokens} tokens"
            )
        try:
            row = int(tokens[0]) - 1
            col = int(tokens[1]) - 1
            val = float(tokens[2]) if field != "pattern" else 1.0
        except ValueError:
            raise SparseFormatError(f"bad entry line {line!r}") from None
        if not (0 <= row < nrows and 0 <= col < ncols):
            raise SparseFormatError(
                f"entry ({row + 1}, {col + 1}) outside the declared "
                f"{nrows}x{ncols} shape"
            )
        rows.append(row)
        cols.append(col)
        vals.append(val)
        count += 1
    if count != nnz:
        raise SparseFormatError(f"expected {nnz} entries, found {count}")

    rows = np.frombuffer(rows, dtype=np.int64)
    cols = np.frombuffer(cols, dtype=np.int64)
    vals = np.frombuffer(vals, dtype=np.float64)
    if symmetry == "symmetric":
        off_diag = rows != cols
        mirrored_rows = cols[off_diag]
        mirrored_cols = rows[off_diag]
        rows = np.concatenate([rows, mirrored_rows])
        cols = np.concatenate([cols, mirrored_cols])
        vals = np.concatenate([vals, vals[off_diag]])
    return CooMatrix(nrows, ncols, rows, cols, vals).to_csr()


def write_matrix_market(matrix: CsrMatrix, path: str | Path) -> None:
    """Write a CSR matrix as a general real coordinate file."""
    path = Path(path)
    rows = np.repeat(np.arange(matrix.nrows), matrix.row_lengths())
    with open(path, "w") as handle:
        handle.write("%%MatrixMarket matrix coordinate real general\n")
        handle.write("% written by repro\n")
        handle.write(f"{matrix.nrows} {matrix.ncols} {matrix.nnz}\n")
        for r, c, v in zip(rows, matrix.col_idx, matrix.val):
            handle.write(f"{r + 1} {c + 1} {v:.17g}\n")
