"""MatrixMarket IO."""

import gzip

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ReproError, SparseFormatError
from repro.sparse.coo import CooMatrix
from repro.sparse.mmio import read_matrix_market, write_matrix_market

from helpers import small_csr


def test_write_read_roundtrip(tmp_path):
    m = small_csr()
    path = tmp_path / "m.mtx"
    write_matrix_market(m, path)
    back = read_matrix_market(path)
    assert back.shape == m.shape
    assert back.nnz == m.nnz
    assert np.allclose(back.to_dense(), m.to_dense())


def test_read_symmetric_expands(tmp_path):
    path = tmp_path / "sym.mtx"
    path.write_text(
        "%%MatrixMarket matrix coordinate real symmetric\n"
        "3 3 3\n"
        "1 1 2.0\n"
        "2 1 5.0\n"
        "3 2 -1.0\n"
    )
    m = read_matrix_market(path)
    dense = m.to_dense()
    assert dense[0, 1] == dense[1, 0] == 5.0
    assert dense[1, 2] == dense[2, 1] == -1.0
    assert dense[0, 0] == 2.0
    assert m.nnz == 5


def test_read_pattern_field(tmp_path):
    path = tmp_path / "pat.mtx"
    path.write_text(
        "%%MatrixMarket matrix coordinate pattern general\n"
        "2 2 2\n"
        "1 2\n"
        "2 1\n"
    )
    m = read_matrix_market(path)
    assert m.to_dense()[0, 1] == 1.0


def test_read_gzipped(tmp_path):
    path = tmp_path / "m.mtx.gz"
    content = (
        "%%MatrixMarket matrix coordinate real general\n"
        "% a comment\n"
        "2 2 1\n"
        "2 2 4.5\n"
    )
    with gzip.open(path, "wt") as handle:
        handle.write(content)
    m = read_matrix_market(path)
    assert m.to_dense()[1, 1] == 4.5


def test_comments_and_blank_lines_skipped(tmp_path):
    path = tmp_path / "c.mtx"
    path.write_text(
        "%%MatrixMarket matrix coordinate real general\n"
        "% comment\n"
        "\n"
        "1 1 1\n"
        "1 1 3.0\n"
    )
    assert read_matrix_market(path).to_dense()[0, 0] == 3.0


@pytest.mark.parametrize(
    "header",
    [
        "%%MatrixMarket matrix array real general",
        "%%MatrixMarket matrix coordinate complex general",
        "%%MatrixMarket matrix coordinate real hermitian",
        "not a header at all",
    ],
)
def test_unsupported_headers_rejected(tmp_path, header):
    path = tmp_path / "bad.mtx"
    path.write_text(header + "\n1 1 1\n1 1 1.0\n")
    with pytest.raises(SparseFormatError):
        read_matrix_market(path)


def test_truncated_file_rejected(tmp_path):
    path = tmp_path / "trunc.mtx"
    path.write_text(
        "%%MatrixMarket matrix coordinate real general\n"
        "2 2 3\n"
        "1 1 1.0\n"
    )
    with pytest.raises(SparseFormatError):
        read_matrix_market(path)


@pytest.mark.parametrize(
    "body,fragment",
    [
        ("", "missing size line"),
        ("2 2\n", "expected 'nrows ncols nnz'"),
        ("two 2 1\n1 1 1.0\n", "must be integers"),
        ("-2 2 1\n1 1 1.0\n", "must be non-negative"),
        ("2 2 1\n1\n", "expected at least"),
        ("2 2 1\n1 1 lots\n", "bad entry line"),
        ("2 2 1\n3 1 1.0\n", "outside the declared"),
        ("2 2 1\n1 1 1.0\n2 2 2.0\n", "found more"),
    ],
    ids=[
        "no-size", "short-size", "alpha-size", "negative-dim",
        "short-entry", "alpha-value", "out-of-range", "surplus",
    ],
)
def test_malformed_bodies_raise_sparse_format_error(tmp_path, body, fragment):
    path = tmp_path / "bad.mtx"
    path.write_text(
        "%%MatrixMarket matrix coordinate real general\n" + body
    )
    with pytest.raises(SparseFormatError, match=fragment) as excinfo:
        read_matrix_market(path)
    # callers catch the repro hierarchy, never bare ValueError
    assert isinstance(excinfo.value, ReproError)
    assert str(excinfo.value).startswith(f"{path}: ")


GENERAL_HEADER = b"%%MatrixMarket matrix coordinate real general\n"


@pytest.mark.parametrize(
    "name,content,fragment",
    [
        # a declared count no array could hold
        ("huge.mtx", GENERAL_HEADER + b"2 2 9223372036854775807\n1 1 1.0\n",
         "expected 9223372036854775807 entries, found 1"),
        ("latin1.mtx", GENERAL_HEADER + b"% caf\xff\n1 1 1\n1 1 1.0\n",
         "not UTF-8 text"),
        ("plain.mtx.gz", GENERAL_HEADER + b"1 1 1\n1 1 1.0\n",
         "unreadable gzip data"),
        ("cut.mtx.gz",
         gzip.compress(GENERAL_HEADER + b"1 1 1\n1 1 1.0\n" + b"%\n" * 100)[:-12],
         "unreadable gzip data"),
    ],
    ids=["declared-2^63-1", "byte-0xff", "not-gzip", "cut-gzip"],
)
def test_unreadable_files_raise_sparse_format_error(tmp_path, name, content, fragment):
    path = tmp_path / name
    path.write_bytes(content)
    with pytest.raises(SparseFormatError, match=fragment) as excinfo:
        read_matrix_market(path)
    assert str(excinfo.value).startswith(f"{path}: ")


def test_declared_count_allocates_nothing(tmp_path):
    """A three-line file declaring 10^9 entries fails on the entries it
    holds, before anything sized by the declared count is allocated
    (24 GB for the three coordinate arrays)."""
    import tracemalloc

    path = tmp_path / "liar.mtx"
    path.write_bytes(GENERAL_HEADER + b"2 2 1000000000\n1 1 1.0\n")
    tracemalloc.start()
    try:
        with pytest.raises(SparseFormatError, match="found 1"):
            read_matrix_market(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@st.composite
def coo_matrices(draw):
    nrows = draw(st.integers(min_value=1, max_value=40))
    ncols = draw(st.integers(min_value=1, max_value=40))
    nnz = draw(st.integers(min_value=0, max_value=80))
    rows = draw(st.lists(st.integers(0, nrows - 1), min_size=nnz, max_size=nnz))
    cols = draw(st.lists(st.integers(0, ncols - 1), min_size=nnz, max_size=nnz))
    vals = draw(
        st.lists(
            st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
            min_size=nnz,
            max_size=nnz,
        )
    )
    return CooMatrix(nrows, ncols, rows, cols, vals)


@given(coo_matrices(), st.booleans())
@settings(max_examples=60, deadline=None)
def test_write_read_roundtrip_property(tmp_path_factory, coo, compress):
    csr = coo.to_csr()
    root = tmp_path_factory.mktemp("mmio")
    path = root / "m.mtx"
    write_matrix_market(csr, path)
    if compress:
        gz = root / "m.mtx.gz"
        gz.write_bytes(gzip.compress(path.read_bytes()))
        path = gz
    back = read_matrix_market(path)
    assert back.shape == csr.shape
    assert back.nnz == csr.nnz
    assert np.allclose(back.to_dense(), csr.to_dense(), rtol=1e-12, atol=0)


@given(coo_matrices())
@settings(max_examples=40, deadline=None)
def test_symmetric_read_equals_general_expansion(tmp_path_factory, coo):
    # write the lower triangle as `symmetric`; reading must equal the
    # full general matrix built by mirroring it
    csr = coo.to_csr()
    n = min(csr.nrows, csr.ncols)
    dense = csr.to_dense()[:n, :n]
    lower = np.tril(dense)
    full = lower + np.tril(dense, -1).T
    entries = [
        (r + 1, c + 1, lower[r, c])
        for r in range(n)
        for c in range(r + 1)
        if lower[r, c] != 0.0
    ]
    path = tmp_path_factory.mktemp("mmio-sym") / "sym.mtx"
    path.write_text(
        "%%MatrixMarket matrix coordinate real symmetric\n"
        + f"{n} {n} {len(entries)}\n"
        + "".join(f"{r} {c} {v:.17g}\n" for r, c, v in entries)
    )
    back = read_matrix_market(path)
    assert np.allclose(back.to_dense(), full, rtol=1e-12, atol=0)


@given(st.integers(min_value=1, max_value=12), st.integers(min_value=0, max_value=30))
@settings(max_examples=40, deadline=None)
def test_pattern_read_is_indicator_matrix(tmp_path_factory, n, nnz):
    rng = np.random.default_rng(n * 1000 + nnz)
    coords = {
        (int(rng.integers(n)), int(rng.integers(n))) for _ in range(nnz)
    }
    path = tmp_path_factory.mktemp("mmio-pat") / "pat.mtx"
    path.write_text(
        "%%MatrixMarket matrix coordinate pattern general\n"
        + f"{n} {n} {len(coords)}\n"
        + "".join(f"{r + 1} {c + 1}\n" for r, c in sorted(coords))
    )
    dense = read_matrix_market(path).to_dense()
    expected = np.zeros((n, n))
    for r, c in coords:
        expected[r, c] = 1.0
    assert np.array_equal(dense, expected)
