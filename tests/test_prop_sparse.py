"""Property-based tests: sparse format invariants."""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.axipack.reference import sell_from_csr_reference
from repro.sparse.coo import CooMatrix


@st.composite
def coo_matrices(draw):
    nrows = draw(st.integers(min_value=1, max_value=80))
    ncols = draw(st.integers(min_value=1, max_value=80))
    nnz = draw(st.integers(min_value=0, max_value=150))
    rows = draw(
        st.lists(st.integers(0, nrows - 1), min_size=nnz, max_size=nnz)
    )
    cols = draw(
        st.lists(st.integers(0, ncols - 1), min_size=nnz, max_size=nnz)
    )
    vals = draw(
        st.lists(
            st.floats(-100, 100, allow_nan=False, allow_infinity=False),
            min_size=nnz,
            max_size=nnz,
        )
    )
    return CooMatrix(nrows, ncols, rows, cols, vals)


@given(coo_matrices())
@settings(max_examples=150, deadline=None)
def test_csr_equals_dense_semantics(coo):
    csr = coo.to_csr()
    assert np.allclose(csr.to_dense(), coo.to_dense())


@given(coo_matrices())
@settings(max_examples=100, deadline=None)
def test_spmv_matches_dense_matvec(coo):
    csr = coo.to_csr()
    x = np.linspace(-1, 1, csr.ncols)
    assert np.allclose(csr.spmv(x), csr.to_dense() @ x, atol=1e-9)


@given(coo_matrices(), st.sampled_from([2, 4, 8, 32]))
@settings(max_examples=100, deadline=None)
def test_sell_roundtrip_and_spmv(coo, chunk):
    csr = coo.to_csr()
    sell = csr.to_sell(chunk)
    x = np.linspace(-1, 1, csr.ncols)
    assert np.allclose(sell.spmv(x), csr.spmv(x), atol=1e-9)
    # Padding never shrinks below the true nonzero count.
    assert sell.padded_nnz >= csr.nnz
    back = sell.to_csr()
    assert np.allclose(back.to_dense(), csr.to_dense(), atol=1e-12)


@given(coo_matrices(), st.sampled_from([1, 2, 3, 8, 32, 64]))
@example(CooMatrix(5, 4), 2)  # nnz = 0
@example(CooMatrix(3, 3, [0, 2], [1, 2], [1.0, 2.0]), 8)  # nrows < chunk
# an empty row inside a slice, then an all-empty trailing slice
@example(CooMatrix(5, 4, [0, 0, 3], [1, 3, 2], [1.0, 2.0, 3.0]), 2)
@settings(max_examples=150, deadline=None)
def test_sell_build_matches_reference_loop(coo, chunk):
    csr = coo.to_csr()
    sell = csr.to_sell(chunk)
    ref = sell_from_csr_reference(csr, chunk)
    for name in ("slice_ptr", "slice_widths", "col_idx", "val"):
        got, want = getattr(sell, name), getattr(ref, name)
        assert got.dtype == want.dtype, name
        assert got.tobytes() == want.tobytes(), name
    assert sell.true_nnz == ref.true_nnz


@given(coo_matrices())
@settings(max_examples=60, deadline=None)
def test_row_ptr_monotone_and_consistent(coo):
    csr = coo.to_csr()
    assert csr.row_ptr[0] == 0
    assert csr.row_ptr[-1] == csr.nnz
    assert (np.diff(csr.row_ptr) >= 0).all()
    assert (csr.row_lengths().sum()) == csr.nnz
