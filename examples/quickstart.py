#!/usr/bin/env python3
"""Quickstart: stream one sparse matrix's indirect accesses through the
AXI-Pack adapter, with and without the request coalescer.

This reproduces the paper's core experiment in miniature: build a
sparse matrix, take its SELL column-index stream, and compare the
no-coalescer adapter (MLPnc) with the 256-window parallel coalescer
(MLP256) on the cycle-accurate model over the HBM2 channel.

Run:  python examples/quickstart.py [max_nnz]
"""

import sys

import numpy as np

from repro.axipack import fast_indirect_stream, run_indirect_stream
from repro.axipack.streams import matrix_index_stream
from repro.config import variant_config
from repro.sparse import get_matrix, spmv_sell


def main() -> None:
    max_nnz = int(sys.argv[1]) if len(sys.argv) > 1 else 20_000

    # 1. A paper-suite matrix, scaled to laptop size (structure-matched
    #    stand-in for the SuiteSparse original; see README.md,
    #    "Model fidelity").
    matrix = get_matrix("pwtk", max_nnz=max_nnz)
    print(f"matrix: {matrix}")

    # 2. SpMV itself is exact: the SELL kernel matches CSR.
    x = np.linspace(0.0, 1.0, matrix.ncols)
    sell = matrix.to_sell(32)
    assert np.allclose(spmv_sell(sell, x), matrix.spmv(x))
    print(f"SELL conversion: {sell} (padding {sell.padding_overhead:.2f}x)")

    # 3. The indirect stream the adapter must serve: vec[col_idx[j]].
    indices = matrix_index_stream(matrix, "sell")
    print(f"indirect stream: {len(indices)} narrow (64 b) element accesses\n")

    # 4. Cycle-accurate adapter + HBM2 channel, two configurations.
    for label in ("MLPnc", "MLP256"):
        metrics = run_indirect_stream(indices, variant_config(label), variant=label)
        print(
            f"{label:7s} cycles={metrics.cycles:8d}  "
            f"indirect BW={metrics.indirect_bw_gbps:6.2f} GB/s  "
            f"coalesce rate={metrics.coalesce_rate:5.2f}  "
            f"wide element accesses={metrics.elem_txns}"
        )

    # 5. The fast window-exact model gives the same coalescing at
    #    numpy speed — use it for big sweeps.
    fast = fast_indirect_stream(indices, variant_config("MLP256"))
    print(
        f"\nfast model (MLP256): {fast.indirect_bw_gbps:.2f} GB/s, "
        f"{fast.elem_txns} wide accesses"
    )
    print("\nEvery element was delivered in stream order and verified "
          "against vec[col_idx[j]].")


if __name__ == "__main__":
    main()
