#!/usr/bin/env python3
"""Design-space exploration: window size versus area and storage.

The paper implements W = 64/128/256; this example sweeps a wider range
(including configurations the paper did not build) and reports each
point's mean indirect bandwidth on the deep-dive matrices next to its
coalescer area (kGE), total adapter area (mm², GF12) and on-chip
storage — the W ablation README.md's "Model fidelity" notes describe,
useful for picking a window size under an area budget.

Run:  python examples/design_space_exploration.py [max_nnz]
"""

import sys

from repro.axipack import fast_indirect_stream
from repro.axipack.streams import matrix_index_stream
from repro.config import mlp_config
from repro.hw.area import AreaModel
from repro.hw.storage import adapter_storage_bytes
from repro.sparse import get_matrix
from repro.sparse.suite import FIG4_MATRICES

WINDOWS = (8, 16, 32, 64, 128, 256, 512, 1024)


def main() -> None:
    max_nnz = int(sys.argv[1]) if len(sys.argv) > 1 else 60_000
    streams = [
        matrix_index_stream(get_matrix(name, max_nnz), "sell")
        for name in FIG4_MATRICES
    ]

    header = (
        f"{'W':>5s} {'mean BW (GB/s)':>15s} {'coal kGE':>9s} "
        f"{'total kGE':>10s} {'area mm2':>9s} {'storage KiB':>12s} "
        f"{'GB/s per kGE':>13s}"
    )
    print(header)
    print("-" * len(header))
    for window in WINDOWS:
        config = mlp_config(window)
        bws = [
            fast_indirect_stream(stream, config).indirect_bw_gbps
            for stream in streams
        ]
        mean_bw = sum(bws) / len(bws)
        area = AreaModel(config)
        storage_kib = adapter_storage_bytes(config) / 1024
        marginal = mean_bw / area.total_kge() * 1000
        print(
            f"{window:5d} {mean_bw:15.2f} {area.coalescer_kge():9.0f} "
            f"{area.total_kge():10.0f} {area.area_mm2():9.3f} "
            f"{storage_kib:12.1f} {marginal:13.2f}"
        )

    print(
        "\nThe paper's W=256 sits near the knee: beyond it, bandwidth "
        "saturates while the coalescer's area keeps growing linearly."
    )


if __name__ == "__main__":
    main()
