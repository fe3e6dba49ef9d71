"""Ablation benchmarks for the design choices DESIGN.md calls out.

Not paper figures — these probe *why* the design works:

* window sweep beyond the paper's range (does bandwidth saturate?),
* SELL vs CSR traversal order per structure class,
* DRAM policy ablations (open-adaptive idle close, refresh),
* lane-count (N) scaling at fixed window.
"""

import numpy as np
import pytest

from dataclasses import replace

from repro.axipack import fast_indirect_stream, run_indirect_stream
from repro.axipack.streams import matrix_index_stream
from repro.config import AdapterConfig, CoalescerConfig, DramConfig, mlp_config
from repro.engine import SweepExecutor, grid_points
from repro.sparse.suite import get_matrix

from _bench_util import record


def _stream(name="pwtk", fmt="sell", max_nnz=120_000):
    return matrix_index_stream(get_matrix(name, max_nnz), fmt)


def test_ablation_window_sweep(benchmark):
    """Bandwidth grows with W then saturates; the knee sits near the
    paper's W=256 pick.  Runs through the engine: one matrix group,
    eight window variants sharing the cached stream analysis."""
    variants = tuple(f"MLP{w}" for w in (8, 16, 32, 64, 128, 256, 512, 1024))

    def sweep():
        cells = SweepExecutor().run(
            grid_points("adapter", ("pwtk",), variants, max_nnz=120_000)
        )
        return [
            {
                "window": int(cell["variant"][3:]),
                "bw_gbps": round(cell["indir_gbps"], 2),
                "coal_rate": round(cell["coal_rate"], 2),
            }
            for cell in cells
        ]

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    record(benchmark, "ablation_window", {"rows": rows, "summary": {
        "bw_w8": rows[0]["bw_gbps"], "bw_w256": rows[5]["bw_gbps"],
        "bw_w1024": rows[7]["bw_gbps"],
    }})
    bws = [r["bw_gbps"] for r in rows]
    assert bws[5] > 1.5 * bws[0]  # W=256 well above W=8
    # saturation: the last doubling buys < 15 %.
    assert bws[7] <= 1.15 * bws[5]


def test_ablation_format_order(benchmark):
    """SELL's slice-column order coalesces at least as well as CSR on
    FEM matrices (row-group sharing lands inside the window)."""
    def run():
        out = {}
        for fmt in ("sell", "csr"):
            idx = _stream("af_shell10", fmt)
            out[fmt] = fast_indirect_stream(idx, mlp_config(256)).indirect_bw_gbps
        return out

    out = benchmark.pedantic(run, rounds=1, iterations=1)
    benchmark.extra_info.update({k: round(v, 2) for k, v in out.items()})
    assert out["sell"] >= 0.9 * out["csr"]


def test_ablation_refresh_costs_bandwidth(benchmark):
    """Disabling refresh must recover a few percent of bandwidth —
    and never lose any."""
    idx = _stream(max_nnz=60_000)

    def run():
        with_refresh = fast_indirect_stream(idx, mlp_config(64), DramConfig())
        without = fast_indirect_stream(
            idx, mlp_config(64), DramConfig(t_refi=0, t_rfc=0)
        )
        return with_refresh.indirect_bw_gbps, without.indirect_bw_gbps

    with_r, without_r = benchmark.pedantic(run, rounds=1, iterations=1)
    benchmark.extra_info["with_refresh"] = round(with_r, 2)
    benchmark.extra_info["without_refresh"] = round(without_r, 2)
    assert without_r >= with_r
    assert without_r <= 1.2 * with_r


def test_ablation_lane_count(benchmark):
    """Fewer request-generator lanes cap the parallel coalescer's
    request supply (N/cycle), mirroring the MLP-vs-coalescing
    interplay of Sec. IV-A."""
    idx = _stream(max_nnz=60_000)

    def run():
        out = {}
        for lanes in (2, 4, 8):
            cfg = AdapterConfig(
                lanes=lanes, coalescer=CoalescerConfig(window=64)
            )
            out[lanes] = fast_indirect_stream(idx, cfg).indirect_bw_gbps
        return out

    out = benchmark.pedantic(run, rounds=1, iterations=1)
    benchmark.extra_info.update({f"lanes{k}": round(v, 2) for k, v in out.items()})
    assert out[2] <= out[4] * 1.01 <= out[8] * 1.02


def test_ablation_multichannel_scaling(benchmark):
    """A second HBM channel should nearly halve a bandwidth-bound
    sequential stream's time (the cycle-level multi-channel router)."""
    from repro.mem.backing_store import BackingStore
    from repro.mem.multichannel import MultiChannelMemory
    from repro.mem.dram import DramChannel
    from repro.mem.request import MemRequest
    from repro.sim.clock import Simulator

    def run(channels):
        store = BackingStore(1 << 20)
        memory = (
            DramChannel(store)
            if channels == 1
            else MultiChannelMemory(store, num_channels=channels)
        )
        components = [memory] if channels == 1 else memory.components()
        sim = Simulator(components)
        issued = 0
        while issued < 768:
            # Ideal requestor: saturate the request queue every cycle.
            while issued < 768 and memory.req.can_push():
                memory.req.push(MemRequest(addr=issued * 64, nbytes=64))
                issued += 1
            sim.step()
        sim.run_until(lambda: not memory.busy, max_cycles=200_000)
        return sim.cycle

    def sweep():
        return {channels: run(channels) for channels in (1, 2, 4)}

    cycles = benchmark.pedantic(sweep, rounds=1, iterations=1)
    benchmark.extra_info.update({f"ch{k}": v for k, v in cycles.items()})
    assert cycles[2] < 0.7 * cycles[1]
    assert cycles[4] < 0.7 * cycles[2]


def test_ablation_scatter_window_sweep(benchmark):
    """The write coalescer's window behaves like the read coalescer's:
    wide-write counts drop monotonically with W."""
    from repro.axipack import fast_indirect_scatter

    idx = _stream("G3_circuit", max_nnz=60_000)

    def sweep():
        return {
            window: fast_indirect_scatter(idx, mlp_config(window)).elem_txns
            for window in (8, 32, 128, 256)
        }

    txns = benchmark.pedantic(sweep, rounds=1, iterations=1)
    benchmark.extra_info.update({f"w{k}": v for k, v in txns.items()})
    values = list(txns.values())
    assert values == sorted(values, reverse=True)


def test_ablation_metadata_depth_cycle_model(benchmark):
    """Shrinking the hitmap queue (outstanding warps) throttles the
    cycle-accurate adapter."""
    rng = np.random.default_rng(0)
    idx = np.clip(np.arange(3000) // 4 + rng.integers(-20, 21, 3000), 0, 6000).astype(
        np.uint32
    )

    def run():
        deep = run_indirect_stream(
            idx,
            AdapterConfig(coalescer=CoalescerConfig(window=64)),
        ).cycles
        cc = CoalescerConfig(window=64, hitmap_queue_depth=2)
        shallow = run_indirect_stream(
            idx, AdapterConfig(coalescer=cc)
        ).cycles
        return deep, shallow

    deep, shallow = benchmark.pedantic(run, rounds=1, iterations=1)
    benchmark.extra_info["deep_cycles"] = deep
    benchmark.extra_info["shallow_cycles"] = shallow
    assert shallow >= deep
