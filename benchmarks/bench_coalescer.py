"""Vectorized coalescing engine vs the retained reference oracle.

Acceptance benchmark for the vectorized kernel: the fig4 window sweep
(every coalescer window over a fig4 deep-dive matrix's SELL stream)
must run >= 25x faster through the vectorized kernel — with the
previous-occurrence array shared across the sweep via
``analyze_stream``, exactly as the engine runs it — than through the
seed per-window loop kept in :mod:`repro.axipack.reference`.
"""

import time

from repro.axipack.fastmodel import analyze_stream, coalesce_window_exact
from repro.axipack.reference import coalesce_window_reference
from repro.axipack.streams import matrix_index_stream
from repro.config import DramConfig
from repro.sparse.suite import get_matrix

from _bench_util import record

#: the fig4 window axis: the paper's W=16/64/256 picks plus the
#: surrounding octaves the ablation sweeps.
WINDOWS = (8, 16, 32, 64, 128, 256, 512, 1024)


def _stream(name="af_shell10", max_nnz=120_000):
    return matrix_index_stream(get_matrix(name, max_nnz), "sell")


def test_bench_fig4_window_sweep_speedup(benchmark):
    """>= 25x wall-clock on the fig4 window sweep, bit-exact results."""
    idx = _stream()
    epb = DramConfig().access_bytes // 8  # 8 B elements

    def vectorized():
        analysis = analyze_stream(idx, epb)
        return [
            coalesce_window_exact(analysis.blocks, w, analysis.prev)
            for w in WINDOWS
        ]

    def reference():
        blocks = analyze_stream(idx, epb).blocks
        return [coalesce_window_reference(blocks, w) for w in WINDOWS]

    vec_results = benchmark.pedantic(vectorized, rounds=3, iterations=1)
    vec_seconds = benchmark.stats.stats.min

    t0 = time.perf_counter()
    ref_results = reference()
    ref_seconds = time.perf_counter() - t0

    for (vec_count, vec_tags), (ref_count, ref_tags) in zip(
        vec_results, ref_results
    ):
        assert vec_count == ref_count
        assert (vec_tags == ref_tags).all()

    speedup = ref_seconds / vec_seconds
    rows = [
        {
            "window": w,
            "wide_accesses": count,
        }
        for w, (count, _) in zip(WINDOWS, vec_results)
    ]
    record(
        benchmark,
        "coalescer_speedup",
        {
            "rows": rows,
            "summary": {
                "reference_s": round(ref_seconds, 3),
                "vectorized_s": round(vec_seconds, 4),
                "speedup": round(speedup, 1),
            },
        },
    )
    assert speedup >= 25.0, f"only {speedup:.1f}x over the seed loop"


def test_bench_single_window_no_shared_sort(benchmark):
    """Even without the shared analysis (one-off calls), the vectorized
    kernel beats the loop at every window size."""
    idx = _stream(max_nnz=60_000)
    blocks = analyze_stream(idx, 8).blocks

    def vectorized_all():
        return [coalesce_window_exact(blocks, w) for w in WINDOWS]

    benchmark.pedantic(vectorized_all, rounds=2, iterations=1)
    vec_seconds = benchmark.stats.stats.min
    t0 = time.perf_counter()
    [coalesce_window_reference(blocks, w) for w in WINDOWS]
    ref_seconds = time.perf_counter() - t0
    benchmark.extra_info["speedup_unshared"] = round(ref_seconds / vec_seconds, 1)
    assert ref_seconds > vec_seconds
