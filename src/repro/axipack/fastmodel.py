"""Fast adapter model: window-exact coalescing, analytic timing.

The cycle model in :mod:`repro.axipack.adapter` is the reference, but a
pure-Python cycle loop is too slow for full-suite sweeps.  This model
reproduces the *coalescing decisions* of the cycle model exactly —
windows of W consecutive narrow requests, one CSHR, request warps per
distinct wide block in first-occurrence order, and the open-warp carry
across window swaps — and then derives the cycle count analytically as
the maximum over the pipeline's bottlenecks:

* narrow request generation / element packing (N per cycle, or 1 for
  the sequential variant's watcher scan),
* request-watcher warp retirement (one warp per cycle, parallel),
* the DRAM channel: the bank-state service timeline of
  :func:`repro.mem.timeline.service_timeline` — queue-bounded FR-FCFS
  row grouping with open-row tracking over the actual transaction
  streams (one timeline per memory channel for multi-channel sweeps).

Tests cross-validate both the wide-access counts (exact match required)
and the cycle counts (within a tolerance band) against the cycle model.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..config import AdapterConfig, DramConfig
from ..mem.timeline import service_timeline
from ..units import ceil_div
from .metrics import AdapterMetrics

#: pipeline fill latency added to the analytic cycle count (index fetch
#: round trip + adapter stage depth); small versus any real stream.
PIPELINE_FILL_CYCLES = 64


@dataclass(frozen=True)
class StreamAnalysis:
    """Window-independent per-stream artifacts, shared across variants.

    One index stream feeds many adapter configurations in a sweep; the
    wide-block id stream and its stable by-value sort depend only on
    the stream and the element/access geometry, so the engine computes
    them once per matrix (see :mod:`repro.engine.cache`) and every
    variant and window size reuses them.
    """

    #: wide-block id per narrow request.
    blocks: np.ndarray
    #: ``block_sort_order(blocks)``.
    order: np.ndarray
    #: element geometry the blocks were derived with.
    elements_per_block: int


def analyze_stream(indices: np.ndarray, elements_per_block: int) -> StreamAnalysis:
    """Precompute the shared coalescing analysis for one index stream."""
    blocks = np.ascontiguousarray(indices, dtype=np.int64) // elements_per_block
    return StreamAnalysis(blocks, block_sort_order(blocks), elements_per_block)


def _analysis_matches(
    analysis: StreamAnalysis, indices: np.ndarray, elements_per_block: int
) -> bool:
    """Sampled staleness check for a caller-provided analysis.

    Geometry and length must match exactly; stream content is compared
    at up to 16 evenly spread positions — enough to catch the common
    stale case (two suite streams truncated to the same budget) without
    rescanning the whole stream.  Callers passing a hand-built analysis
    for a *different* stream that agrees at every probe point get it
    accepted; the engine's keyed cache never does that.
    """
    count = int(indices.size)
    if analysis.elements_per_block != elements_per_block:
        return False
    if analysis.blocks.size != count:
        return False
    if count == 0:
        return True
    probes = np.linspace(0, count - 1, num=min(16, count), dtype=np.int64)
    return bool(
        np.array_equal(analysis.blocks[probes], indices[probes] // elements_per_block)
    )


def block_sort_order(blocks: np.ndarray) -> np.ndarray:
    """Stable by-value argsort of a block stream.

    This is the window-*independent* half of
    :func:`coalesce_window_exact`'s work: sweeps over many window sizes
    (or variants sharing one stream) compute it once and pass it via
    the ``order`` argument, which the engine's per-matrix analysis
    cache does automatically.
    """
    return np.argsort(np.asarray(blocks, dtype=np.int64), kind="stable")


def window_candidates(
    blocks: np.ndarray,
    window: int,
    order: np.ndarray | None = None,
    base_window: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-window warp candidates of a block stream, window-grouped.

    The window-*local* half of :func:`coalesce_window_exact`: a request
    is a warp candidate iff it is the first occurrence of its block
    within its W-request window, and candidates are returned in stream
    (first-occurrence) order as ``(cand, cand_win)`` — the block id and
    the window index of every candidate.

    Because the predicate never looks outside the request's own window,
    a stream chunked at *window-aligned* boundaries yields exactly the
    concatenation of its chunks' candidates — the property the engine's
    intra-matrix stream sharding relies on.  ``base_window`` offsets the
    reported window indices for such a chunk (pass
    ``chunk_start // window``).  ``order``, if given, must be
    ``block_sort_order(blocks)`` for the same (chunk of the) stream.
    """
    if blocks.size == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    blocks = np.asarray(blocks, dtype=np.int64)
    n = blocks.size
    if order is None:
        order = block_sort_order(blocks)

    # In the stable by-value order, an element's left neighbour within
    # its equal-block run is that block's previous occurrence in the
    # stream; the element opens a warp iff that neighbour lies in an
    # earlier window (or the run starts here).
    sorted_blocks = blocks[order]
    head = np.empty(n, dtype=bool)
    head[0] = True
    head[1:] = (sorted_blocks[1:] != sorted_blocks[:-1]) | (
        order[1:] // window != order[:-1] // window
    )
    opens = np.zeros(n, dtype=bool)
    opens[order[head]] = True
    first_pos = np.flatnonzero(opens)

    cand = blocks[first_pos]  # warp candidates, window-grouped,
    cand_win = first_pos // window  # in first-occurrence order
    if base_window:
        cand_win = cand_win + base_window
    return cand, cand_win


def resolve_window_carry(
    cand: np.ndarray, cand_win: np.ndarray, num_win: int
) -> tuple[int, np.ndarray]:
    """Collapse the carry-across-windows recurrence over candidates.

    The sequential half of :func:`coalesce_window_exact`, operating on
    the output of :func:`window_candidates` (possibly concatenated from
    window-aligned stream chunks — every window in ``[0, num_win)``
    must be populated, which holds for any contiguous stream).  Returns
    ``(total_wide_accesses, warp_tags)``.
    """
    if cand.size == 0:
        return 0, np.empty(0, dtype=np.int64)
    counts = np.bincount(cand_win, minlength=num_win)
    ends = np.cumsum(counts)
    last = cand[ends - 1]
    multi = counts >= 2
    no_carry = int(cand.min()) - 1  # sentinel below every real tag
    # Second-to-last candidate; the gather index is only meaningful
    # where the window has >= 2 candidates (masked below).
    second = np.where(multi, cand[ends - 2], no_carry)

    # Resolve x[t] = (K[t] == L[t]).  Transition into window t:
    #   x[t] = eqS[t-1] if (x[t-1] and multi[t-1]) else eqL[t-1]
    # where eqL = (L[t-1] == L[t]), eqS = (S[t-1] == L[t]).
    x = np.zeros(num_win, dtype=bool)
    if num_win > 1:
        gate = multi[:-1]
        eq_last = last[:-1] == last[1:]
        eq_second = gate & (second[:-1] == last[1:])
        # constant transitions (result ignores x[t-1]) anchor the scan;
        # between anchors every transition is identity or negation.
        const = ~gate | (eq_second == eq_last)
        neg = gate & ~eq_second & eq_last
        anchor_t = np.concatenate(([0], np.flatnonzero(const) + 1))
        anchor_v = np.concatenate(([False], eq_last[const]))
        neg_csum = np.concatenate(([0], np.cumsum(neg)))
        ai = np.searchsorted(anchor_t, np.arange(num_win), side="right") - 1
        parity = (neg_csum - neg_csum[anchor_t[ai]]) & 1
        x = anchor_v[ai] ^ parity.astype(bool)

    # Carry tag entering each window (no_carry = none yet).
    carry = np.full(num_win, no_carry, dtype=np.int64)
    if num_win > 1:
        carried_second = x[:-1] & multi[:-1]
        carry[1:] = np.where(carried_second, second[:-1], last[:-1])

    # A window's carry hit (at most one — candidates are distinct)
    # merges into the open warp at no new access; the rest are issued.
    tags = cand[cand != carry[cand_win]]
    return int(tags.size), tags


def coalesce_window_exact(
    blocks: np.ndarray, window: int, order: np.ndarray | None = None
) -> tuple[int, np.ndarray]:
    """Count wide element accesses for a W-window coalescer.

    ``blocks`` is the per-request wide-block id stream.  Returns
    ``(total_wide_accesses, warp_tags)`` where ``warp_tags`` is the
    block id of every issued warp in issue order (used for the DRAM
    bank/row walk).  ``order``, if given, must be
    ``block_sort_order(blocks)`` (precomputed for sweep reuse).

    Implements exactly the cycle model's grouping: all requests of one
    window that fall into the same block form one warp; a warp left
    open at a window swap keeps absorbing matching requests of the next
    window (cache-less reuse across windows).

    Fully vectorized; bit-exact against the retained per-window oracle
    :func:`repro.axipack.reference.coalesce_window_reference` (the
    property-based differential suite enforces this).  The work splits
    into two halves, exposed separately so the engine can shard a
    stream across workers and merge exactly:

    * :func:`window_candidates` — the window-local (and therefore
      chunkable) candidate extraction via the stable by-value sort: an
      element opens a warp iff its block's previous occurrence falls in
      an earlier window;
    * :func:`resolve_window_carry` — the sequential
      carry-across-windows dependence, collapsed analytically.  With
      ``K[t]`` the carry tag entering window ``t``, ``C[t]`` the
      window's distinct blocks in first-occurrence order, and ``L[t]``
      / ``S[t]`` the last / second-to-last entry of ``C[t]``, the
      oracle's update is exactly ``K[t+1] = S[t] if (K[t] == L[t] and
      |C[t]| >= 2) else L[t]``.  So only the *predicate* ``x[t] = (K[t]
      == L[t])`` couples consecutive windows, and its transition is one
      of four boolean maps (constant / identity / negation), which a
      prefix scan over anchor points and a negation-parity cumsum
      resolves without a Python loop.
    """
    if blocks.size == 0:
        return 0, np.empty(0, dtype=np.int64)
    cand, cand_win = window_candidates(blocks, window, order)
    num_win = (int(blocks.size) - 1) // window + 1
    return resolve_window_carry(cand, cand_win, num_win)


def _interleave_streams(elem_blocks: np.ndarray, idx_blocks: np.ndarray) -> np.ndarray:
    """Approximate the temporal interleaving of element and index
    transactions (both progress proportionally through the stream)."""
    total = len(elem_blocks) + len(idx_blocks)
    if total == 0:
        return np.empty(0, dtype=np.int64)
    merged = np.empty(total, dtype=np.int64)
    # Positions of index transactions spread evenly through the run.
    if len(idx_blocks):
        idx_pos = np.linspace(0, total - 1, num=len(idx_blocks)).astype(np.int64)
        idx_pos = np.unique(idx_pos)
        while len(idx_pos) < len(idx_blocks):  # collisions at tiny sizes
            extra = np.setdiff1d(np.arange(total), idx_pos)[: len(idx_blocks) - len(idx_pos)]
            idx_pos = np.sort(np.concatenate([idx_pos, extra]))
    else:
        idx_pos = np.empty(0, dtype=np.int64)
    mask = np.zeros(total, dtype=bool)
    mask[idx_pos] = True
    merged[mask] = idx_blocks
    merged[~mask] = elem_blocks
    return merged


def _channel_dram_cycles(
    merged: np.ndarray, dram: DramConfig, channels: int
) -> tuple[int, dict[str, int], float]:
    """Per-channel bank-state timelines over ``channels`` interleaved
    channels.

    Uses the same routing as :class:`repro.mem.multichannel.
    MultiChannelMemory` (consecutive wide blocks rotate across
    channels, i.e. ``block % channels``); the channel-select bits are
    stripped before each channel's bank/row decode (``block //
    channels``), matching the ``channel_stride`` decode the cycle-level
    channels apply behind the multi-channel router.  Each channel's
    transaction slice runs through its own
    :func:`repro.mem.timeline.service_timeline`; the service time is
    the slowest channel, the stats sum over channels, and the third
    return is the transaction-weighted row-hit rate.
    """
    if channels <= 1:
        result = service_timeline(merged, dram)
        return result.cycles, dict(result.stats), result.row_hit_rate
    cycles = 0
    stats: dict[str, int] = {}
    hits = txns = 0
    for channel in range(channels):
        result = service_timeline(
            merged[merged % channels == channel] // channels, dram
        )
        cycles = max(cycles, result.cycles)
        hits += result.row_hits
        txns += result.transactions
        for key, value in result.stats.items():
            stats[key] = stats.get(key, 0) + value
    return cycles, stats, (hits / txns if txns else 0.0)


def fast_metrics_from_tags(
    count: int,
    elem_txns: int,
    warp_tags: np.ndarray,
    config: AdapterConfig,
    dram_config: DramConfig | None = None,
    variant: str = "",
    channels: int = 1,
) -> AdapterMetrics:
    """Analytic pipeline timing for a pre-coalesced element stream.

    The back half of :func:`fast_indirect_stream`: given the wide
    element transaction count and the warp-tag issue stream (from
    :func:`coalesce_window_exact`, or merged from window-aligned chunks
    via :func:`resolve_window_carry`), derive the cycle count and
    metrics.  The engine's stream-sharding merge calls this directly so
    sharded and serial sweeps share one timing code path byte-for-byte.
    """
    dram = dram_config or DramConfig()
    idx_txns = ceil_div(count * config.index_bytes, dram.access_bytes)
    idx_blocks = np.arange(idx_txns, dtype=np.int64) + (1 << 22)  # separate region

    label = variant or _default_label(config)
    if not config.has_coalescer:
        watcher_cycles = 0
        gen_cycles = count  # one wide issue per request through one port
    else:
        assert config.coalescer is not None
        watcher_cycles = elem_txns + ceil_div(count, config.coalescer.window)
        # SEQx serialises the upsizer input to one request per cycle;
        # the watcher and coalesce rate are identical to MLPx.
        gen_cycles = (
            ceil_div(count, config.lanes) if config.coalescer.parallel else count
        )

    dram_cycles, dram_walk, row_hit_rate = _channel_dram_cycles(
        _interleave_streams(warp_tags, idx_blocks), dram, channels
    )
    pack_cycles = ceil_div(count, config.lanes)
    issue_cycles = elem_txns + idx_txns  # one wide request port

    # Stream-tail flush: the last open warp always waits out the
    # watchdog, and a ragged tail window waits out the regulator —
    # exactly as in the cycle model.
    tail_cycles = 0
    if config.has_coalescer:
        assert config.coalescer is not None
        tail_cycles += config.coalescer.watchdog_timeout
        if count % config.coalescer.window:
            tail_cycles += config.coalescer.regulator_timeout

    cycles = (
        max(gen_cycles, watcher_cycles, dram_cycles, pack_cycles, issue_cycles)
        + PIPELINE_FILL_CYCLES
        + tail_cycles
    )

    metrics = AdapterMetrics(
        variant=label,
        count=count,
        cycles=cycles,
        idx_txns=idx_txns,
        elem_txns=elem_txns,
        index_bytes=config.index_bytes,
        element_bytes=config.element_bytes,
        access_bytes=dram.access_bytes,
        freq_hz=dram.freq_hz,
        dram_stats=dram_walk,
    )
    metrics.extras["model"] = 1.0  # marker: fast model
    metrics.extras["dram_bound_cycles"] = float(dram_cycles)
    metrics.extras["dram_row_hit_rate"] = row_hit_rate
    metrics.extras["dram_utilization"] = min(
        1.0, (elem_txns + idx_txns) * dram.t_burst / (cycles * channels)
    )
    if channels > 1:
        metrics.extras["channels"] = float(channels)
    return metrics


def fast_indirect_stream(
    indices: np.ndarray,
    config: AdapterConfig,
    dram_config: DramConfig | None = None,
    variant: str = "",
    analysis: StreamAnalysis | None = None,
    channels: int = 1,
) -> AdapterMetrics:
    """Analytic counterpart of
    :func:`repro.axipack.adapter.run_indirect_stream`.

    Pass ``analysis`` (from :func:`analyze_stream`) when sweeping many
    variants over one stream to amortise the by-value sort; a stale
    analysis (wrong element geometry, length, or sampled stream
    content — see :func:`_analysis_matches`) falls back to recomputing.
    ``channels > 1`` prices a block-interleaved multi-channel memory
    (:class:`repro.mem.multichannel.MultiChannelMemory`), one bank-state
    timeline per channel: the ``multichannel`` sweep backend's fast path.
    """
    dram = dram_config or DramConfig()
    indices = np.ascontiguousarray(indices, dtype=np.int64)
    count = int(indices.size)
    elements_per_block = dram.access_bytes // config.element_bytes
    if analysis is not None and _analysis_matches(
        analysis, indices, elements_per_block
    ):
        blocks, sort_order = analysis.blocks, analysis.order
    else:
        blocks = indices // elements_per_block
        sort_order = None

    if not config.has_coalescer:
        elem_txns = count
        warp_tags = blocks
    else:
        assert config.coalescer is not None
        elem_txns, warp_tags = coalesce_window_exact(
            blocks, config.coalescer.window, sort_order
        )
    return fast_metrics_from_tags(
        count, elem_txns, warp_tags, config, dram, variant, channels
    )


def _default_label(config: AdapterConfig) -> str:
    if not config.has_coalescer:
        return "MLPnc"
    assert config.coalescer is not None
    prefix = "MLP" if config.coalescer.parallel else "SEQ"
    return f"{prefix}{config.coalescer.window}"
