"""Fast adapter model: window-exact coalescing, analytic timing.

The cycle model in :mod:`repro.axipack.adapter` is the reference, but a
pure-Python cycle loop is too slow for full-suite sweeps.  This model
reproduces the *coalescing decisions* of the cycle model exactly —
windows of W consecutive narrow requests, one CSHR, request warps per
distinct wide block in first-occurrence order, and the open-warp carry
across window swaps — and then derives the cycle count analytically as
the maximum over the pipeline's bottlenecks.

The coalescing itself runs in linear passes.  Each request's previous
occurrence of its block (:func:`previous_occurrence`, one sort, cached
per stream) decides whether it opens a warp in its window — one
comparison per request against the window's first position — and the
carry across window swaps collapses into a prefix scan over the
windows (:func:`resolve_window_carry`).

Every fast path prices through the same two functions,
:func:`price_memory` and :func:`price_variant`: the gather
(:func:`fast_indirect_stream`, also over several channels), the scatter
(:func:`repro.axipack.scatter.fast_indirect_scatter`) and the strided
burst (:func:`repro.axipack.strided.fast_strided_stream`, with no index
fetches).  The bottlenecks are:

* narrow request generation (N per cycle, or 1 for the sequential
  variant's upsizer) and element packing (N per cycle),
* request-watcher warp retirement (one warp per cycle, parallel),
* the one wide request port (element plus index transactions),
* the DRAM channel: the bank-state service timeline of
  :func:`repro.mem.timeline.service_timeline` — queue-bounded FR-FCFS
  row grouping with open-row tracking over the element transactions
  with the index fetches interleaved (one timeline per memory channel
  for multi-channel sweeps),

plus a fixed pipeline fill and the watchdog/regulator stream-tail
flush.  Tests cross-validate the wide-access counts (exact up to ±2)
and the cycle counts (within a tolerance band) of the gather and the
scatter against the cycle model.

The pricing splits in two.  :func:`price_memory` prices the memory
side — the coalesced element transactions and the DRAM timeline over
them and the interleaved index fetches — which depends only on the
stream, the window (none for the coalescer-less variant), the index
fetch count, the DRAM config and the channel count.
:func:`price_variant` applies the per-variant formula on top.  Every
variant, scatter or channel count whose memory side is the same — the
sequential SEQx shares MLPx's window, a scatter its gather's stream —
reuses one :class:`MemoryTerms`, memoised on the stream's
:class:`StreamAnalysis` (:meth:`StreamAnalysis.memory_terms`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..config import AdapterConfig, DramConfig, variant_label
from ..mem.timeline import empty_timeline, service_timeline
from ..units import ceil_div
from .metrics import AdapterMetrics

#: pipeline fill latency added to the analytic cycle count (index fetch
#: round trip + adapter stage depth); small versus any real stream.
PIPELINE_FILL_CYCLES = 64

#: distinct memory-term keys one :class:`StreamAnalysis` remembers,
#: oldest out first (a sweep over many channel counts cannot grow it
#: without limit).
MEMORY_TERMS_PER_ANALYSIS = 64


@dataclass(frozen=True)
class MemoryTerms:
    """The memory side of one priced stream (:func:`price_memory`),
    shared by every variant with the same key
    (:meth:`StreamAnalysis.memory_terms`); :func:`price_variant` copies
    ``dram_stats`` into each result.
    """

    #: coalesced wide element transactions.
    elem_txns: int
    #: wide index fetches interleaved into the DRAM stream.
    idx_txns: int
    #: memory channels the stream was spread over.
    channels: int
    #: DRAM service cycles (the slowest channel's timeline).
    dram_cycles: int
    #: timeline counters, summed over channels.
    dram_stats: dict[str, int]
    #: transaction-weighted row-hit rate.
    row_hit_rate: float


@dataclass(frozen=True)
class StreamAnalysis:
    """Window-independent per-stream artifacts, shared across variants.

    One index stream feeds many adapter configurations in a sweep; the
    wide-block id stream and each request's previous occurrence of its
    block depend only on the stream and the element/access geometry,
    so the engine computes them once per matrix (see
    :mod:`repro.engine.cache`) and every variant and window size reuses
    them.
    """

    #: wide-block id per narrow request.
    blocks: np.ndarray
    #: ``previous_occurrence(blocks)``.
    prev: np.ndarray
    #: element geometry the blocks were derived with.
    elements_per_block: int
    #: memoised :class:`MemoryTerms` by (window, index fetches, DRAM
    #: config, channels); dropped with the analysis.
    _terms: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def memory_terms(
        self, window: int | None, idx_txns: int, dram: DramConfig, channels: int = 1
    ) -> MemoryTerms:
        """:func:`price_memory` over these blocks, priced once per key.

        The key is everything the memory side depends on besides the
        stream, so SEQx reuses MLPx's terms and a scatter its gather's.
        """
        key = (window, idx_txns, dram, channels)
        terms = self._terms.get(key)
        if terms is None:
            if len(self._terms) >= MEMORY_TERMS_PER_ANALYSIS:
                self._terms.pop(next(iter(self._terms)))
            terms = price_memory(
                self.blocks, idx_txns, window, dram, self.prev, channels
            )
            self._terms[key] = terms
        return terms


def analyze_stream(indices: np.ndarray, elements_per_block: int) -> StreamAnalysis:
    """Precompute the shared coalescing analysis for one index stream."""
    blocks = np.ascontiguousarray(indices, dtype=np.int64) // elements_per_block
    return StreamAnalysis(blocks, previous_occurrence(blocks), elements_per_block)


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


def previous_occurrence(blocks: np.ndarray) -> np.ndarray:
    """Stream position of each request's previous request to the same
    block, or -1 for a block's first request.

    This is the window-*independent* half of
    :func:`coalesce_window_exact`'s work: sweeps over many window sizes
    (or variants sharing one stream) compute it once and pass it via
    the ``prev`` argument, which the engine's per-matrix analysis cache
    does automatically.

    One ``np.sort`` of the int64 key ``(block - min) * n + position``
    lines the requests up by block and, within a block, by position,
    so each request's left neighbour with the same block is its
    previous occurrence.  When that key would overflow int64 (far-apart
    ids), the blocks are replaced by their dense ranks first; ranks
    keep block equality and bound the key by ``n * n``.
    """
    blocks = np.asarray(blocks, dtype=np.int64)
    n = int(blocks.size)
    prev = np.full(n, -1, dtype=np.int64)
    if n < 2:
        return prev
    base = int(blocks.min())
    if (int(blocks.max()) - base + 1) * n > np.iinfo(np.int64).max:
        # Far-apart blocks: key on their dense ranks instead.
        key = np.unique(blocks, return_inverse=True)[1].astype(np.int64)
    else:
        key = blocks - base
    key *= n
    key += np.arange(n, dtype=np.int64)
    key.sort()
    pos = key % n
    key -= pos  # the block part alone
    prev[pos[1:]] = np.where(key[1:] == key[:-1], pos[:-1], -1)
    return prev


def window_candidates(
    blocks: np.ndarray, window: int, prev: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Per-window warp candidates of a block stream, window-grouped.

    The window-*local* half of :func:`coalesce_window_exact`: a request
    is a warp candidate iff it is the first occurrence of its block
    within its W-request window — iff its block's previous occurrence
    lies before the window's first request — and candidates are
    returned in stream (first-occurrence) order as ``(cand,
    cand_win)``: the block id and the window index of every candidate.
    ``prev``, if given, must be ``previous_occurrence(blocks)``.
    """
    if blocks.size == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    blocks = np.asarray(blocks, dtype=np.int64)
    n = blocks.size
    if prev is None:
        prev = previous_occurrence(blocks)

    # starts[i] is the first position of request i's window (a window
    # longer than the stream is one window, not a window-sized array).
    starts = np.repeat(np.arange(0, n, window, dtype=np.int64), min(window, n))[:n]
    first_pos = np.flatnonzero(prev < starts)

    cand = blocks[first_pos]  # warp candidates, window-grouped,
    cand_win = first_pos // window  # in first-occurrence order
    return cand, cand_win


def resolve_window_carry(
    cand: np.ndarray, cand_win: np.ndarray, num_win: int
) -> tuple[int, np.ndarray]:
    """Collapse the carry-across-windows recurrence over candidates.

    The sequential half of :func:`coalesce_window_exact`, operating on
    the output of :func:`window_candidates` (every window in ``[0,
    num_win)`` must be populated, which holds for any contiguous
    stream).  Returns ``(total_wide_accesses, warp_tags)``.
    """
    if cand.size == 0:
        return 0, np.empty(0, dtype=np.int64)
    counts = np.bincount(cand_win, minlength=num_win)
    ends = np.cumsum(counts)
    last = cand[ends - 1]
    multi = counts >= 2
    # Second-to-last candidate; it is only meaningful where the window
    # has >= 2 candidates, and every use below is masked by ``multi``.
    second = cand[ends - 2]

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

    # Carry tag entering each window; window 0 has none, so carry[0]
    # is never compared (its candidates are all issued below).
    carry = np.empty(num_win, dtype=np.int64)
    if num_win > 1:
        carried_second = x[:-1] & multi[:-1]
        carry[1:] = np.where(carried_second, second[:-1], last[:-1])

    # A window's carry hit (at most one — candidates are distinct)
    # merges into the open warp at no new access; the rest are issued.
    issued = cand != carry[cand_win]
    issued[: ends[0]] = True
    tags = cand[issued]
    return int(tags.size), tags


def coalesce_window_exact(
    blocks: np.ndarray, window: int, prev: np.ndarray | None = None
) -> tuple[int, np.ndarray]:
    """Count wide element accesses for a W-window coalescer.

    ``blocks`` is the per-request wide-block id stream.  Returns
    ``(total_wide_accesses, warp_tags)`` where ``warp_tags`` is the
    block id of every issued warp in issue order (used for the DRAM
    bank/row walk).  ``prev``, if given, must be
    ``previous_occurrence(blocks)`` (precomputed for sweep reuse).

    Implements exactly the cycle model's grouping: all requests of one
    window that fall into the same block form one warp; a warp left
    open at a window swap keeps absorbing matching requests of the next
    window (cache-less reuse across windows).

    Fully vectorized; bit-exact against the retained per-window oracle
    :func:`repro.axipack.reference.coalesce_window_reference` (the
    property-based differential suite enforces this).  The work splits
    into two halves:

    * :func:`window_candidates` — the window-local candidate
      extraction, one comparison per request against the cached
      :func:`previous_occurrence` array: an element opens a warp iff
      its block's previous occurrence falls before its window's first
      request;
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
    cand, cand_win = window_candidates(blocks, window, prev)
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
        # linspace never decreases, so dropping adjacent repeats is
        # np.unique without its sort.
        idx_pos = np.linspace(0, total - 1, num=len(idx_blocks)).astype(np.int64)
        idx_pos = idx_pos[np.concatenate(([True], idx_pos[1:] != idx_pos[:-1]))]
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
    channels apply behind the multi-channel router.  One stable sort
    groups the stream by channel, keeping each channel's transactions
    in stream order, and each channel that gets traffic runs through
    its own :func:`repro.mem.timeline.service_timeline` — an idle
    channel adds nothing, so the cost follows the stream, not the
    channel count.  The service time is the slowest channel, the stats
    sum over channels (from the empty timeline's zero counters), and
    the third return is the transaction-weighted row-hit rate.
    """
    if channels <= 1:
        result = service_timeline(merged, dram)
        return result.cycles, dict(result.stats), result.row_hit_rate
    cycles = 0
    stats = dict(empty_timeline(dram).stats)
    hits = txns = 0
    channel = merged % channels
    order = np.argsort(channel, kind="stable")
    channel = channel[order]
    bounds = np.flatnonzero(channel[1:] != channel[:-1]) + 1
    for part in np.split(merged[order] // channels, bounds):
        result = service_timeline(part, dram)
        cycles = max(cycles, result.cycles)
        hits += result.row_hits
        txns += result.transactions
        for key, value in result.stats.items():
            stats[key] += value
    return cycles, stats, (hits / txns if txns else 0.0)


def price_memory(
    blocks: np.ndarray,
    idx_txns: int,
    window: int | None,
    dram: DramConfig,
    prev: np.ndarray | None = None,
    channels: int = 1,
) -> MemoryTerms:
    """The memory side of a wide-block request stream's pricing.

    ``blocks`` (the wide-block id of every narrow request, in stream
    order) coalesce window-exactly (:func:`coalesce_window_exact`;
    ``window=None`` is the coalescer-less variant, one wide access per
    request), ``idx_txns`` index fetches interleave into the element
    transactions, and the merged stream runs through the bank-state
    timeline of each of ``channels`` channels.  ``prev``, if given,
    must be ``previous_occurrence(blocks)``.
    """
    if window is None:
        elem_txns, warp_tags = int(blocks.size), blocks
    else:
        elem_txns, warp_tags = coalesce_window_exact(blocks, window, prev)
    idx_blocks = np.arange(idx_txns, dtype=np.int64) + (1 << 22)  # separate region
    dram_cycles, dram_stats, row_hit_rate = _channel_dram_cycles(
        _interleave_streams(warp_tags, idx_blocks), dram, channels
    )
    return MemoryTerms(
        elem_txns, idx_txns, channels, dram_cycles, dram_stats, row_hit_rate
    )


def price_variant(
    count: int,
    config: AdapterConfig,
    dram: DramConfig,
    memory: MemoryTerms,
    variant: str = "",
) -> AdapterMetrics:
    """The fast model's one timing formula, over a ``count``-request
    stream whose memory side is ``memory`` (:func:`price_memory`).

    The cycle count is the slowest of request generation, watcher
    retirement, the DRAM timeline, packing and the one wide issue port,
    plus :data:`PIPELINE_FILL_CYCLES` and the stream-tail flush; each
    term lands in ``extras`` (``gen_cycles`` … ``tail_cycles``, with the
    DRAM term as ``dram_bound_cycles``).
    """
    elem_txns, idx_txns, channels = memory.elem_txns, memory.idx_txns, memory.channels
    coalescer = config.coalescer
    if coalescer is None:
        # One wide issue per request through one port.
        gen_cycles, watcher_cycles, tail_cycles = count, 0, 0
    else:
        watcher_cycles = elem_txns + ceil_div(count, coalescer.window)
        # SEQx serialises the upsizer input to one request per cycle;
        # the watcher and coalesce rate are identical to MLPx.
        gen_cycles = ceil_div(count, config.lanes) if coalescer.parallel else count
        # Stream-tail flush: the last open warp always waits out the
        # watchdog, and a ragged tail window waits out the regulator —
        # exactly as in the cycle model.
        tail_cycles = coalescer.watchdog_timeout
        if count % coalescer.window:
            tail_cycles += coalescer.regulator_timeout

    dram_cycles = memory.dram_cycles
    pack_cycles = ceil_div(count, config.lanes)
    issue_cycles = elem_txns + idx_txns  # one wide request port
    cycles = (
        max(gen_cycles, watcher_cycles, dram_cycles, pack_cycles, issue_cycles)
        + PIPELINE_FILL_CYCLES
        + tail_cycles
    )

    metrics = AdapterMetrics(
        variant=variant or variant_label(config),
        count=count,
        cycles=cycles,
        idx_txns=idx_txns,
        elem_txns=elem_txns,
        index_bytes=config.index_bytes,
        element_bytes=config.element_bytes,
        access_bytes=dram.access_bytes,
        freq_hz=dram.freq_hz,
        dram_stats=dict(memory.dram_stats),
    )
    extras = metrics.extras
    extras["model"] = 1.0  # marker: fast model
    extras["gen_cycles"] = float(gen_cycles)
    extras["watcher_cycles"] = float(watcher_cycles)
    extras["dram_bound_cycles"] = float(dram_cycles)
    extras["pack_cycles"] = float(pack_cycles)
    extras["issue_cycles"] = float(issue_cycles)
    extras["fill_cycles"] = float(PIPELINE_FILL_CYCLES)
    extras["tail_cycles"] = float(tail_cycles)
    extras["dram_row_hit_rate"] = memory.row_hit_rate
    extras["dram_utilization"] = min(
        1.0, (elem_txns + idx_txns) * dram.t_burst / (cycles * channels)
    )
    if channels > 1:
        extras["channels"] = float(channels)
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

    Resolves the stream's wide blocks and index fetches and prices them
    with :func:`price_memory` and :func:`price_variant`.  Pass
    ``analysis`` (from :func:`analyze_stream`) when sweeping many
    variants over one stream: it amortises the previous-occurrence sort,
    and its memo prices each memory side once
    (:meth:`StreamAnalysis.memory_terms`), so only the per-variant
    formula runs again.  A stale analysis (wrong element
    geometry, length, or sampled stream content — see
    :func:`_analysis_matches`) falls back to recomputing.  ``channels >
    1`` prices a block-interleaved multi-channel memory
    (:class:`repro.mem.multichannel.MultiChannelMemory`), one bank-state
    timeline per channel: the ``multichannel`` sweep backend's fast path.
    """
    dram = dram_config or DramConfig()
    indices = np.ascontiguousarray(indices, dtype=np.int64)
    elements_per_block = dram.access_bytes // config.element_bytes
    idx_txns = ceil_div(int(indices.size) * config.index_bytes, dram.access_bytes)
    window = config.coalescer.window if config.has_coalescer else None
    if analysis is not None and _analysis_matches(
        analysis, indices, elements_per_block
    ):
        memory = analysis.memory_terms(window, idx_txns, dram, channels)
    else:
        memory = price_memory(
            indices // elements_per_block, idx_txns, window, dram, channels=channels
        )
    return price_variant(int(indices.size), config, dram, memory, variant)
