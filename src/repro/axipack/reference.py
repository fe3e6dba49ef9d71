"""Reference (oracle) implementations of the fast paths' hot loops.

Deliberately simple per-window / per-transaction / per-row loops kept
as differential-test oracles: the vectorized implementations must
match them *bit-exactly* (wide-access counts, warp-tag issue order,
cycle estimates, SELL arrays, LLC hits and misses) on arbitrary
inputs.

Provenance differs between them:

* :func:`coalesce_window_reference` is the verbatim seed
  implementation of ``coalesce_window_exact`` — the battle-tested
  original the vectorized rewrite replaced;
* :func:`service_timeline_reference` is the naive per-queue-window
  walk of the bank-state timeline contract that
  :func:`repro.mem.timeline.service_timeline` vectorises — dicts and
  Python loops, nothing shared with the segmented-reduction
  implementation;
* :func:`sell_from_csr_reference` and :func:`baseline_llc_reference`
  are the verbatim per-row SELL-C build and per-nonzero baseline LLC
  trace loop that :meth:`repro.sparse.sell.SellMatrix.from_csr` and
  ``repro.vpc.baseline.BaselineSystem._simulate_cache`` replaced with
  whole-array builds.

Do not call these from sweep code — they are orders of magnitude slower
than the vectorized versions and exist only to pin their semantics.
"""

from __future__ import annotations

import numpy as np

from ..config import DramConfig
from ..sparse.csr import CsrMatrix
from ..sparse.sell import SellMatrix


def coalesce_window_reference(
    blocks: np.ndarray, window: int
) -> tuple[int, np.ndarray]:
    """Oracle for :func:`repro.axipack.fastmodel.coalesce_window_exact`.

    Walks the stream window by window, exactly as the cycle model's
    regulator/watcher pair does: all requests of one window that fall
    into the same wide block form one warp; a warp left open at a window
    swap keeps absorbing matching requests of the next window.
    """
    if blocks.size == 0:
        return 0, np.empty(0, dtype=np.int64)
    blocks = np.asarray(blocks, dtype=np.int64)
    tags: list[int] = []
    carry_tag: int | None = None
    for start in range(0, len(blocks), window):
        chunk = blocks[start : start + window]
        distinct, first_pos = np.unique(chunk, return_index=True)
        # Process in first-occurrence order, as the watcher's
        # oldest-unabsorbed scan does.
        order = np.argsort(first_pos)
        ordered = distinct[order]
        if carry_tag is not None and carry_tag in distinct:
            # The open warp absorbs its hits first, at no new access.
            ordered = ordered[ordered != carry_tag]
            if ordered.size == 0:
                continue  # whole window merged into the open warp
            tags.extend(int(b) for b in ordered)
            carry_tag = int(ordered[-1])
        else:
            # The previously open warp (if any) was already counted at
            # arming time; new distinct blocks each open one warp.
            tags.extend(int(b) for b in ordered)
            carry_tag = int(ordered[-1])
    return len(tags), np.asarray(tags, dtype=np.int64)


def service_timeline_reference(
    blocks: np.ndarray, dram: DramConfig, queue_depth: int | None = None
):
    """Oracle for :func:`repro.mem.timeline.service_timeline`.

    Walks the stream one queue window (``2 * queue_depth``
    transactions — queue contents plus the refill admitted while they
    are served) at a time, exactly as the timeline contract specifies:
    within a window every bank serves its requests grouped by row, the
    carried open row (if requested anywhere in the window) costs no
    activate, every other distinct row costs one, and the window's
    service time is the slower of the data bus and the busiest bank.
    The row a bank leaves open is that of its newest request in the
    window (most-recent-arrival open-adaptive policy).  Returns the
    same :class:`repro.mem.timeline.TimelineResult`.
    """
    from ..mem.timeline import TimelineResult

    depth = dram.queue_depth if queue_depth is None else int(queue_depth)
    if depth < 1:
        raise ValueError("queue depth must be >= 1")
    horizon = 2 * depth
    blocks = np.asarray(blocks, dtype=np.int64)
    n = int(blocks.size)
    bank_busy = np.zeros(dram.num_banks, dtype=np.int64)
    if n == 0:
        return TimelineResult(0, 0, 0, 0, 0, 0, bank_busy, 0)

    open_row: dict[int, int] = {}
    cycles = 0
    activates = row_hits = row_conflicts = cold_activates = 0
    windows = 0
    for start in range(0, n, horizon):
        chunk = blocks[start : start + horizon]
        windows += 1
        per_bank: dict[int, list[int]] = {}
        for block in chunk:
            bank = int(block) % dram.num_banks
            row = int(block) // (dram.num_banks * dram.blocks_per_row)
            per_bank.setdefault(bank, []).append(row)
        window_time = len(chunk) * dram.t_burst
        for bank, bank_rows in per_bank.items():
            distinct = set(bank_rows)
            carried = open_row.get(bank)
            hit_group = 1 if carried in distinct else 0
            acts = len(distinct) - hit_group
            if bank not in open_row:
                # The bank's very first activate is cold; any further
                # activate in the same window already replaces a row.
                cold_activates += 1
                row_conflicts += acts - 1
            else:
                row_conflicts += acts
            activates += acts
            row_hits += len(bank_rows) - acts
            bank_time = max(len(bank_rows) * dram.t_burst, acts * dram.t_rc)
            bank_busy[bank] += bank_time
            window_time = max(window_time, bank_time)
            open_row[bank] = bank_rows[-1]
        cycles += window_time

    refreshes = 0
    if dram.t_refi > 0:
        refreshes = cycles // dram.t_refi
        cycles += refreshes * dram.t_rfc
    return TimelineResult(
        cycles=int(cycles),
        activates=activates,
        row_hits=row_hits,
        row_conflicts=row_conflicts,
        cold_activates=cold_activates,
        refreshes=int(refreshes),
        bank_busy=bank_busy,
        queue_windows=windows,
    )


def sell_from_csr_reference(csr: CsrMatrix, chunk: int = 32) -> SellMatrix:
    """Oracle for :meth:`repro.sparse.sell.SellMatrix.from_csr`: one
    slice and one row at a time."""
    nrows, ncols = csr.shape
    nslices = -(-nrows // chunk)
    row_lengths = csr.row_lengths()

    slice_widths = np.zeros(nslices, dtype=np.int64)
    for s in range(nslices):
        lo, hi = s * chunk, min((s + 1) * chunk, nrows)
        slice_widths[s] = row_lengths[lo:hi].max() if hi > lo else 0

    slice_ptr = np.zeros(nslices + 1, dtype=np.int64)
    np.cumsum(slice_widths * chunk, out=slice_ptr[1:])

    col_idx = np.zeros(slice_ptr[-1], dtype=SellMatrix.INDEX_DTYPE)
    val = np.zeros(slice_ptr[-1], dtype=SellMatrix.VALUE_DTYPE)

    for s in range(nslices):
        width = slice_widths[s]
        if width == 0:
            continue
        base = slice_ptr[s]
        for r_local in range(chunk):
            row = s * chunk + r_local
            # Destination stride: column-of-slice major layout.
            dst = base + r_local + np.arange(width) * chunk
            if row >= nrows or row_lengths[row] == 0:
                col_idx[dst] = 0
                continue
            lo, hi = csr.row_ptr[row], csr.row_ptr[row + 1]
            length = hi - lo
            col_idx[dst[:length]] = csr.col_idx[lo:hi]
            val[dst[:length]] = csr.val[lo:hi]
            # Pad by repeating the last valid index with value 0.
            col_idx[dst[length:]] = csr.col_idx[hi - 1]
    return SellMatrix(
        nrows, ncols, chunk, slice_ptr, slice_widths, col_idx, val, csr.nnz
    )


def baseline_llc_reference(matrix: CsrMatrix, llc, line: int) -> tuple[int, int]:
    """Oracle for ``repro.vpc.baseline.BaselineSystem._simulate_cache``:
    one :meth:`~repro.vpc.llc.LruCache.access` call per trace access,
    in trace order.  Returns the vector accesses' (hits, misses)."""
    idx_per_line = line // 4
    val_per_line = line // 8
    # Distinct address regions (line ids offset far apart).
    vec_region = 0
    idx_region = 1 << 40
    val_region = 1 << 41

    vec_lines = (matrix.col_idx.astype(np.int64) * 8) // line
    hits = misses = 0
    for j in range(matrix.nnz):
        if j % idx_per_line == 0:
            llc.access(idx_region + (j // idx_per_line) * line)
        if j % val_per_line == 0:
            llc.access(val_region + (j // val_per_line) * line)
        if llc.access(vec_region + int(vec_lines[j]) * line):
            hits += 1
        else:
            misses += 1
    return hits, misses
