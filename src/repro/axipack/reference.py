"""Reference (oracle) implementations of the fast model's hot paths.

Deliberately simple per-window / per-transaction loops kept as
differential-test oracles: the vectorized implementations in
:mod:`repro.axipack.fastmodel` must match them *bit-exactly*
(wide-access counts, warp-tag issue order, cycle estimates) on
arbitrary streams.

Provenance differs between the two:

* :func:`coalesce_window_reference` is the verbatim seed
  implementation of ``coalesce_window_exact`` — the battle-tested
  original the vectorized rewrite replaced;
* :func:`service_timeline_reference` is the naive per-queue-window
  walk of the bank-state timeline contract that
  :func:`repro.mem.timeline.service_timeline` vectorises — dicts and
  Python loops, nothing shared with the segmented-reduction
  implementation.

Do not call these from sweep code — they are orders of magnitude slower
than the vectorized versions and exist only to pin their semantics.
"""

from __future__ import annotations

import numpy as np

from ..config import DramConfig


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
