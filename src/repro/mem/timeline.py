"""Bank-state DRAM service timeline for the fast models.

The fast adapter models used to price DRAM with a two-term analytic
bound — ``max(bus occupancy, t_rc * max-activates-per-bank)`` — which
ignores the two controller properties the paper's coalescer actually
interacts with: the **bounded read queue** (the controller only reorders
among the requests it can see) and **FR-FCFS first-ready scheduling**
(requests to an already-open row are served before older row misses, so
same-row requests co-resident in the queue cost one activate).

:func:`service_timeline` replaces that bound with a per-bank state
timeline replay.  The transaction stream is walked in *queue windows*
of ``2 * queue_depth`` transactions — the queue's contents plus the
refill the controller admits while serving them (requests retire one
by one, so the reorder horizon a request actually experiences spans
about two queue depths; cross-validation against the cycle channel
confirms the factor).  A window is ingested, scheduled, and only then
does the next begin — the conservative model of a bounded queue (the
cycle model in :mod:`repro.mem.dram` refills continuously and is the
reference).  Within one queue window the scheduler is FR-FCFS:

* every bank serves its requests **grouped by row** — all requests to
  one row in the window share a single activate;
* the row left open by the bank's previous traffic is served first and
  costs **no** activate (the "first-ready" row hits);
* each remaining distinct row costs one activate, and a bank's
  activates are spaced ``t_rc`` apart.

The open-adaptive page policy is modelled as *most-recent-arrival*: the
row a bank leaves open after a window is the row of its newest request
in that window.  Because the carried row therefore never depends on the
scheduler's choices, every queue window can be priced independently and
the whole replay vectorises into a handful of sorts and segmented
reductions — the same discipline :func:`repro.axipack.fastmodel.
coalesce_window_exact` uses.

The service time of one queue window is the slower of the data bus
(``t_burst`` per transaction) and the busiest bank
(``max(r * t_burst, a * t_rc)`` for ``r`` requests needing ``a``
activates — column bursts and activate spacing respectively); total
service time is the sum over windows plus the same tREFI/tRFC refresh
stall accounting the cycle channel uses.  Note how the old bound is
recovered at both extremes: an unbounded queue over a single row run is
pure bus occupancy, and a row-thrashing stream (every request a new
row) degenerates to the activate bound exactly — the timeline is never
below the legacy bound on such streams, which the property suite pins.

Responses may complete out of order across banks; the AXI front
(:mod:`repro.mem.reorder`) restores per-ID ordering, so service-order
choices inside a window never affect the total cycle count — only the
activate/bus accounting does.

A deliberately naive pure-Python walk of the same contract lives in
:func:`repro.axipack.reference.service_timeline_reference`; the
vectorized implementation here must match it **bit-exactly** (cycles,
stats, per-bank busy cycles) on arbitrary streams, and a differential
tier cross-validates both against the cycle-accurate
:class:`repro.mem.dram.DramChannel` on the matrix suite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..config import DramConfig


@dataclass(frozen=True)
class TimelineResult:
    """Outcome of one bank-state timeline replay.

    ``bank_busy`` holds per-bank busy cycles (activate spacing and
    column bursts), summed over queue windows; a bank's occupancy is
    its share of the total service time.
    """

    #: total service cycles, including refresh stalls.
    cycles: int
    #: activates issued (row misses + conflicts; one per distinct row
    #: per bank per queue window, minus open-row hits).
    activates: int
    #: transactions served without a new activate.
    row_hits: int
    #: activates that replaced a different open row.
    row_conflicts: int
    #: first-ever activate of each touched bank.
    cold_activates: int
    #: refresh stalls charged (``cycles // t_refi`` of the pre-refresh
    #: service time, each costing ``t_rfc``).
    refreshes: int
    #: per-bank busy cycles, length ``num_banks``.
    bank_busy: np.ndarray
    #: queue windows the stream was replayed through.
    queue_windows: int

    @property
    def transactions(self) -> int:
        return self.row_hits + self.activates

    @property
    def row_hit_rate(self) -> float:
        """Transactions served on an already-open row."""
        if self.transactions == 0:
            return 0.0
        return self.row_hits / self.transactions

    def occupancy(self) -> np.ndarray:
        """Per-bank busy fraction of the total service time."""
        if self.cycles == 0:
            return np.zeros_like(self.bank_busy, dtype=np.float64)
        return self.bank_busy / self.cycles

    @property
    def stats(self) -> dict[str, int]:
        """Flat counter view (store/metrics friendly)."""
        return {
            "activates": self.activates,
            "row_hits": self.row_hits,
            "row_conflicts": self.row_conflicts,
            "cold_activates": self.cold_activates,
            "refreshes": self.refreshes,
            "queue_windows": self.queue_windows,
        }


def _empty_result(dram: DramConfig) -> TimelineResult:
    return TimelineResult(
        cycles=0,
        activates=0,
        row_hits=0,
        row_conflicts=0,
        cold_activates=0,
        refreshes=0,
        bank_busy=np.zeros(dram.num_banks, dtype=np.int64),
        queue_windows=0,
    )


def service_timeline(
    blocks: np.ndarray, dram: DramConfig, queue_depth: int | None = None
) -> TimelineResult:
    """Replay a wide-transaction stream through the bank-state timeline.

    ``blocks`` is the wide-block id of every transaction in issue
    order (the warp-tag stream of the coalescing models); bank and row
    decode exactly as in :class:`repro.mem.dram.DramChannel`
    (``block % num_banks`` / ``block // (num_banks * blocks_per_row)``).
    ``queue_depth`` overrides ``dram.queue_depth``; the replay's
    reorder horizon is ``2 * queue_depth`` (see the module docstring).

    Fully vectorized — sorts and segmented reductions only; bit-exact
    against :func:`repro.axipack.reference.service_timeline_reference`
    (enforced by the property-based differential suite).
    """
    depth = dram.queue_depth if queue_depth is None else int(queue_depth)
    if depth < 1:
        raise ValueError("queue depth must be >= 1")
    horizon = 2 * depth
    blocks = np.ascontiguousarray(blocks, dtype=np.int64)
    n = int(blocks.size)
    if n == 0:
        return _empty_result(dram)

    num_banks = dram.num_banks
    banks = blocks % num_banks
    rows = blocks // (num_banks * dram.blocks_per_row)
    window = np.arange(n, dtype=np.int64) // horizon
    num_windows = int(window[-1]) + 1

    # Row of each request's previous same-bank request (stream order),
    # with a below-every-row sentinel where the bank is untouched so
    # far (rows can be negative, so -1 is not safe).  The stable
    # by-bank sort keeps stream order inside each bank's run.
    no_row = int(rows.min()) - 1
    by_bank = np.argsort(banks, kind="stable")
    prev_row = np.full(n, no_row, dtype=np.int64)
    same_bank = banks[by_bank][1:] == banks[by_bank][:-1]
    prev_row[by_bank[1:][same_bank]] = rows[by_bank][:-1][same_bank]

    # (queue window, bank) groups, window-major; stream order inside a
    # group is preserved by the stable sort.
    key = window * num_banks + banks
    by_group = np.argsort(key, kind="stable")
    key_sorted = key[by_group]
    rows_grouped = rows[by_group]
    starts = np.flatnonzero(np.r_[True, key_sorted[1:] != key_sorted[:-1]])
    group_key = key_sorted[starts]
    group_bank = group_key % num_banks
    group_window = group_key // num_banks
    group_size = np.diff(np.r_[starts, n])

    # Carried open row entering each group = the previous same-bank
    # row of the group's first (oldest) request — necessarily from an
    # earlier queue window, since a group holds all of its bank's
    # requests of one window.
    carry_in = prev_row[by_group[starts]]

    # First-ready hit: the carried row appears anywhere in the group
    # (FR-FCFS serves those requests before any precharge).
    carry_hit = np.bitwise_or.reduceat(
        rows_grouped == np.repeat(carry_in, group_size), starts
    )

    # Distinct rows per group via a second, by-row sort; group order
    # (ascending key) matches the by-group sort above.
    by_row = np.lexsort((rows, key))
    new_group = np.r_[True, key[by_row][1:] != key[by_row][:-1]]
    new_row = new_group | np.r_[True, rows[by_row][1:] != rows[by_row][:-1]]
    distinct_rows = np.add.reduceat(new_row.astype(np.int64), np.flatnonzero(new_group))

    activates = distinct_rows - carry_hit.astype(np.int64)
    bank_time = np.maximum(group_size * dram.t_burst, activates * dram.t_rc)

    # One queue window's service time: data bus vs its busiest bank.
    window_starts = np.flatnonzero(np.r_[True, group_window[1:] != group_window[:-1]])
    bank_max = np.maximum.reduceat(bank_time, window_starts)
    bus = np.bincount(window, minlength=num_windows) * dram.t_burst
    cycles = int(np.maximum(bus, bank_max).sum())

    refreshes = 0
    if dram.t_refi > 0:
        refreshes = cycles // dram.t_refi
        cycles += refreshes * dram.t_rfc

    bank_busy = np.zeros(num_banks, dtype=np.int64)
    np.add.at(bank_busy, group_bank, bank_time)
    total_activates = int(activates.sum())
    cold = int(np.count_nonzero(carry_in == no_row))
    return TimelineResult(
        cycles=cycles,
        activates=total_activates,
        row_hits=n - total_activates,
        row_conflicts=total_activates - cold,
        cold_activates=cold,
        refreshes=int(refreshes),
        bank_busy=bank_busy,
        queue_windows=num_windows,
    )

