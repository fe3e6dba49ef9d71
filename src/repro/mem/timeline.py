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
the whole replay vectorises into **one sort** and segmented reductions
over it — the same discipline :func:`repro.axipack.fastmodel.
coalesce_window_exact` uses.  Every request gets a bank-major composite
key ``(bank, queue window, row, slot)``, where the slot is its place in
its window, so every key is distinct and a plain ``np.sort`` of the
keys (no argsort, no gather) lines the stream up such that:

* each ``(bank, window)`` group is one run of the sorted keys, and each
  of its distinct rows one run of equal ``(bank, window, row)`` — group
  sizes and distinct-row counts are run lengths;
* a group's newest request is its largest slot (``np.maximum.reduceat``
  over the runs), and because the order is bank-major the group just
  before it is the same bank's previous window, so the row carried
  into a group is the newest row of the previous group when the two
  share a bank;
* the carried row is a first-ready hit exactly when the group's
  ``(bank, window)`` with the carried row is among the sorted runs —
  one ``np.searchsorted``;
* each window's busiest bank and each bank's busy total scatter over
  the groups (``np.maximum.at`` / ``np.add.at``), never through a dense
  bank x window table, whose size would grow as the queue shrinks.

Rows enter the key as offsets from the stream's lowest row.  When
``banks x windows x row span x 2 * queue_depth`` would not fit in
int64 (far-apart ids), the rows are replaced by their dense ranks
first, which keeps row equality and shrinks the span to the number of
distinct rows; the rest of the replay is the same.

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

#: Largest composite sort key (int64 max).
_KEY_LIMIT = np.iinfo(np.int64).max


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


def empty_timeline(dram: DramConfig) -> TimelineResult:
    """The replay of an empty stream: every counter zero."""
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

    Fully vectorized — one sort and segmented reductions over it;
    bit-exact against
    :func:`repro.axipack.reference.service_timeline_reference`
    (enforced by the property-based differential suite).  Raises
    ``ValueError`` for a queue depth below 1, or for a stream whose
    sort key would overflow int64 even over dense row ranks.
    """
    depth = dram.queue_depth if queue_depth is None else int(queue_depth)
    if depth < 1:
        raise ValueError("queue depth must be >= 1")
    horizon = 2 * depth
    blocks = np.ascontiguousarray(blocks, dtype=np.int64)
    n = int(blocks.size)
    if n == 0:
        return empty_timeline(dram)

    num_banks = dram.num_banks
    num_windows = -(-n // horizon)
    banks = blocks & (num_banks - 1)  # num_banks is a power of two
    rows = blocks // (num_banks * dram.blocks_per_row)
    row_base = int(rows.min())
    row_span = int(rows.max()) - row_base + 1
    if num_banks * num_windows * row_span * horizon > _KEY_LIMIT:
        # Far-apart rows: key on their dense ranks instead.
        distinct, rows = np.unique(rows, return_inverse=True)
        row_base, row_span = 0, int(distinct.size)
        if num_banks * num_windows * row_span * horizon > _KEY_LIMIT:
            raise ValueError("stream too long for the int64 timeline key")
    rows -= row_base

    # One sort of the bank-major key (bank, queue window, row, slot).
    # The slot — the request's place in its window — makes every key
    # distinct and keeps the stream position inside the sorted key.
    window = np.repeat(np.arange(num_windows, dtype=np.int64), horizon)[:n]
    slot = np.tile(np.arange(horizon, dtype=np.int64), num_windows)[:n]
    key = ((banks * num_windows + window) * row_span + rows) * horizon + slot
    key.sort()

    # Runs of equal (bank, window, row) are a group's distinct rows;
    # runs of equal (bank, window) among them are the groups.  A run's
    # last key holds its newest slot.
    cell = key // horizon
    run_last = np.flatnonzero(np.r_[cell[1:] != cell[:-1], True])
    run_cell = cell[run_last]
    run_slot = key[run_last] - run_cell * horizon
    run_group = run_cell // row_span
    group_first = np.flatnonzero(np.r_[True, run_group[1:] != run_group[:-1]])
    group_id = run_group[group_first]
    group_bank = group_id // num_windows
    group_window = group_id - group_bank * num_windows
    group_end = np.r_[group_first[1:], run_cell.size]
    distinct_rows = group_end - group_first
    group_size = np.diff(np.r_[-1, run_last[group_end - 1]])

    # Open row carried into each group: the row of the newest request
    # of the previous group, if that group is the same bank's (an
    # earlier window — the order is bank-major).  It is a first-ready
    # hit when the group holds a request with that row, i.e. when the
    # carried (bank, window, row) is among the sorted runs.
    newest = np.maximum.reduceat(run_slot, group_first) + group_window * horizon
    carried = group_id[1:] * row_span + rows[newest[:-1]]
    found = run_cell.take(np.searchsorted(run_cell, carried), mode="clip")
    same_bank = group_bank[1:] == group_bank[:-1]
    carry_hit = np.r_[False, same_bank & (found == carried)]
    # A bank's first group has no carried row: its first activate is cold.
    cold = int(group_id.size - np.count_nonzero(same_bank))

    activates = distinct_rows - carry_hit
    bank_time = np.maximum(group_size * dram.t_burst, activates * dram.t_rc)

    # One queue window's service time: data bus vs its busiest bank.
    window_time = np.zeros(num_windows, dtype=np.int64)
    np.maximum.at(window_time, group_window, bank_time)
    bus = np.bincount(window, minlength=num_windows) * dram.t_burst
    cycles = int(np.maximum(bus, window_time).sum())

    refreshes = 0
    if dram.t_refi > 0:
        refreshes = cycles // dram.t_refi
        cycles += refreshes * dram.t_rfc

    bank_busy = np.zeros(num_banks, dtype=np.int64)
    np.add.at(bank_busy, group_bank, bank_time)
    total_activates = int(activates.sum())
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
