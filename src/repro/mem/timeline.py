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
the whole replay vectorises into **one sort** and shifts, masks and
scatters over it.  Every request gets a bank-major key laid out as bit
fields ``bank | queue window | row | slot``, where the slot is its
place in its window and each field is ``(count - 1).bit_length()``
bits wide for its count (banks, windows, row span, ``2 *
queue_depth``).  Every key is distinct, so a plain ``np.sort`` of the
keys (no argsort, no gather) lines the stream up, and a sorted key
splits into its cell ``(bank, window, row)``, group ``(bank,
window)``, bank, window, row and slot by shifts and masks alone — no
int64 ``//`` or ``%``:

* each ``(bank, window)`` group is one run of the sorted keys, and each
  of its distinct rows one run of equal ``(bank, window, row)`` — group
  sizes and distinct-row counts are run lengths;
* a run-to-group index (``np.repeat(np.arange(groups),
  distinct_rows)``) carries values between a group and its runs.  A
  group's newest request is its largest slot, so ``np.maximum.at`` of
  each run's ``(slot, row)`` tag over that index gives the newest row;
  because the order is bank-major the group just before it is the same
  bank's previous window, so the row carried into a group is the
  newest row of the previous group when the two share a bank;
* the carried row is a first-ready hit exactly when one of the group's
  runs is the carried ``(bank, window, row)`` cell — the carried cell
  gathered onto the runs through the same index and compared;
* each window's bus term follows from its transaction count (every
  window but the last holds ``2 * queue_depth``) and seeds its maximum;
  each window's busiest bank and each bank's busy total scatter over
  the groups (``np.maximum.at`` / ``np.add.at``), never through a dense
  bank x window table, whose size would grow as the queue shrinks.

The replay uses no ``np.maximum.reduceat`` and no ``np.searchsorted``,
which cost many times a shift per element.

Rows enter the key as offsets from the stream's lowest row.  The four
fields may use 63 bits, so every key is a non-negative int64.  When
they need more (far-apart ids), the rows are replaced by their dense
ranks first, which keeps row equality and shrinks the row field to the
number of distinct rows; the rest of the replay is the same.  When the
fields still need more than 63 bits, the replay raises ``ValueError``.

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

#: Bits the sort key's fields may use: every key stays a non-negative
#: int64.
_KEY_BITS = 63


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

    Fully vectorized — one sort of a bit-field key, then shifts, masks
    and scatters over its runs; bit-exact against
    :func:`repro.axipack.reference.service_timeline_reference`
    (enforced by the property-based differential suite).  Raises
    ``ValueError`` for a queue depth below 1, or for a stream whose
    key fields need more than 63 bits even over dense row ranks.
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
    rows = blocks // (num_banks * dram.blocks_per_row)
    row_base = int(rows.min())
    row_span = int(rows.max()) - row_base + 1
    # The key's fields, most significant first: bank | queue window |
    # row | slot, each as wide as its largest value.
    bank_bits = (num_banks - 1).bit_length()
    window_bits = (num_windows - 1).bit_length()
    slot_bits = (horizon - 1).bit_length()
    fixed_bits = bank_bits + window_bits + slot_bits
    if fixed_bits + (row_span - 1).bit_length() > _KEY_BITS:
        # Far-apart rows: key on their dense ranks instead.
        distinct, rows = np.unique(rows, return_inverse=True)
        row_base, row_span = 0, int(distinct.size)
        if fixed_bits + (row_span - 1).bit_length() > _KEY_BITS:
            raise ValueError("stream too long for the int64 timeline key")
    if row_base:
        rows -= row_base
    row_bits = (row_span - 1).bit_length()
    cell_shift = slot_bits  # key >> cell_shift: (bank, window, row)
    group_shift = row_bits + slot_bits  # key >> group_shift: (bank, window)

    # One sort of the bank-major key.  The slot — the request's place
    # in its window — makes every key distinct and keeps the stream
    # position inside the sorted key.  Window and slot are one
    # broadcast over the (window, slot) grid, cut to the stream; the
    # row and bank fields are shifted in one scratch array.
    width = min(horizon, n)
    key = np.empty((num_windows, width), dtype=np.int64)
    np.bitwise_or(
        np.arange(num_windows, dtype=np.int64)[:, None] << group_shift,
        np.arange(width, dtype=np.int64),
        out=key,
    )
    key = key.reshape(-1)[:n]
    scratch = rows
    scratch <<= slot_bits
    key |= scratch
    np.bitwise_and(blocks, num_banks - 1, out=scratch)
    scratch <<= window_bits + group_shift
    key |= scratch
    key.sort()

    # Runs of equal (bank, window, row) are a group's distinct rows;
    # runs of equal (bank, window) among them are the groups.  A run's
    # last key holds its newest slot.
    cell = np.right_shift(key, cell_shift, out=scratch)
    edge = np.empty(n, dtype=bool)
    np.not_equal(cell[1:], cell[:-1], out=edge[:-1])
    edge[-1] = True
    run_last = np.flatnonzero(edge)
    run_key = key[run_last]
    run_cell = run_key >> cell_shift
    run_group = run_key >> group_shift
    num_runs = int(run_last.size)
    group_edge = np.empty(num_runs, dtype=bool)
    np.not_equal(run_group[1:], run_group[:-1], out=group_edge[:-1])
    group_edge[-1] = True
    group_last = np.flatnonzero(group_edge)  # each group's last run
    num_groups = int(group_last.size)
    group_id = run_group[group_last]
    group_bank = group_id >> window_bits
    group_window = group_id & ((1 << window_bits) - 1)
    distinct_rows = np.diff(group_last, prepend=-1)
    group_size = np.diff(run_last[group_last], prepend=-1)

    # The row a group leaves open is that of its newest request: the
    # largest of its runs' (slot, row) tags — slots are distinct, so
    # the slot decides — scattered through the run-to-group index.
    run_to_group = np.repeat(np.arange(num_groups, dtype=np.int64), distinct_rows)
    row_mask = (1 << row_bits) - 1
    tag = run_key & ((1 << slot_bits) - 1)
    tag <<= row_bits
    tag |= run_cell & row_mask
    newest = np.zeros(num_groups, dtype=np.int64)
    np.maximum.at(newest, run_to_group, tag)

    # Open row carried into each group: the newest row of the previous
    # group, if that group is the same bank's (an earlier window — the
    # order is bank-major).  It is a first-ready hit when one of the
    # group's runs is that (bank, window, row) cell.
    same_bank = group_bank[1:] == group_bank[:-1]
    carried = np.full(num_groups, -1, dtype=np.int64)
    carried[1:] = np.where(
        same_bank, (group_id[1:] << row_bits) | (newest[:-1] & row_mask), -1
    )
    hit = run_cell == carried[run_to_group]
    carry_hit = np.zeros(num_groups, dtype=np.int64)
    carry_hit[run_to_group[hit]] = 1
    # A bank's first group has no carried row: its first activate is cold.
    cold = int(num_groups - np.count_nonzero(same_bank))

    activates = distinct_rows - carry_hit
    bank_time = np.maximum(group_size * dram.t_burst, activates * dram.t_rc)

    # One queue window's service time: data bus vs its busiest bank.
    # Every window but the last holds ``horizon`` transactions.
    window_time = np.empty(num_windows, dtype=np.int64)
    if num_windows > 1:
        window_time[:-1] = horizon * dram.t_burst
    window_time[-1] = (n - (num_windows - 1) * horizon) * dram.t_burst
    np.maximum.at(window_time, group_window, bank_time)
    cycles = int(window_time.sum())

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
