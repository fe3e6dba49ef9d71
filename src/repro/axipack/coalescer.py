"""Request coalescer (paper Sec. II-B, Fig. 2b).

Pipeline, upstream to downstream:

* **upsizer** — N narrow-request ports feed W request queues; stream
  position ``j`` lands in queue ``j mod W`` (each port thus distributes
  evenly over W/N queues, as in the paper).
* **regulator** — presents a complete window of the W oldest requests
  to the request watcher, or a partial window after a timeout.
* **request watcher** — holds the single CSHR; each cycle it matches
  all window entries against the CSHR tag in parallel, absorbs hits,
  and when misses are pending issues the current warp's wide request
  downstream while re-arming the CSHR from the oldest miss.  A warp
  left open when its window is exhausted carries into the next window
  (cache-less reuse); the watchdog force-issues it when starved.
* **metadata queues** — a deep hitmap FIFO (one entry per issued warp)
  and W shallow offset FIFOs, exactly Table I's 128 / 2048-over-W.
* **response splitter** — for each returning wide data block, pops the
  warp's hitmap entry and per-slot offsets and scatters the elements
  into the W element queues (partially, over several cycles, when an
  element queue is momentarily full).
* **downsizer** — maps the W element queues back onto the N output
  lanes in stream order (the upsizer's inverse).

The upsizer, regulator, watcher and watchdog serve both indirect
bursts, so they live once, in :class:`WindowCoalescer`, together with
the two-engine protocol.  :class:`RequestCoalescer` adds the read
path's parts: the metadata queues, the response splitter and the
downsizer.  The write path's
:class:`~repro.axipack.scatter.WriteCoalescer` adds strobed wide writes
and ack absorption.

The sequential (SEQx) variant uses the identical coalescer — the paper
serialises the *element requests* and reduces the upsizer to one input
port, so SEQx reaches the same coalesce rate as MLPx but its request
supply is capped at one per cycle (handled by the request generator's
sequential mode).
"""

from __future__ import annotations

import numpy as np

from ..config import AdapterConfig, DramConfig
from ..errors import ConfigError
from ..mem.request import MemRequest, MemResponse
from ..sim.component import FAR_FUTURE, Component
from ..sim.fifo import Fifo
from ..sim.stats import StatSet
from .burst import NarrowRequest
from .cshr import Cshr, Window
from .index_fetcher import ELEMENT_AXI_ID


class WindowCoalescer(Component):
    """The coalescing core shared by the read and write paths.

    Owns the upsizer's W request queues and the
    :class:`~repro.axipack.element_request_gen.RequestSink` methods that
    fill them, the regulator, the current window and the CSHR, the
    request watcher's arm / issue / watchdog state machine, the
    two-engine protocol (``next_event``, ``advance``, ``wake_fifos``,
    ``max_bulk``, ``bulk_tick``) and ``busy``.  Warps leave through
    ``wide_req`` and come back through ``wide_rsp``.

    A path subclasses it and adds only its own parts:

    * ``_tick_return`` and ``_return_due`` — its return path, which
      ticks before the watcher and regulator each cycle;
    * ``_absorb_hits`` — how window entries join the open warp,
      including any per-slot merge limit;
    * ``_can_issue`` — the shared test (an open warp and room in
      ``wide_req``) plus room for anything else the issue pushes;
    * ``_push_warp`` — what issuing sends downstream.
    """

    def __init__(
        self,
        config: AdapterConfig,
        dram_config: DramConfig,
        wide_req: Fifo[MemRequest],
        wide_rsp: Fifo[MemResponse],
        name: str,
    ) -> None:
        super().__init__(name)
        if config.coalescer is None:
            raise ConfigError(f"{type(self).__name__} requires a coalescer config")
        self.config = config
        self.cc = config.coalescer
        self.dram_config = dram_config
        self.wide_req = wide_req
        self.wide_rsp = wide_rsp
        self.stats = StatSet(name)
        self.request_queues: list[Fifo[NarrowRequest]] = [
            self.make_fifo(self.cc.sizer_queue_depth, f"req{q}")
            for q in range(self.cc.window)
        ]

        self._cshr = Cshr()
        self._window: Window | None = None
        self._regulator_wait = 0
        self._watchdog_wait = 0
        #: requests sitting in the upsizer queues (regulator fast path).
        self._queued_requests = 0

    # -- upsizer (RequestSink protocol) ------------------------------------

    def can_accept(self, seq: int) -> bool:
        return self.request_queues[seq % self.cc.window].can_push()

    def accept(self, request: NarrowRequest) -> None:
        self.request_queues[request.seq % self.cc.window].push(request)
        self._queued_requests += 1

    def accept_watches(self) -> list[Fifo]:
        return list(self.request_queues)

    # -- main loop -----------------------------------------------------------

    def tick(self) -> None:
        self._tick_return()
        self._tick_watcher()
        self._tick_regulator()

    def _tick_return(self) -> None:
        raise NotImplementedError

    def _return_due(self) -> bool:
        """The return path acts on this cycle's tick."""
        raise NotImplementedError

    def _absorb_hits(self) -> int:
        """Merge the window entries matching the armed CSHR tag into the
        open warp; returns how many merged."""
        raise NotImplementedError

    def _push_warp(self) -> None:
        """Send the open warp downstream (``_can_issue`` holds)."""
        raise NotImplementedError

    # -- regulator -------------------------------------------------------------

    def _tick_regulator(self) -> None:
        if self._window is not None and not self._window.exhausted:
            return
        # The previous window must be fully absorbed before the next is
        # presented; the open CSHR (if any) carries across the swap.
        if self._queued_requests == 0:
            self._regulator_wait = 0
            return
        may_be_complete = self._queued_requests >= self.cc.window
        if not may_be_complete and self._regulator_wait < self.cc.regulator_timeout:
            self._regulator_wait += 1
            return
        queues_ready = [q for q in self.request_queues if q.can_pop()]
        complete = len(queues_ready) == self.cc.window
        if not complete and self._regulator_wait < self.cc.regulator_timeout:
            self._regulator_wait += 1
            return
        requests = [q.pop() for q in queues_ready]
        self._queued_requests -= len(requests)
        self._window = Window(
            requests, self.dram_config.access_bytes, self.cc.window
        )
        self._regulator_wait = 0
        self.stats.add("windows")
        if not complete:
            self.stats.add("partial_windows")

    # -- request watcher ----------------------------------------------------------

    def _can_issue(self) -> bool:
        return self._cshr.has_hits and self.wide_req.can_push()

    def _issue_warp(self) -> None:
        self._push_warp()
        self._cshr.reset()
        self._watchdog_wait = 0

    def _tick_watcher(self) -> None:
        window = self._window
        absorbed = 0
        if self._cshr.armed:
            absorbed = self._absorb_hits()

        pending = window is not None and not window.exhausted
        if pending:
            assert window is not None
            if not self._cshr.armed:
                # Fresh CSHR: arm from the oldest miss and absorb its
                # whole request warp this cycle.
                self._cshr.arm(window.oldest_unabsorbed().block_addr(
                    self.dram_config.access_bytes
                ))
                self._absorb_hits()
                self._watchdog_wait = 0
            elif self._can_issue():
                # Misses pending: issue the coalesced warp and re-arm
                # from the oldest miss (its hits merge next cycle).
                next_tag = window.oldest_unabsorbed().block_addr(
                    self.dram_config.access_bytes
                )
                self._issue_warp()
                self._cshr.arm(next_tag)
            return

        # No pending misses: the open warp waits for the next window;
        # the watchdog force-issues it when input starves.
        if self._cshr.has_hits:
            if absorbed:
                self._watchdog_wait = 0
            else:
                self._watchdog_wait += 1
                if self._watchdog_wait >= self.cc.watchdog_timeout and self._can_issue():
                    self._issue_warp()
                    self.stats.add("watchdog_issues")

    # -- batched-engine protocol ----------------------------------------------------

    def next_event(self) -> int | None:
        cycle = self.cycle
        if self._return_due():
            return cycle
        window = self._window
        if window is not None and not window.exhausted:
            # Watcher with pending misses: arming and issuing are
            # immediate; blocked mid-window (starved downstream space)
            # only downstream pops can unblock us.
            if not self._cshr.armed or self._can_issue():
                return cycle
            if window.groups.get(self._cshr.tag):
                return cycle  # absorbable hits for the open warp
            return None
        due = FAR_FUTURE
        if self._cshr.has_hits and self._can_issue():
            wd = self.cc.watchdog_timeout - 1 - self._watchdog_wait
            due = cycle + wd if wd > 0 else cycle
        if self._queued_requests > 0:
            if (
                self._queued_requests >= self.cc.window
                or self._regulator_wait >= self.cc.regulator_timeout
            ):
                return cycle
            due = min(
                due, cycle + self.cc.regulator_timeout - self._regulator_wait
            )
        return None if due >= FAR_FUTURE else due

    def advance(self, cycles: int) -> None:
        # Replays what the skipped ticks would have done to the two pure
        # time counters; all other state is provably untouched while the
        # component is skippable (see next_event).
        window = self._window
        if window is not None and not window.exhausted:
            return
        if self._cshr.has_hits:
            self._watchdog_wait += cycles
        if self._queued_requests == 0:
            self._regulator_wait = 0
        elif (
            self._queued_requests < self.cc.window
            and self._regulator_wait < self.cc.regulator_timeout
        ):
            self._regulator_wait += cycles

    def wake_fifos(self) -> tuple[list[Fifo], list[Fifo]]:
        # The regulator observes accepts the same cycle they are staged
        # (accept() fills request_queues during the generator's tick), so
        # those queues stay push-sensitive; everything else only matters
        # on pops and commits.
        return [*self.fifos, self.wide_req, self.wide_rsp], list(
            self.request_queues
        )

    def max_bulk(self, limit: int) -> int:
        # The only regular multi-cycle bursts this component has are the
        # pure waits: watchdog arming and regulator aging, whose expiry
        # distances are exactly what next_event reports.  Every cycle
        # strictly before that due point is a counter-only no-op (the
        # advance contract), so the span up to — but excluding — the
        # nearest watchdog/regulator boundary is bulk-safe.
        due = self.next_event()
        if due is None:
            return 0  # sleeping on external input; nothing to fast-forward
        span = due - self.cycle
        if span <= 1:
            return 0
        return span if span < limit else limit

    def bulk_tick(self, cycles: int) -> None:
        # A bulk span is by construction a skippable quiet span, so the
        # replay is identical to the engine's catch-up path.
        self.advance(cycles)

    # -- reporting ------------------------------------------------------------------

    @property
    def busy(self) -> bool:
        if self._window is not None and not self._window.exhausted:
            return True
        return self._cshr.has_hits or super().busy


class RequestCoalescer(WindowCoalescer):
    """The paper's request coalescer on the read path.

    Takes narrow requests through the shared core's upsizer and exposes
    ``lane_out`` FIFOs (one per lane, in stream order) on its downsizer
    side.  On top of the shared core it owns the hitmap and offsets
    queues, the response splitter and the downsizer; a slot merges at
    most as many requests into one warp as its offsets queue holds.
    """

    def __init__(
        self,
        config: AdapterConfig,
        dram_config: DramConfig,
        elem_req: Fifo[MemRequest],
        elem_rsp: Fifo[MemResponse],
        name: str = "coal",
    ) -> None:
        super().__init__(config, dram_config, elem_req, elem_rsp, name)
        window = self.cc.window
        self.hitmap_queue: Fifo[tuple[tuple[int, int], ...]] = self.make_fifo(
            self.cc.hitmap_queue_depth, "hitmap"
        )
        self.offsets_queues: list[Fifo[int]] = [
            self.make_fifo(self.cc.offsets_queue_depth, f"off{q}")
            for q in range(window)
        ]
        self.element_queues: list[Fifo[float]] = [
            self.make_fifo(self.cc.sizer_queue_depth, f"elem{q}")
            for q in range(window)
        ]
        self.lane_out: list[Fifo[float]] = [
            self.make_fifo(self.cc.sizer_queue_depth, f"lane{s}")
            for s in range(config.lanes)
        ]
        #: downsizer: per-lane next queue index (stream-order round robin).
        self._down_ptr = [s for s in range(config.lanes)]
        #: response splitter: per-entry delivered flags for the head warp.
        self._split_delivered: list[bool] | None = None

    # -- request watcher ----------------------------------------------------------

    def _absorb_hits(self) -> int:
        # Entries that would overflow their slot's offsets queue stay
        # pending as misses.
        window = self._window
        cshr = self._cshr
        assert window is not None
        hits = window.take_group(
            cshr.tag, cshr.slot_counts, self.cc.offsets_queue_depth
        )
        for request in hits:
            offset = request.offset_in_block(
                self.dram_config.access_bytes, self.config.element_bytes
            )
            cshr.merge(window.slot_of(request), offset)
        if hits:
            self.stats.add("coalesced_hits", len(hits))
        return len(hits)

    def _can_issue(self) -> bool:
        # The shared test, plus room for the warp's hitmap entry and
        # each slot's offsets.
        if not self._cshr.has_hits:
            return False
        if not self.wide_req.can_push() or not self.hitmap_queue.can_push():
            return False
        return all(
            self.offsets_queues[slot].can_push(count)
            for slot, count in self._cshr.slot_counts.items()
        )

    def _push_warp(self) -> None:
        assert self._cshr.tag is not None
        self.wide_req.push(
            MemRequest(
                addr=self._cshr.tag,
                nbytes=self.dram_config.access_bytes,
                axi_id=ELEMENT_AXI_ID,
            )
        )
        self.hitmap_queue.push(tuple(self._cshr.entries))
        for slot, offset in self._cshr.entries:
            self.offsets_queues[slot].push(offset)
        self.stats.add("warps")
        self.stats.add("wide_elem_txns")

    # -- return path: response splitter and downsizer ---------------------------------

    def _tick_return(self) -> None:
        self._tick_response_splitter()
        self._tick_downsizer()

    def _return_due(self) -> bool:
        # Response splitter: while a returned warp sits at the head it
        # delivers (or records splitter_stalls) every single cycle.
        if self.wide_rsp.can_pop() and self.hitmap_queue.can_pop():
            return True
        # Downsizer: one element per lane per cycle while data is staged.
        for lane in range(self.config.lanes):
            if (
                self.element_queues[self._down_ptr[lane]].can_pop()
                and self.lane_out[lane].can_push()
            ):
                return True
        return False

    def _tick_response_splitter(self) -> None:
        if not self.wide_rsp.can_pop() or not self.hitmap_queue.can_pop():
            return
        response = self.wide_rsp.peek()
        warp = self.hitmap_queue.peek()
        assert response.data is not None
        values = response.data.view(np.dtype("<f8"))

        # Parallel extraction with per-queue ready: deliver every entry
        # whose element queue has space.  Entries targeting the same
        # queue deliver in warp order (a blocked queue blocks only its
        # own later entries, never other queues' — this cross-queue
        # independence is what makes the return path deadlock-free).
        if self._split_delivered is None:
            self._split_delivered = [False] * len(warp)
        delivered = self._split_delivered
        blocked_slots: set[int] = set()
        for i, (slot, offset) in enumerate(warp):
            if delivered[i] or slot in blocked_slots:
                continue
            if not self.element_queues[slot].can_push():
                blocked_slots.add(slot)
                self.stats.add("splitter_stalls")
                continue
            queued_offset = self.offsets_queues[slot].pop()
            assert queued_offset == offset, "offset queue out of sync"
            self.element_queues[slot].push(float(values[offset]))
            delivered[i] = True

        if all(delivered):
            self.wide_rsp.pop()
            self.hitmap_queue.pop()
            self._split_delivered = None
            self.stats.add("warps_returned")

    def _tick_downsizer(self) -> None:
        lanes = self.config.lanes
        window = self.cc.window
        for lane in range(lanes):
            queue = self.element_queues[self._down_ptr[lane]]
            sink = self.lane_out[lane]
            if queue.can_pop() and sink.can_push():
                sink.push(queue.pop())
                self._down_ptr[lane] = (self._down_ptr[lane] + lanes) % window
