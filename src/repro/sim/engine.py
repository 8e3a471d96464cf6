"""Discrete-event simulation kernel.

Everything in the reproduction — links, switches, control planes,
replication protocols, traffic generators — runs on top of this kernel.
The kernel owns a single virtual clock (in seconds, as a float) and a
priority queue of pending events.  An *event* is a plain callback scheduled
for some future simulation time.

Two properties matter for faithfulness to the paper:

* **Determinism.**  Given the same seed and the same schedule of calls,
  a simulation always produces the same history.  Ties in event time are
  broken by a monotonically increasing sequence number, so insertion order
  is preserved and no wall-clock nondeterminism can leak in.

* **Atomic processing** (paper section 2).  A PISA switch processes each
  packet atomically: all register updates made while handling one packet
  are visible to the next packet as a unit.  In this kernel that property
  falls out naturally — one event runs to completion before the next
  begins — but switch code additionally asserts that it never yields
  mid-packet (see ``repro.switch.pisa``).

The queue itself is allocation-lean: heap entries are plain
``(time, seq, event)`` tuples (no per-entry wrapper object), and
cancelled events are removed *lazily*.  :meth:`Event.cancel` only flags
the event and tells its simulator; the entry stays in the heap until it
reaches the top or until cancelled entries exceed roughly half the
queue, at which point the heap is compacted in place.  This keeps the
heap bounded under cancel-heavy workloads (SRO retransmission timers are
armed per write and cancelled on every ack) without paying an O(n)
removal per cancel.  Ordering is unchanged — live entries keep their
original ``(time, seq)`` keys through compaction — so the rewrite is
invisible to replay digests.
"""

from __future__ import annotations

import heapq
import itertools
import math
from typing import Any, Callable, List, Optional, Tuple

__all__ = [
    "Event",
    "Simulator",
    "Process",
    "SimulationError",
]


class SimulationError(RuntimeError):
    """Raised when the kernel is used incorrectly.

    Examples: scheduling an event in the past, running a simulator that
    has already been stopped, or cancelling an event twice.
    """


class Event:
    """A scheduled callback.

    Returned by :meth:`Simulator.schedule` so callers can cancel a pending
    event (e.g. a retransmission timer that is no longer needed).
    """

    __slots__ = ("time", "callback", "args", "cancelled", "label", "_sim")

    def __init__(
        self,
        time: float,
        callback: Callable[..., None],
        args: tuple,
        label: str = "",
    ) -> None:
        self.time = time
        self.callback = callback
        self.args = args
        self.cancelled = False
        self.label = label
        #: Back-reference used for lazy-deletion bookkeeping; set by
        #: ``Simulator.schedule`` and cleared when the entry leaves the
        #: heap (fired, skipped, or compacted away).
        self._sim: Optional["Simulator"] = None

    def cancel(self) -> None:
        """Cancel this event; it will be skipped when its time arrives.

        Cancelling an event that already fired is a no-op rather than an
        error, because timers routinely race with the work they guard.
        """
        if self.cancelled:
            return
        self.cancelled = True
        sim = self._sim
        if sim is not None:
            self._sim = None
            sim._note_cancelled()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        return f"<Event t={self.time:.9f} {self.label or self.callback!r} {state}>"


#: A heap entry: (time, seq, event).  Plain tuples compare element-wise,
#: which reproduces exactly the (time, seq) ordering of the old
#: dataclass entries, at a fraction of the allocation and comparison cost.
_QueueTuple = Tuple[float, int, "Event"]

#: Don't bother compacting tiny heaps — the rebuild costs more than the
#: stale entries ever will.
_COMPACT_MIN_SIZE = 64


class Simulator:
    """The discrete-event scheduler.

    Usage::

        sim = Simulator()
        sim.schedule(1.0, lambda: print("one second in"))
        sim.run(until=10.0)

    The clock unit is seconds.  All component delays in the reproduction
    (link latency, pipeline service time, control-plane processing) are
    expressed in seconds so that bandwidth and rate arithmetic stays in
    SI units.
    """

    def __init__(self) -> None:
        self._now = 0.0
        self._queue: List[_QueueTuple] = []
        self._seq = itertools.count()
        self._running = False
        self._stopped = False
        self.events_processed = 0
        #: Cancelled entries still occupying heap slots (lazy deletion).
        self._cancelled = 0
        #: Lifetime counters for the S1 benchmark and kernel tests.
        self.events_cancelled = 0
        self.compactions = 0
        self.peak_queue_len = 0
        #: Optional dispatch interceptor (``perf/trace.py`` installs one).
        #: When set, events run through ``profiler.dispatch(event)`` so
        #: wall-clock cost can be attributed per handler label.  The hook
        #: is sampled when ``run()`` starts; install/uninstall between
        #: runs, not from inside an event.
        self.profiler: Optional[Any] = None

    # ------------------------------------------------------------------
    # Clock
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(
        self,
        delay: float,
        callback: Callable[..., None],
        *args: Any,
        label: str = "",
    ) -> Event:
        """Schedule ``callback(*args)`` to run ``delay`` seconds from now.

        ``delay`` must be non-negative and finite.  Returns the
        :class:`Event`, which may be cancelled until it fires.
        """
        # One comparison rejects negative, +inf and NaN (NaN fails both).
        if not 0.0 <= delay < math.inf:
            if delay < 0:
                raise SimulationError(f"cannot schedule in the past (delay={delay})")
            raise SimulationError(f"delay must be finite, got {delay}")
        event = Event(self._now + delay, callback, args, label)
        event._sim = self
        queue = self._queue
        heapq.heappush(queue, (event.time, next(self._seq), event))
        if len(queue) > self.peak_queue_len:
            self.peak_queue_len = len(queue)
        return event

    def schedule_at(
        self,
        time: float,
        callback: Callable[..., None],
        *args: Any,
        label: str = "",
    ) -> Event:
        """Schedule ``callback(*args)`` at absolute simulation time ``time``.

        The event lands on ``time`` itself, not on ``now + (time - now)``:
        the rounded difference does not always add back (and some floats
        cannot be reached from ``now`` by any one addition), and a caller
        that computed an instant — a held packet's 64th recirculation
        pass, 64 additions on — must meet it to the bit.  The push is
        :meth:`schedule`'s, repeated here to keep both off each other's
        call path.
        """
        if not self._now <= time < math.inf:
            if time < self._now:
                raise SimulationError(
                    f"cannot schedule in the past (time={time}, now={self._now})"
                )
            raise SimulationError(f"time must be finite, got {time}")
        event = Event(time, callback, args, label)
        event._sim = self
        queue = self._queue
        heapq.heappush(queue, (time, next(self._seq), event))
        if len(queue) > self.peak_queue_len:
            self.peak_queue_len = len(queue)
        return event

    def call_soon(self, callback: Callable[..., None], *args: Any, label: str = "") -> Event:
        """Schedule ``callback`` at the current time (after pending same-time events)."""
        return self.schedule(0.0, callback, *args, label=label)

    # ------------------------------------------------------------------
    # Lazy deletion
    # ------------------------------------------------------------------
    def _note_cancelled(self) -> None:
        """Called by :meth:`Event.cancel` while the entry is still heaped."""
        self._cancelled += 1
        self.events_cancelled += 1
        queue = self._queue
        if self._cancelled * 2 > len(queue) and len(queue) >= _COMPACT_MIN_SIZE:
            self._compact()

    def _compact(self) -> None:
        """Drop cancelled entries and re-heapify, *in place*.

        In-place (slice assignment) so the hot loop in :meth:`run`, which
        holds a local reference to the queue list, observes the rebuild.
        Live entries keep their original (time, seq) keys, so event order
        — and therefore any replay digest — is unaffected.
        """
        queue = self._queue
        queue[:] = [entry for entry in queue if not entry[2].cancelled]
        heapq.heapify(queue)
        self._cancelled = 0
        self.compactions += 1

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> float:
        """Run events until the queue drains, ``until`` is reached, or stopped.

        Returns the simulation time at which execution stopped.

        Clock boundary semantics: if ``until`` is given and the run ends
        by draining the queue or reaching the window edge, the clock is
        advanced to exactly ``until`` — even when the queue drained
        earlier — so periodic measurements can rely on a full window
        having elapsed.  If the run ends via :meth:`stop`, the clock is
        deliberately **left at the time of the last processed event**:
        a stopped simulation is frozen mid-history (e.g. for inspection
        or early exit on an invariant violation), and jumping the clock
        forward would misdate everything scheduled afterwards.
        """
        if self._running:
            raise SimulationError("simulator is already running (re-entrant run())")
        self._running = True
        self._stopped = False
        processed = 0
        # Hot-loop locals: the queue list identity is stable (compaction
        # mutates it in place) and the profiler hook is sampled once.
        queue = self._queue
        heappop = heapq.heappop
        profiler = self.profiler
        limit = math.inf if until is None else until
        budget = math.inf if max_events is None else max_events
        try:
            while queue:
                if self._stopped:
                    break
                entry = queue[0]
                if entry[0] > limit:
                    break
                heappop(queue)
                event = entry[2]
                if event.cancelled:
                    self._cancelled -= 1
                    continue
                event._sim = None
                self._now = entry[0]
                if profiler is None:
                    event.callback(*event.args)
                else:
                    profiler.dispatch(event)
                processed += 1
                if processed >= budget:
                    break
        finally:
            self._running = False
            self.events_processed += processed
        if until is not None and not self._stopped and self._now < until:
            self._now = until
        return self._now

    def step(self) -> bool:
        """Run a single event.  Returns False when the queue is empty.

        Mirrors :meth:`run`'s guards: calling ``step()`` from inside a
        running simulation (either ``run()`` or another ``step()``) is a
        re-entrancy error, and the profiler hook intercepts dispatch the
        same way it does in ``run()``.
        """
        if self._running:
            raise SimulationError("simulator is already running (re-entrant step())")
        queue = self._queue
        while queue:
            entry = heapq.heappop(queue)
            event = entry[2]
            if event.cancelled:
                self._cancelled -= 1
                continue
            event._sim = None
            self._now = entry[0]
            self._running = True
            try:
                if self.profiler is None:
                    event.callback(*event.args)
                else:
                    self.profiler.dispatch(event)
            finally:
                self._running = False
                self.events_processed += 1
            return True
        return False

    def stop(self) -> None:
        """Stop a running simulation after the current event completes.

        The clock stays at the current event's time; see :meth:`run` for
        the boundary semantics with ``until``.
        """
        self._stopped = True

    def pending(self) -> int:
        """Number of non-cancelled events still queued.  O(1)."""
        return len(self._queue) - self._cancelled

    def peek_time(self) -> Optional[float]:
        """Time of the next pending event, or None if none remain.

        Pops cancelled entries off the top of the heap as it goes, so the
        cost is O(log n) amortized per cancelled entry rather than the
        full sort this used to do.
        """
        queue = self._queue
        while queue:
            if queue[0][2].cancelled:
                heapq.heappop(queue)
                self._cancelled -= 1
                continue
            return queue[0][0]
        return None

    def queue_len(self) -> int:
        """Raw heap occupancy, *including* lazily deleted entries.

        ``pending()`` is the logical count; the difference between the
        two is the garbage the compactor bounds.
        """
        return len(self._queue)


class Process:
    """A named periodic activity pinned to a simulator.

    Many components in the reproduction are periodic: the EWO
    packet-generator sync (paper section 6.2), controller heartbeats
    (section 6.3), rate-limiter window resets (section 4.2).  ``Process``
    wraps the schedule/reschedule dance and supports clean teardown, which
    matters for fault injection (a dead switch must stop synchronizing).
    """

    def __init__(
        self,
        sim: Simulator,
        period: float,
        body: Callable[[], None],
        name: str = "process",
        start_after: float = None,
    ) -> None:
        if period <= 0:
            raise SimulationError(f"process period must be positive, got {period}")
        self.sim = sim
        self.period = period
        self.body = body
        self.name = name
        self._event: Optional[Event] = None
        self._alive = False
        first_delay = period if start_after is None else start_after
        self._first_delay = first_delay

    def start(self) -> "Process":
        if self._alive:
            return self
        self._alive = True
        self._event = self.sim.schedule(self._first_delay, self._tick, label=self.name)
        return self

    def stop(self) -> None:
        """Stop the process, cancelling its in-flight tick event.

        After ``stop()`` the process holds no live event: the pending
        tick is cancelled (and will be lazily reclaimed by the kernel)
        and the reference is dropped.
        """
        self._alive = False
        if self._event is not None:
            self._event.cancel()
            self._event = None

    def _tick(self) -> None:
        if not self._alive:
            return
        self.body()
        if not self._alive:  # body may have stopped us
            return
        self._event = self.sim.schedule(self.period, self._tick, label=self.name)

