"""The discrete-event simulation engine.

A thin, fast wrapper around a binary heap of :class:`~repro.sim.event.Event`
objects.  Time is measured in CPU cycles (integers).  The engine plays
the role gem5's event queue plays in the paper's infrastructure.

Hot-path design notes (docs/PERFORMANCE.md):

* events *are* their heap entries (``[time, seq, callback, args]``
  lists), so every heap sift comparison is a C-level list comparison
  that stops at the unique sequence number — no Python ``__lt__``
  calls on the push/pop path;
* callbacks take positional arguments stored on the event, so services
  schedule bound methods instead of allocating per-service closures;
* a live-event counter maintained on schedule/fire/cancel makes
  :attr:`pending_events` O(1) — backpressure heuristics poll it;
* cancelled events stay in the heap until popped (cheap cancel), but
  when they outnumber the live events the heap is compacted so a
  cancel-heavy phase cannot make every subsequent push pay for dead
  weight;
* the run loop *time-skips*: between events the clock jumps straight
  to the next event's timestamp (and a bounded :meth:`run` jumps to
  ``until``), never ticking through idle cycles.  The jump is clamped
  to be monotonic, preserving the invariant that :meth:`schedule_at`
  enforces eagerly — an event time in the past is rejected at the
  offending call site, not when the heap later pops it;
* a callback that would schedule its own continuation as the very next
  event may instead call :meth:`advance` and carry on inline: the
  engine moves the clock only when no other event, no ``until`` bound
  and no ``max_events`` budget could tell the difference, so the run
  is the same, event for event, minus the heap round trip.  Each such
  skip is charged to the ``max_events`` budget like the event it
  replaces, but :attr:`events_fired` counts heap events only.
"""

from __future__ import annotations

import heapq
from typing import Callable, Optional

from ..errors import SimulationError
from .event import Event

# Compact the heap when cancelled events both exceed this floor and
# outnumber the live events (amortized O(1) per cancel).
_COMPACT_MIN_CANCELLED = 64

# Stands in for "no bound" on run()'s stop time and event budget.
_UNBOUNDED = 1 << 62


class Engine:
    """Deterministic single-threaded event loop."""

    def __init__(self) -> None:
        self._queue: list[Event] = []
        self._seq = 0
        self.now: int = 0
        self._events_fired = 0
        self._live = 0              # scheduled, not yet fired or cancelled
        self._cancelled_in_heap = 0
        # Bounds of the innermost run(): the last cycle it may reach and
        # the events/skips it may still spend.  A zero budget outside
        # run() makes advance() refuse.
        self._stop = 0
        self._budget = 0
        self._exhausted = False

    # --- scheduling ----------------------------------------------------

    def schedule(self, delay: int, callback: Callable[..., None],
                 *args) -> Event:
        """Schedule ``callback(*args)`` to run ``delay`` cycles from now."""
        if type(delay) is not int and (isinstance(delay, bool)
                                       or not isinstance(delay, int)):
            raise SimulationError(
                f"delay must be an integer cycle count, got "
                f"{type(delay).__name__} ({delay!r})")
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        seq = self._seq + 1
        self._seq = seq
        event = Event((self.now + delay, seq, callback, args))
        event._owner = self
        heapq.heappush(self._queue, event)
        self._live += 1
        return event

    def schedule_at(self, time: int, callback: Callable[..., None],
                    *args) -> Event:
        """Schedule ``callback(*args)`` at absolute cycle ``time``.

        Times in the past are rejected *here*, at the offending call
        site — not later as a confusing "event heap produced a past
        event" failure when the heap pops the event.
        """
        if type(time) is not int and (isinstance(time, bool)
                                      or not isinstance(time, int)):
            raise SimulationError(
                f"event time must be an integer cycle count, got "
                f"{type(time).__name__} ({time!r})")
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at {time}, current time is {self.now}")
        seq = self._seq + 1
        self._seq = seq
        event = Event((time, seq, callback, args))
        event._owner = self
        heapq.heappush(self._queue, event)
        self._live += 1
        return event

    # --- execution -------------------------------------------------------

    def run(self, until: Optional[int] = None, max_events: Optional[int] = None) -> int:
        """Fire events in order until the queue drains.

        ``until`` stops the run once simulated time would pass that cycle
        (events at exactly ``until`` still fire).  ``max_events`` is a
        safety valve for tests; every :meth:`advance` skip inside the run
        spends one unit of it, like the event it stands in for.  Returns
        the number of events fired.

        Time only moves forward: the end-of-run skip to ``until`` is
        clamped so a bounded run can never rewind the clock below a
        time the engine already reached (which would let
        :meth:`schedule_at` admit events into the rewound window and
        fire them out of order).
        """
        fired = 0
        queue = self._queue
        pop = heapq.heappop
        now = self.now
        outer = self._stop, self._budget
        self._stop = _UNBOUNDED if until is None else until
        self._budget = _UNBOUNDED if max_events is None else max_events
        try:
            while queue:
                event = queue[0]
                time = event[0]
                if until is not None and time > until:
                    if until > now:
                        self.now = until
                    break
                pop(queue)
                callback = event[2]
                if callback is None:
                    self._cancelled_in_heap -= 1
                    continue
                if time < now:
                    raise SimulationError("event heap produced a past event")
                self.now = now = time
                self._live -= 1
                event._owner = None      # fired: a later cancel() is a no-op
                self._budget -= 1        # charged before the callback runs
                callback(*event[3])
                now = self.now
                fired += 1
                if self._budget <= 0:
                    break
            else:
                if until is not None and until > now:
                    self.now = until
        finally:
            self._exhausted = self._budget <= 0
            self._stop, self._budget = outer
        self._events_fired += fired
        return fired

    def advance(self, delay: int) -> bool:
        """Move the clock ``delay`` cycles forward in place of an event.

        A callback that is about to schedule its own continuation
        ``delay`` cycles ahead calls this first; on True it continues
        inline at the new :attr:`now`, on False it schedules as usual.
        The skip is taken only when it cannot be observed: inside
        :meth:`run`, with ``now + delay`` strictly before the next live
        event (at an equal time the older event fires first), not past
        ``until``, and with ``max_events`` budget left, of which it
        spends one unit.  Callers must own the event they are in: a
        continuation invoked synchronously by another component must
        not skip, because that component resumes after it returns.
        """
        target = self.now + delay
        if self._budget <= 0 or target > self._stop:
            return False
        next_time = self.peek_time()
        if next_time is not None and next_time <= target:
            return False
        self.now = target
        self._budget -= 1
        return True

    def run_until_idle(self, max_events: int = 100_000_000) -> int:
        """Run until no events remain (bounded by ``max_events`` events
        and :meth:`advance` skips)."""
        fired = self.run(max_events=max_events)
        if self._queue and self._exhausted:
            raise SimulationError("simulation exceeded max_events; likely livelock")
        return fired

    # --- cancellation bookkeeping ------------------------------------------

    def _note_cancel(self) -> None:
        """Called by :meth:`Event.cancel` for events this engine owns."""
        self._live -= 1
        self._cancelled_in_heap += 1
        if (self._cancelled_in_heap > _COMPACT_MIN_CANCELLED
                and self._cancelled_in_heap > self._live):
            self._compact()

    def _compact(self) -> None:
        """Drop lazily-cancelled events and re-heapify the survivors.

        Heap order is a function of each event's immutable ``(time,
        seq)`` key, so filtering + heapify preserves firing order
        exactly.
        """
        queue = self._queue        # in place: a running run() holds it
        queue[:] = [event for event in queue if event[2] is not None]
        heapq.heapify(queue)
        self._cancelled_in_heap = 0

    # --- introspection -----------------------------------------------------

    def peek_time(self) -> Optional[int]:
        """Timestamp of the next live event, or None when idle.

        The time-skip fast path's target: when everything is idle the
        clock moves straight here on the next :meth:`run` step, and
        :meth:`advance` may move it anywhere short of it.
        """
        queue = self._queue
        while queue and queue[0][2] is None:
            heapq.heappop(queue)
            self._cancelled_in_heap -= 1
        return queue[0][0] if queue else None

    @property
    def pending_events(self) -> int:
        """Number of live (non-cancelled) events still queued, O(1).

        Cancelled events stay in the heap until popped or compacted,
        but they will never fire; counting them would make backpressure
        heuristics see dead weight.
        """
        return self._live

    @property
    def events_fired(self) -> int:
        """Total events fired since construction."""
        return self._events_fired

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Engine now={self.now} pending={self.pending_events}>"
