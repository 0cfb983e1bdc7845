"""Discrete-event simulation core.

Everything in the reproduction runs on one :class:`EventLoop`: the
encoder ticks, packet departures and arrivals, RTCP feedback timers,
handover state transitions and the player clock are all events. The
loop keeps a priority queue of ``(time, sequence, callback, event)``
entries; the monotonically increasing sequence number makes execution
order deterministic for simultaneous events.

Fast-path design
----------------
A 60 s congestion-controlled flight pushes several hundred thousand
events through this loop, so the queue representation is tuned for
CPython:

* heap entries are plain tuples — ``heapq`` then compares the
  ``(time, order)`` prefix in C instead of calling a generated
  dataclass ``__lt__`` per sift step (orders are unique, so the
  comparison never reaches the callback);
* cancellation stays lazy (cancelled entries are dropped when popped),
  but cancellable events carry a tiny ``__slots__`` marker object
  rather than a dataclass;
* :meth:`EventLoop.schedule_at` / :meth:`EventLoop.schedule_later`
  are allocation-free fast paths for the per-packet hot paths that
  never cancel: no marker object and no :class:`EventHandle` are
  created;
* :meth:`EventLoop.pending` is O(1): a live counter is maintained at
  push, pop and cancel time instead of scanning the queue.
"""

from __future__ import annotations

import heapq
from typing import Callable


class _Event:
    """Cancellation marker for one scheduled callback.

    The heap entry itself is a plain tuple; this object only carries
    the mutable state an :class:`EventHandle` needs (lazy-deletion
    flag plus the fired flag that keeps the live-event counter exact
    when ``cancel`` is called after the callback already ran).
    """

    __slots__ = ("time", "cancelled", "finished")

    def __init__(self, time: float) -> None:
        self.time = time
        self.cancelled = False
        self.finished = False


class EventHandle:
    """Handle returned by :meth:`EventLoop.call_at` allowing cancellation."""

    __slots__ = ("_event", "_loop")

    def __init__(self, event: _Event, loop: "EventLoop") -> None:
        self._event = event
        self._loop = loop

    def cancel(self) -> None:
        """Prevent the callback from running (idempotent)."""
        event = self._event
        if not event.cancelled and not event.finished:
            event.cancelled = True
            self._loop._live -= 1

    @property
    def cancelled(self) -> bool:
        """Whether :meth:`cancel` has been called."""
        return self._event.cancelled

    @property
    def when(self) -> float:
        """Scheduled firing time in simulated seconds."""
        return self._event.time


class EventLoop:
    """A minimal, deterministic discrete-event loop.

    Examples
    --------
    >>> loop = EventLoop()
    >>> fired = []
    >>> _ = loop.call_at(1.5, lambda: fired.append(loop.now))
    >>> loop.run_until(2.0)
    >>> fired
    [1.5]
    """

    def __init__(self) -> None:
        #: Heap of ``(time, order, callback, event-or-None)`` tuples.
        self._queue: list[tuple[float, int, Callable[[], None], _Event | None]] = []
        self._order = 0
        self._live = 0
        self._now = 0.0
        self._running = False

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    def call_at(self, when: float, callback: Callable[[], None]) -> EventHandle:
        """Schedule ``callback`` at absolute time ``when``.

        Scheduling in the past (or at NaN) raises ``ValueError`` — it
        always indicates a component bug rather than a meaningful
        request.
        """
        # The time checks are inline here and in schedule_at because
        # these two methods run once per event (~1M in a 60 s flight).
        if when != when:  # faster inline NaN test than math.isnan
            raise ValueError("cannot schedule event at NaN time")
        if when < self._now:
            raise ValueError(
                f"cannot schedule event at {when:.6f}s before now ({self._now:.6f}s)"
            )
        event = _Event(when)
        order = self._order
        self._order = order + 1
        heapq.heappush(self._queue, (when, order, callback, event))
        self._live += 1
        return EventHandle(event, self)

    def call_later(self, delay: float, callback: Callable[[], None]) -> EventHandle:
        """Schedule ``callback`` after ``delay`` seconds."""
        if delay < 0:
            raise ValueError(f"delay must be non-negative, got {delay}")
        return self.call_at(self._now + delay, callback)

    def schedule_at(self, when: float, callback: Callable[[], None]) -> None:
        """Allocation-free :meth:`call_at` for events that never cancel.

        No :class:`EventHandle` (and no cancellation marker) is
        created, which saves two object allocations per event on the
        per-packet hot paths. Use :meth:`call_at` whenever the caller
        might need to cancel.
        """
        if when != when:
            raise ValueError("cannot schedule event at NaN time")
        if when < self._now:
            raise ValueError(
                f"cannot schedule event at {when:.6f}s before now ({self._now:.6f}s)"
            )
        order = self._order
        self._order = order + 1
        heapq.heappush(self._queue, (when, order, callback, None))
        self._live += 1

    def schedule_later(self, delay: float, callback: Callable[[], None]) -> None:
        """Allocation-free :meth:`call_later` for events that never cancel."""
        if delay < 0:
            raise ValueError(f"delay must be non-negative, got {delay}")
        self.schedule_at(self._now + delay, callback)

    def run_until(self, end_time: float) -> None:
        """Run events up to and including ``end_time``.

        The clock is left at ``end_time`` even when the queue drains
        earlier, so periodic components can be restarted consistently.
        """
        if self._running:
            raise RuntimeError("event loop is already running")
        self._running = True
        queue = self._queue
        pop = heapq.heappop
        try:
            while queue and queue[0][0] <= end_time:
                when, _, callback, event = pop(queue)
                if event is not None:
                    if event.cancelled:
                        continue
                    event.finished = True
                self._live -= 1
                self._now = when
                callback()
            self._now = max(self._now, end_time)
        finally:
            self._running = False

    def run(self) -> None:
        """Run until the event queue is exhausted."""
        if self._running:
            raise RuntimeError("event loop is already running")
        self._running = True
        queue = self._queue
        pop = heapq.heappop
        try:
            while queue:
                when, _, callback, event = pop(queue)
                if event is not None:
                    if event.cancelled:
                        continue
                    event.finished = True
                self._live -= 1
                self._now = when
                callback()
        finally:
            self._running = False

    def pending(self) -> int:
        """Number of not-yet-cancelled events in the queue (O(1))."""
        return self._live


class PeriodicTimer:
    """Repeatedly invokes a callback at a fixed period on an event loop.

    The timer re-arms itself after each tick until :meth:`stop` is
    called. Used for encoder frame ticks, RTCP feedback intervals and
    the modem's 1-second RSSI reports.

    Ticks are anchored: tick ``k`` fires at ``first + k * period``
    rather than ``previous + period``, so floating-point error does not
    accumulate over long runs (a 30 FPS encoder re-armed cumulatively
    loses a tick over a 600 s flight; the anchored form fires exactly
    ``600 * fps`` times).
    """

    def __init__(
        self,
        loop: EventLoop,
        period: float,
        callback: Callable[[], None],
        *,
        start_at: float | None = None,
    ) -> None:
        if period <= 0:
            raise ValueError(f"period must be positive, got {period}")
        self._loop = loop
        self.period = period
        self._callback = callback
        self._handle: EventHandle | None = None
        self._stopped = False
        first = loop.now + period if start_at is None else start_at
        self._anchor = first
        self._ticks = 0
        self._handle = loop.call_at(first, self._tick)

    def _tick(self) -> None:
        if self._stopped:
            return
        self._ticks += 1
        self._callback()
        if not self._stopped:
            self._handle = self._loop.call_at(
                self._anchor + self._ticks * self.period, self._tick
            )

    def stop(self) -> None:
        """Cancel the timer; no further ticks will fire."""
        self._stopped = True
        if self._handle is not None:
            self._handle.cancel()

    @property
    def stopped(self) -> bool:
        """Whether :meth:`stop` has been called."""
        return self._stopped
