"""Link primitives: capacity-limited queues and propagation delay.

A cellular uplink is modelled as the composition (see
:mod:`repro.net.path`) of

* a :class:`CapacityLink` — a deep drop-tail FIFO drained at the radio
  link's time-varying rate. LTE operators run large buffers
  ("bufferbloat"), so congestion shows up as delay long before it
  shows up as loss, exactly as the paper observes;
* a :class:`DelayLine` — fixed WAN/core propagation plus random jitter
  (the ~35-50 ms floor between Munich and the AWS London region);
* a loss gate (see :mod:`repro.net.loss`) for the rare residual drops.

The capacity link also exposes :meth:`CapacityLink.set_up` so the
handover manager can silence the radio during handover execution.
"""

from __future__ import annotations

from collections import deque
from math import inf
from typing import Callable

import numpy as np

from repro.net.packet import Datagram
from repro.net.simulator import EventLoop
from repro.util.rng import BatchedNormal
from repro.util.units import bytes_to_bits

DeliverFn = Callable[[Datagram], None]
HandOffFn = Callable[[Datagram, float], None]
RateFn = Callable[[float], float]
HorizonFn = Callable[[], float]


def _no_horizon() -> float:
    return -inf


class LinkStats:
    """Counters shared by the link primitives."""

    def __init__(self) -> None:
        self.enqueued = 0
        self.delivered = 0
        self.dropped_overflow = 0
        self.bytes_delivered = 0


class CapacityLink:
    """Drop-tail FIFO drained at a time-varying rate.

    Parameters
    ----------
    loop:
        Event loop driving the simulation.
    rate_fn:
        Callable mapping simulated time to the instantaneous link rate
        in bits/s. Sampled when a packet is serialized.
    buffer_bytes:
        Drop-tail queue limit. Cellular uplinks use deep buffers; the
        default corresponds to roughly 1.5 s at 16 Mbps.
    deliver:
        Downstream hand-off ``deliver(datagram, done)``: ``done`` is the
        time the datagram finishes serializing. A link with a horizon
        may hand a datagram off before ``done``, so ``deliver`` acts at
        ``done``, not at the loop's clock, and sends nothing on this
        link.
    min_rate_bps:
        Floor applied to ``rate_fn`` output to avoid division blow-ups
        when the channel model reports a dead zone; genuine outages
        should use :meth:`set_up` instead.
    horizon:
        Optional callable giving the time before which neither
        ``rate_fn`` nor the up state can change (a channel's next tick,
        see :meth:`repro.cellular.channel.CellularChannel.rate_horizon`).
        A packet that reaches a free link, or that would start before
        the horizon, is serialized at enqueue at the rate read then,
        and one that also finishes before it is handed off at once; the
        packet that finishes at or past the horizon is handed off by
        one finish event, which also serializes whatever waits behind
        it. Without a horizon every packet is handed off by its own
        finish event. Either way each datagram is handed off in FIFO
        order with the finish time a per-packet event loop gives it.
    """

    def __init__(
        self,
        loop: EventLoop,
        rate_fn: RateFn,
        deliver: HandOffFn,
        *,
        buffer_bytes: int = 3_000_000,
        min_rate_bps: float = 10_000.0,
        horizon: HorizonFn | None = None,
    ) -> None:
        if buffer_bytes <= 0:
            raise ValueError(f"buffer_bytes must be positive, got {buffer_bytes}")
        self._loop = loop
        self._rate_fn = rate_fn
        self._deliver = deliver
        self._horizon = horizon if horizon is not None else _no_horizon
        self.buffer_bytes = buffer_bytes
        self.min_rate_bps = min_rate_bps
        #: Packets waiting to be serialized, and their bytes.
        self._queue: deque[Datagram] = deque()
        self._queued_bytes = 0
        #: ``(start, size)`` of serialized packets whose start may lie
        #: ahead of the clock: until it passes they are still queued,
        #: as far as the drop-tail limit is concerned.
        self._ahead: deque[tuple[float, int]] = deque()
        self._ahead_bytes = 0
        #: When the last serialized packet finishes.
        self._free_at = 0.0
        #: The last horizon read and the (floored) rate read with it:
        #: until that time the rate cannot change, so it is reused.
        self._until = -inf
        self._rate = 0.0
        self._busy = False
        self._up = True
        #: The datagram whose finish event is pending (``_busy``), kept
        #: on the instance so that event is a bound method instead of a
        #: fresh closure.
        self._inflight: Datagram | None = None
        self.stats = LinkStats()

    @property
    def queued_bytes(self) -> int:
        """Bytes of every packet that has not started serializing yet."""
        now = self._loop.now
        return self._queued_bytes + sum(
            size for start, size in self._ahead if start >= now
        )

    def set_up(self, up: bool) -> None:
        """Raise or silence the link (handover execution windows).

        Packets already being serialized complete; queued packets wait
        until the link comes back up.
        """
        was_up = self._up
        self._up = up
        if up and not was_up and not self._busy and self._queue:
            self._serve()

    def send(self, datagram: Datagram) -> None:
        """Enqueue ``datagram``, dropping it if the buffer is full."""
        self.stats.enqueued += 1
        size = datagram.size_bytes
        ahead = self._ahead
        if ahead:
            # Forget the serialized packets that have started by now.
            now = self._loop.now
            while ahead and ahead[0][0] < now:
                self._ahead_bytes -= ahead.popleft()[1]
        if self._queued_bytes + self._ahead_bytes + size > self.buffer_bytes:
            self.stats.dropped_overflow += 1
            return
        self._queue.append(datagram)
        self._queued_bytes += size
        if not self._busy and self._up:
            self._serve()

    def _serve(self) -> None:
        """Serialize waiting packets, from now and ahead to the horizon.

        Runs while the link is up and no finish event is pending, so the
        link is free from ``_free_at`` on, and ``_free_at`` is either
        past or before the horizon (a packet handed off at once finished
        before it). Every packet starts where the one ahead finishes,
        at the rate read now, until one finishes at or past the horizon.
        """
        loop = self._loop
        now = loop.now
        if now < self._until:
            rate = self._rate
        else:
            rate = self._rate_fn(now)
            floor = self.min_rate_bps
            if floor > rate:
                rate = floor
            self._rate = rate
            self._until = self._horizon()
        horizon = self._until
        start = self._free_at
        if now > start:
            start = now
        queue = self._queue
        stats = self.stats
        while queue:
            datagram = queue.popleft()
            size = datagram.size_bytes
            self._queued_bytes -= size
            if start > now:
                self._ahead.append((start, size))
                self._ahead_bytes += size
            done = start + bytes_to_bits(size) / rate
            self._free_at = done
            if done >= horizon:
                self._busy = True
                self._inflight = datagram
                loop.schedule_at(done, self._finish)
                return
            stats.delivered += 1
            stats.bytes_delivered += size
            self._deliver(datagram, done)
            start = done

    def _finish(self) -> None:
        datagram = self._inflight
        self._inflight = None
        self._busy = False
        stats = self.stats
        stats.delivered += 1
        stats.bytes_delivered += datagram.size_bytes
        self._deliver(datagram, self._loop.now)
        if self._queue and not self._busy and self._up:
            self._serve()


class DelayLine:
    """Fixed propagation delay plus optional random jitter.

    Delivery order is enforced FIFO: jitter can stretch gaps between
    packets but never reorders them, matching the in-order delivery of
    a single LTE bearer plus WAN path. Because arrivals are monotone,
    in-flight datagrams live in a FIFO deque and every delivery event
    is the same bound method — no per-packet closure — and the jitter
    draws come from a :class:`~repro.util.rng.BatchedNormal` block
    buffer (bit-identical to scalar draws on the same stream).
    """

    def __init__(
        self,
        loop: EventLoop,
        deliver: DeliverFn,
        *,
        base_delay: float,
        jitter_std: float = 0.0,
        rng: np.random.Generator | None = None,
        jitter: BatchedNormal | None = None,
    ) -> None:
        if base_delay < 0:
            raise ValueError(f"base_delay must be non-negative, got {base_delay}")
        if jitter_std < 0:
            raise ValueError(f"jitter_std must be non-negative, got {jitter_std}")
        if jitter_std > 0 and rng is None and jitter is None:
            raise ValueError("rng is required when jitter_std > 0")
        self._loop = loop
        self._deliver = deliver
        self.base_delay = base_delay
        self.jitter_std = jitter_std
        # ``jitter`` lets a seed-sweep batch hand in a draw buffer
        # preloaded for the whole run (one block refill per sweep,
        # same stream, same values — see SweepDrawPlan).
        if jitter is not None:
            self._jitter = jitter
        else:
            self._jitter = BatchedNormal(rng) if rng is not None else None
        self._inflight: deque[Datagram] = deque()
        self._last_delivery = -1.0
        self.stats = LinkStats()

    def send(self, datagram: Datagram, at: float | None = None) -> None:
        """Deliver ``datagram`` the propagation delay after ``at`` (default now)."""
        self.stats.enqueued += 1
        delay = self.base_delay
        if self.jitter_std > 0 and self._jitter is not None:
            # half-normal jitter: the floor is the physical minimum
            delay += abs(self._jitter.normal(0.0, self.jitter_std))
        loop = self._loop
        arrival = (loop.now if at is None else at) + delay
        last = self._last_delivery
        if last > arrival:
            arrival = last
        self._last_delivery = arrival
        self._inflight.append(datagram)
        loop.schedule_at(arrival, self._finish)

    def _finish(self) -> None:
        datagram = self._inflight.popleft()
        stats = self.stats
        stats.delivered += 1
        stats.bytes_delivered += datagram.size_bytes
        self._deliver(datagram)
