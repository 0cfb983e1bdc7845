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
from typing import Callable

import numpy as np

from repro.net.packet import Datagram
from repro.net.simulator import EventLoop
from repro.util.rng import BatchedNormal
from repro.util.units import bytes_to_bits

DeliverFn = Callable[[Datagram], None]
RateFn = Callable[[float], float]


class LinkStats:
    """Counters shared by the link primitives."""

    def __init__(self) -> None:
        self.enqueued = 0
        self.delivered = 0
        self.dropped_overflow = 0
        self.bytes_delivered = 0

    def as_dict(self) -> dict[str, int]:
        """Snapshot of the counters for reporting."""
        return {
            "enqueued": self.enqueued,
            "delivered": self.delivered,
            "dropped_overflow": self.dropped_overflow,
            "bytes_delivered": self.bytes_delivered,
        }


class CapacityLink:
    """Drop-tail FIFO drained at a time-varying rate.

    Parameters
    ----------
    loop:
        Event loop driving the simulation.
    rate_fn:
        Callable mapping simulated time to the instantaneous link rate
        in bits/s. Sampled at the start of each packet transmission.
    buffer_bytes:
        Drop-tail queue limit. Cellular uplinks use deep buffers; the
        default corresponds to roughly 1.5 s at 16 Mbps.
    deliver:
        Downstream callback invoked when a packet finishes serializing.
    min_rate_bps:
        Floor applied to ``rate_fn`` output to avoid division blow-ups
        when the channel model reports a dead zone; genuine outages
        should use :meth:`set_up` instead.
    """

    def __init__(
        self,
        loop: EventLoop,
        rate_fn: RateFn,
        deliver: DeliverFn,
        *,
        buffer_bytes: int = 3_000_000,
        min_rate_bps: float = 10_000.0,
    ) -> None:
        if buffer_bytes <= 0:
            raise ValueError(f"buffer_bytes must be positive, got {buffer_bytes}")
        self._loop = loop
        self._rate_fn = rate_fn
        self._deliver = deliver
        self.buffer_bytes = buffer_bytes
        self.min_rate_bps = min_rate_bps
        self._queue: deque[Datagram] = deque()
        self._queued_bytes = 0
        self._busy = False
        self._up = True
        #: The single datagram currently serializing (``_busy`` guards
        #: exclusivity), kept on the instance so the per-packet finish
        #: event is a bound method instead of a fresh closure.
        self._inflight: Datagram | None = None
        self.stats = LinkStats()

    @property
    def queued_bytes(self) -> int:
        """Bytes currently waiting in the buffer (excludes in-flight)."""
        return self._queued_bytes

    @property
    def queue_length(self) -> int:
        """Packets currently waiting in the buffer."""
        return len(self._queue)

    @property
    def is_up(self) -> bool:
        """Whether the radio is currently able to transmit."""
        return self._up

    def queuing_delay_estimate(self) -> float:
        """Approximate sojourn time of a packet entering the queue now."""
        rate = max(self._rate_fn(self._loop.now), self.min_rate_bps)
        return bytes_to_bits(self._queued_bytes) / rate

    def set_up(self, up: bool) -> None:
        """Raise or silence the link (handover execution windows).

        Packets already being serialized complete; queued packets wait
        until the link comes back up.
        """
        was_up = self._up
        self._up = up
        if up and not was_up:
            self._maybe_start()

    def send(self, datagram: Datagram) -> None:
        """Enqueue ``datagram``, dropping it if the buffer is full."""
        self.stats.enqueued += 1
        size = datagram.size_bytes
        if self._queued_bytes + size > self.buffer_bytes:
            self.stats.dropped_overflow += 1
            return
        if not self._busy and self._up and not self._queue:
            # Idle link: the datagram would be the queue head at once,
            # so it starts serializing without the enqueue round trip.
            self._start(datagram)
            return
        self._queue.append(datagram)
        self._queued_bytes += size
        if not self._busy:
            self._maybe_start()

    def _maybe_start(self) -> None:
        if self._busy or not self._up or not self._queue:
            return
        datagram = self._queue.popleft()
        self._queued_bytes -= datagram.size_bytes
        self._start(datagram)

    def _start(self, datagram: Datagram) -> None:
        """Begin serializing ``datagram`` at the current link rate."""
        loop = self._loop
        now = loop.now
        rate = self._rate_fn(now)
        floor = self.min_rate_bps
        if floor > rate:
            rate = floor
        self._busy = True
        self._inflight = datagram
        loop.schedule_at(
            now + bytes_to_bits(datagram.size_bytes) / rate, self._finish
        )

    def _finish(self) -> None:
        datagram = self._inflight
        self._inflight = None
        self._busy = False
        stats = self.stats
        stats.delivered += 1
        stats.bytes_delivered += datagram.size_bytes
        self._deliver(datagram)
        if self._queue:
            self._maybe_start()


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

    def send(self, datagram: Datagram) -> None:
        """Deliver ``datagram`` after the propagation delay."""
        self.stats.enqueued += 1
        delay = self.base_delay
        if self.jitter_std > 0 and self._jitter is not None:
            # half-normal jitter: the floor is the physical minimum
            delay += abs(self._jitter.normal(0.0, self.jitter_std))
        loop = self._loop
        arrival = loop.now + delay
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
