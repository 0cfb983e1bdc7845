"""Composition of link primitives into an end-to-end path.

:class:`NetworkPath` wires capacity queue -> loss gate -> delay line
and stamps datagram send/receive times, so end hosts observe one-way
delays that include self-induced queueing — the mechanism behind the
paper's bufferbloat-driven latency spikes.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.net.links import CapacityLink, DelayLine, HorizonFn, RateFn
from repro.util.rng import BatchedNormal
from repro.net.loss import LossModel, NoLoss
from repro.net.packet import Datagram
from repro.net.simulator import EventLoop
from repro.obs import NULL_RECORDER, NullRecorder

ReceiveFn = Callable[[Datagram], None]


class NetworkPath:
    """One direction of a cellular + WAN path.

    Parameters
    ----------
    loop:
        Shared event loop.
    rate_fn:
        Instantaneous radio capacity in bits/s (see
        :class:`repro.net.links.CapacityLink`).
    receive:
        End-host callback for delivered datagrams, kept as the public
        :attr:`receive`: a caller may replace or wrap it once the path
        is built (the C2 session records its own datagrams that way).
    base_delay:
        Fixed one-way propagation/core delay in seconds.
    jitter_std:
        Std-dev of the half-normal delay jitter in seconds.
    loss_model:
        Residual loss process applied after the radio queue.
    buffer_bytes:
        Radio queue depth (drop-tail).
    rng:
        Jitter noise generator; required whenever ``jitter_std > 0``
        (unless ``jitter`` is given). Derive it from the scenario's
        :class:`repro.util.rng.RngStreams` so two paths never share a
        stream.
    jitter:
        Optional pre-built (typically sweep-preloaded) jitter draw
        buffer; overrides ``rng``.
    obs:
        Trace recorder; consecutive loss-gate drops are recorded as
        ``loss.burst`` spans (the Gilbert-Elliott bad-state episodes
        the attribution engine matches against stalls).
    name:
        Path label stamped on trace records (e.g. ``"uplink"``).
    horizon:
        Optional time before which ``rate_fn`` and the outage state
        cannot change, for the capacity link to serialize ahead to
        (a channel's :meth:`~repro.cellular.channel.CellularChannel.rate_horizon`;
        see :class:`repro.net.links.CapacityLink`).
    """

    def __init__(
        self,
        loop: EventLoop,
        rate_fn: RateFn,
        receive: ReceiveFn,
        *,
        base_delay: float = 0.025,
        jitter_std: float = 0.001,
        loss_model: LossModel | None = None,
        buffer_bytes: int = 3_000_000,
        rng: np.random.Generator | None = None,
        jitter: BatchedNormal | None = None,
        obs: NullRecorder = NULL_RECORDER,
        name: str = "",
        horizon: HorizonFn | None = None,
    ) -> None:
        self._loop = loop
        self.receive = receive
        self.loss_model = loss_model if loss_model is not None else NoLoss()
        self.lost_packets = 0
        self.obs = obs
        self.name = name
        self._burst_packets = 0
        self._burst_t0 = 0.0
        self._burst_t1 = 0.0
        if jitter_std > 0 and rng is None and jitter is None:
            raise ValueError(
                "rng is required when jitter_std > 0; derive one from the "
                "scenario RngStreams (e.g. streams.derive('jitter-up'))"
            )
        self.delay_line = DelayLine(
            loop,
            self._on_delivered,
            base_delay=base_delay,
            jitter_std=jitter_std,
            rng=rng,
            jitter=jitter,
        )
        self.capacity_link = CapacityLink(
            loop,
            rate_fn,
            self._after_radio,
            buffer_bytes=buffer_bytes,
            horizon=horizon,
        )

    def send(self, datagram: Datagram) -> None:
        """Inject ``datagram`` at the sender side of the path."""
        datagram.sent_at = self._loop.now
        self.capacity_link.send(datagram)

    def _after_radio(self, datagram: Datagram, done: float) -> None:
        # ``done`` is when the datagram left the radio queue, which the
        # capacity link may hand off ahead of the clock.
        if self.loss_model.should_drop():
            self.lost_packets += 1
            if self.obs.enabled:
                if self._burst_packets == 0:
                    self._burst_t0 = done
                self._burst_packets += 1
                self._burst_t1 = done
            return
        if self.obs.enabled and self._burst_packets:
            self._close_burst()
        self.delay_line.send(datagram, done)

    def _close_burst(self) -> None:
        self.obs.span_at(
            "loss.burst",
            self._burst_t0,
            self._burst_t1,
            packets=self._burst_packets,
            path=self.name,
        )
        self.obs.count("net/loss_bursts", **({"path": self.name}
                                             if self.name else {}))
        self._burst_packets = 0

    def finish_obs(self) -> None:
        """Flush a loss burst still open at session teardown."""
        if self.obs.enabled and self._burst_packets:
            self._close_burst()

    def _on_delivered(self, datagram: Datagram) -> None:
        datagram.received_at = self._loop.now
        self.receive(datagram)

    def set_up(self, up: bool) -> None:
        """Propagate radio outage state to the capacity link."""
        self.capacity_link.set_up(up)
