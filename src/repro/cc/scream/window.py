"""SCReAM congestion-window (network) control.

Implements the self-clocked window logic of RFC 8298 / Johansson
(CSWS '14): the sender may keep at most ``cwnd`` bytes in flight;
``cwnd`` grows while the estimated queuing delay is below the target
(default 60 ms) and shrinks when it is above or when a loss event
occurs (multiplicative 0.8 back-off, at most once per RTT).

The queuing delay is the one-way delay minus a windowed minimum
("base delay"). Clocks at both ends are synchronized in the
simulation, matching the paper's GPS-disciplined setup.

:meth:`ScreamWindow.on_packet_acked` runs once per acknowledged
packet and does its work in one pass: the 30 s base-delay minimum and
the 1 s bytes-in-flight maximum behind the growth ceiling are
one-sided :class:`~repro.util.running.WindowedExtremum` trackers (one
monotonic deque each), and the queuing-delay average, the window
growth and its ceiling are inline. Every expression keeps its
operands, their order and their value types — ``max(0.0, d)`` is
written ``d if d > 0.0 else 0.0``, which is what ``max`` returns, so
a ``numpy.float64`` delay still gives a ``numpy.float64`` queuing
delay — and the controller's log is unchanged (DESIGN §14).
"""

from __future__ import annotations

from repro.util.running import WindowedExtremum
from repro.util.units import bytes_to_bits

#: Maximum segment size used for cwnd arithmetic (bytes).
MSS = 1200

#: Smoothing factor of the queuing-delay average.
QDELAY_ALPHA = 0.25


class ScreamWindow:
    """Self-clocked congestion window."""

    def __init__(
        self,
        *,
        qdelay_target: float = 0.06,
        gain: float = 1.0,
        loss_beta: float = 0.8,
        min_cwnd: int = 2 * MSS,
        base_delay_window: float = 30.0,
        bytes_in_flight_headroom: float = 2.0,
    ) -> None:
        if qdelay_target <= 0:
            raise ValueError(f"qdelay_target must be positive: {qdelay_target}")
        self.qdelay_target = qdelay_target
        self.gain = gain
        self.loss_beta = loss_beta
        self.min_cwnd = min_cwnd
        self.cwnd = 10 * MSS
        self.bytes_in_flight = 0
        self._base_delay = WindowedExtremum(base_delay_window)
        #: Exponential average of the queuing delay (``None`` before
        #: the first ack).
        self._qdelay_avg: float | None = None
        self._max_bif = WindowedExtremum(1.0, maximum=True)
        self._headroom = bytes_in_flight_headroom
        self._last_loss_event: float | None = None
        self.srtt = 0.05
        self.loss_events = 0

    @property
    def qdelay(self) -> float:
        """Smoothed queuing-delay estimate in seconds."""
        return self._qdelay_avg or 0.0

    @property
    def base_delay(self) -> float:
        """Current base one-way delay estimate in seconds."""
        value = self._base_delay.value
        return 0.0 if value != value else value  # NaN check

    def can_send(self, packet_size: int) -> bool:
        """Whether the window admits ``packet_size`` more bytes."""
        return self.bytes_in_flight + packet_size <= self.cwnd

    def on_packet_sent(self, size_bytes: int, now: float) -> None:
        """Account a transmitted packet against the window."""
        self.bytes_in_flight += size_bytes
        self._max_bif.update(now, self.bytes_in_flight)

    def on_packet_acked(
        self, size_bytes: int, one_way_delay: float, now: float
    ) -> None:
        """Process an acknowledgment carrying a delay sample."""
        remaining = self.bytes_in_flight - size_bytes
        self.bytes_in_flight = remaining if remaining > 0 else 0
        base = self._base_delay.update(now, one_way_delay)
        if base != base:  # NaN check
            base = 0.0
        queuing = one_way_delay - base
        queuing = queuing if queuing > 0.0 else 0.0
        average = self._qdelay_avg
        if average is None:
            average = float(queuing)
        else:
            average += QDELAY_ALPHA * (queuing - average)
        self._qdelay_avg = average
        # Grow below the queuing-delay target, shrink gently above it
        # (RFC 8298).
        qdelay = average or 0.0
        off_target = (self.qdelay_target - qdelay) / self.qdelay_target
        cwnd = self.cwnd
        divisor = 1 if cwnd < 1 else cwnd
        if off_target > 0:
            increment = self.gain * off_target * size_bytes * MSS / divisor
            cwnd += int(increment)
        else:
            decrement = (
                self.gain * abs(off_target) * size_bytes * MSS / divisor
            )
            cwnd -= int(0.5 * decrement)
        # Never grow far beyond what is actually being used.
        max_bif = self._max_bif.value
        if max_bif == max_bif:  # not NaN
            ceiling = int(self._headroom * max_bif) + MSS
            if not ceiling > self.min_cwnd:
                ceiling = self.min_cwnd
            if ceiling < cwnd:
                cwnd = ceiling
        self.cwnd = self.min_cwnd if self.min_cwnd > cwnd else cwnd

    def on_packet_lost(self, size_bytes: int, now: float) -> None:
        """Process a loss indication (true or false — SCReAM cannot tell)."""
        self.bytes_in_flight = max(0, self.bytes_in_flight - size_bytes)
        if (
            self._last_loss_event is not None
            and now - self._last_loss_event < self.srtt
        ):
            return  # at most one multiplicative back-off per RTT
        self._last_loss_event = now
        self.loss_events += 1
        self.cwnd = max(self.min_cwnd, int(self.cwnd * self.loss_beta))

    def update_srtt(self, rtt_sample: float) -> None:
        """Fold a round-trip-time sample into the smoothed RTT."""
        if rtt_sample > 0:
            self.srtt = 0.9 * self.srtt + 0.1 * rtt_sample

    def throughput_estimate(self) -> float:
        """Rate the current window can sustain, in bits/s."""
        return bytes_to_bits(self.cwnd) / max(self.srtt, 1e-3)
