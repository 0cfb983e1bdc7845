"""SCReAM sender controller: window + rate control + loss detection.

Consumes RFC 8888 CCFB reports. Loss detection mirrors the Ericsson
implementation the paper used, including its central flaw (Section
4.2.1): a packet is declared lost when

* it is covered by the report window and flagged not-received while
  clearly newer packets were received (reordering margin), or
* its sequence number has slid **below** the report window
  (``begin_seq``) without ever being acknowledged. When more packets
  arrive between two reports than the window covers — frame bursts at
  high bitrates, queue drains after handovers — delivered packets are
  never reported and this rule fires falsely, cutting the bitrate
  needlessly. ``false_loss_candidates`` counts these events so the
  ablation bench can compare ack windows 64 vs 256.

A report covers ``ack_window`` sequence numbers, most of which are no
longer in flight, so :meth:`ScreamController.on_feedback` walks the
in-flight packets once instead of the report's positions. The dict
keeps send order, which is sequence order, so the walk meets the
stale entries (below the window) first and the in-window ones in
window order; entries past the window are skipped. Acks and in-window
losses reach the window in window order, then the stale entries in
send order — the calls and arguments of a per-position walk followed
by a full stale scan (DESIGN §14).
"""

from __future__ import annotations

from collections import deque

from repro.cc.base import CongestionController, FeedbackKind, SentPacket
from repro.cc.scream.rate import ScreamRateController
from repro.cc.scream.window import ScreamWindow
from repro.rtp.ccfb import CcfbReport
from repro.rtp.packets import SEQ_MOD
from repro.util.units import bytes_to_bits, to_ms

_SEQ_HALF = SEQ_MOD // 2


class ScreamController(CongestionController):
    """Self-Clocked Rate Adaptation for Multimedia (sender side)."""

    feedback_kind = FeedbackKind.CCFB
    uses_transport_seq = False
    #: Effective RTCP report spacing. Nominally the Ericsson library
    #: generates a report every 10 ms, but the paper's observation
    #: that "at rates higher than ~7 Mbps, more than 64 RTP packets
    #: arrive between two consecutive RTCP packets" (Section 4.2.1)
    #: implies an effective spacing of 64 * 1200 B / 7 Mbps ~ 80 ms
    #: under load — which is what makes the bounded ack window bite.
    feedback_interval = 0.08

    def __init__(
        self,
        *,
        initial_bitrate: float = 2e6,
        min_bitrate: float = 2e6,
        max_bitrate: float = 25e6,
        ramp_up_speed: float = 0.95e6,
        qdelay_target: float = 0.09,
        reorder_margin: int = 5,
        rate_adjust_interval: float = 0.2,
        pacing_headroom: float = 1.25,
        rtp_queue_discard_threshold: float = 0.1,
    ) -> None:
        super().__init__(initial_bitrate)
        self.window = ScreamWindow(qdelay_target=qdelay_target)
        self.rate = ScreamRateController(
            initial_bitrate=initial_bitrate,
            min_bitrate=min_bitrate,
            max_bitrate=max_bitrate,
            ramp_up_speed=ramp_up_speed,
        )
        self.reorder_margin = reorder_margin
        self.rate_adjust_interval = rate_adjust_interval
        self.pacing_headroom = pacing_headroom
        #: Sender RTP-queue delay beyond which the queue is discarded
        #: (the Ericsson implementation's 100 ms guard).
        self.rtp_queue_discard_threshold = rtp_queue_discard_threshold
        self._in_flight: dict[int, SentPacket] = {}
        self._last_rate_adjust = 0.0
        self._last_rate_loss: float | None = None
        self._rtp_queue_delay = 0.0
        self._acked: deque[tuple[float, int]] = deque()
        self._acked_bytes = 0
        self._acked_window = 0.5
        self.false_loss_candidates = 0
        self.detected_losses = 0

    # ------------------------------------------------------------------
    # CongestionController interface
    # ------------------------------------------------------------------
    def pacing_rate(self, now: float) -> float:
        # Self-clocked pacing: drain at the window throughput with
        # modest headroom, never slower than the media rate.
        return max(
            self.pacing_headroom * self.window.throughput_estimate(),
            self._target_bitrate,
        )

    def can_send(self, bytes_in_flight: int, packet_size: int, now: float) -> bool:
        return self.window.can_send(packet_size)

    def on_packet_sent(self, packet: SentPacket, now: float) -> None:
        # The dict keeps send order, which on_feedback's walk relies
        # on: a sequence number reused after the 16-bit wrap moves to
        # the newest end instead of keeping its old slot.
        in_flight = self._in_flight
        sequence = packet.sequence
        if sequence in in_flight:
            del in_flight[sequence]
        in_flight[sequence] = packet
        self.window.on_packet_sent(packet.size_bytes, now)

    def on_queue_state(self, queue_delay: float, queue_bytes: int, now: float) -> None:
        # Smooth the queue-delay signal: the head-of-line age sawtooths
        # between 0 and one frame interval at every frame, which is not
        # congestion — only a *persistently* old queue head is.
        self._rtp_queue_delay += 0.1 * (queue_delay - self._rtp_queue_delay)

    def on_feedback(self, report: CcfbReport, now: float) -> None:
        if not isinstance(report, CcfbReport):
            raise TypeError(f"expected CcfbReport, got {type(report)!r}")
        begin = report.begin_seq
        received = report.received
        count = len(received)
        if count > _SEQ_HALF:
            raise ValueError(
                f"a CCFB report covers at most {_SEQ_HALF} sequence "
                f"numbers, got {count}"
            )
        in_flight = self._in_flight
        # One walk over the in-flight packets. Position p is the
        # sequence number's offset from begin_seq: inside the window
        # when p < count, below it (stale) when p > _SEQ_HALF, i.e.
        # seq_distance(seq, begin_seq) > 0; past the window otherwise.
        hits: list[int] = []
        stale: list[int] = []
        last = -1
        ordered = True
        for seq in in_flight:
            position = (seq - begin) % SEQ_MOD
            if position < count:
                if position < last:
                    ordered = False
                last = position
                hits.append(seq)
            elif position > _SEQ_HALF:
                stale.append(seq)
        if not ordered:
            # Never reached while the dict keeps send order; the window
            # must still see its positions in order if it does not.
            hits.sort(key=lambda seq: (seq - begin) % SEQ_MOD)
        loss_detected = False
        window = self.window
        offsets = report.offsets
        report_timestamp = report.report_timestamp
        # Not received is a loss only when clearly out of the
        # reordering window: seq_distance(seq, end_seq) > margin, which
        # inside the window is count - 1 - position > margin.
        lost_below = count - 1 - self.reorder_margin
        acked = self._acked
        acked_bytes = self._acked_bytes
        acked_window = self._acked_window
        for seq in hits:
            position = (seq - begin) % SEQ_MOD
            if received[position]:
                record = in_flight.pop(seq)
                arrival = report_timestamp - (offsets[position] or 0.0)
                owd = arrival - record.send_time
                record.acked = True
                size = record.size_bytes
                window.update_srtt(now - record.send_time)
                window.on_packet_acked(size, owd if owd > 0.0 else 0.0, now)
                acked.append((arrival, size))
                acked_bytes += size
                horizon = arrival - acked_window
                while acked[0][0] < horizon:
                    acked_bytes -= acked.popleft()[1]
            elif position < lost_below:
                record = in_flight.pop(seq)
                record.lost = True
                window.on_packet_lost(record.size_bytes, now)
                loss_detected = True
        self._acked_bytes = acked_bytes
        # Packets that slid below the report window unacknowledged:
        # the implementation cannot distinguish "delivered but never
        # reported" from "lost" — it declares them lost (the paper's
        # false-loss mechanism).
        for seq in stale:
            record = in_flight.pop(seq)
            record.lost = True
            window.on_packet_lost(record.size_bytes, now)
        if stale:
            self.false_loss_candidates += len(stale)
            loss_detected = True
            if self.obs.enabled:
                self.obs.event("scream.false_loss", packets=len(stale))
                self.obs.count("scream/false_loss_candidates", len(stale))
        if loss_detected:
            self.detected_losses += 1
            if self.obs.enabled:
                self.obs.event("scream.loss", cwnd=float(self.window.cwnd))
                self.obs.count("scream/loss_events")
            # Media-rate back-off at most once per RTT, mirroring the
            # cwnd loss-event gating — individual reports often flag
            # several packets of the same loss episode.
            if (
                self._last_rate_loss is None
                or now - self._last_rate_loss >= self.window.srtt
            ):
                self._last_rate_loss = now
                self.rate.on_loss()
        if now - self._last_rate_adjust >= self.rate_adjust_interval:
            self._last_rate_adjust = now
            previous_target = self._target_bitrate
            self._target_bitrate = self.rate.adjust(
                now,
                rtp_queue_delay=self._rtp_queue_delay,
                qdelay=self.window.qdelay,
                qdelay_target=self.window.qdelay_target,
                window_throughput=self.window.throughput_estimate(),
                ack_rate=self.acked_bitrate(),
            )
            self._record(
                now,
                cwnd=float(self.window.cwnd),
                bytes_in_flight=float(self.window.bytes_in_flight),
                qdelay=self.window.qdelay,
                srtt=self.window.srtt,
                rtp_queue_delay=self._rtp_queue_delay,
            )
            if self.obs.enabled:
                self.obs.gauge("scream/target_bitrate", self._target_bitrate)
                self.obs.gauge("scream/cwnd_bytes", float(self.window.cwnd))
                self.obs.observe("scream/qdelay_ms", to_ms(self.window.qdelay))
                if self._target_bitrate < previous_target:
                    self.obs.event(
                        "scream.rate_decrease",
                        from_bps=previous_target,
                        to_bps=self._target_bitrate,
                        reason="loss" if loss_detected else "qdelay",
                    )

    def acked_bitrate(self) -> float | None:
        """Delivery rate measured from acknowledged packets (bits/s)."""
        if len(self._acked) < 2:
            return None
        span = max(self._acked[-1][0] - self._acked[0][0], 0.05)
        return bytes_to_bits(self._acked_bytes) / span

    @property
    def bytes_in_flight(self) -> int:
        """Bytes currently counted against the congestion window."""
        return self.window.bytes_in_flight
