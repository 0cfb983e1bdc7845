"""UAV-side sender pipeline: source -> encoder -> packetizer -> pacer.

Mirrors the paper's GStreamer sender: the source video is re-encoded
in real time at the target bitrate the congestion controller dictates,
split into RTP packets and sent over the LTE uplink. The pacer drains
the RTP send queue at the controller's pacing rate, subject to the
controller's window (SCReAM's cwnd); SCReAM additionally discards the
whole send queue when its head-of-line delay exceeds 100 ms — the
behaviour the paper credits for SCReAM's fast playback-latency
recovery *and* blames for the receiver-side sequence jumps.
"""

from __future__ import annotations

from array import array
from collections import deque
from dataclasses import dataclass
from math import inf

import numpy as np

from repro.cc.base import CongestionController, SentPacket
from repro.net.packet import Datagram, IP_UDP_OVERHEAD_BYTES
from repro.net.path import NetworkPath
from repro.net.simulator import EventHandle, EventLoop, PeriodicTimer
from repro.obs import NULL_RECORDER, NullRecorder
from repro.obs.detect import EwmaZScore
from repro.util.units import bytes_to_bits, to_ms
from repro.rtp.packetizer import Packetizer
from repro.rtp.packets import RtpPacket, timestamp_for
from repro.rtp.rtcp import ReceiverReport, SenderReport, rtt_from_block
from repro.video.encoder import EncoderModel
from repro.video.source import SourceVideo

#: Interval between RTCP sender reports (RFC 3550 scaled for video).
SENDER_REPORT_INTERVAL = 1.0


@dataclass
class SenderStats:
    """Counters exposed for analysis and tests."""

    frames_encoded: int = 0
    packets_sent: int = 0
    bytes_sent: int = 0
    queue_discards: int = 0
    packets_discarded: int = 0


class VideoSender:
    """Encoder + RTP send queue + pacer, driven by a congestion controller."""

    def __init__(
        self,
        loop: EventLoop,
        source: SourceVideo,
        encoder: EncoderModel,
        controller: CongestionController,
        uplink: NetworkPath,
        *,
        ssrc: int = 0x1234,
        obs: NullRecorder = NULL_RECORDER,
    ) -> None:
        self._loop = loop
        self.obs = obs
        self.source = source
        self.encoder = encoder
        self.controller = controller
        self.uplink = uplink
        self.packetizer = Packetizer(
            ssrc,
            use_transport_seq=controller.uses_transport_seq,
        )
        self.ssrc = ssrc
        #: (packet, enqueue_time) FIFO awaiting pacing.
        self._queue: deque[tuple[RtpPacket, float]] = deque()
        self._queued_bytes = 0
        self._pacer_busy = False
        self.stats = SenderStats()
        self._frame_timer: PeriodicTimer | None = None
        self._sr_timer: PeriodicTimer | None = None
        #: Encode-latency events in flight, cancelled on stop so
        #: teardown leaves the event loop clean (cf. JitterBuffer).
        self._pending_events: set[EventHandle] = set()
        #: The pacer is strictly sequential (one outstanding
        #: ``_send_next`` at a time), so it keeps only the handle of
        #: its one pending event (a fresh handle per packet, for
        #: ``stop`` to cancel), armed with a bound method instead of
        #: a per-event closure in the tracked set above.
        self._pacer_handle: EventHandle | None = None
        #: (time, rtt) samples from RFC 3550 LSR/DLSR round trips —
        #: available for every workload, including static runs.
        self.rtt_samples: list[tuple[float, float]] = []
        #: Streaming detector for self-induced send-queue growth
        #: (queue-bloat evidence for the attribution engine).
        self._queue_anomaly = EwmaZScore(
            obs, "sender.queue_anomaly", min_delta=50.0,
        )
        #: Head-of-line age (seconds) after each send, kept only while
        #: obs is on: :meth:`stop` folds it into the per-packet metrics.
        #: A typed buffer holds 8 bytes per packet, a list of floats 32.
        self._queue_delays = array("d")

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Begin producing frames at the source frame rate."""
        if self._frame_timer is not None:
            raise RuntimeError("sender already started")
        self._frame_timer = PeriodicTimer(
            self._loop, self.source.frame_interval, self._on_frame_tick
        )
        self._sr_timer = PeriodicTimer(
            self._loop, SENDER_REPORT_INTERVAL, self._send_sender_report
        )

    def stop(self) -> None:
        """Stop frame production and cancel in-flight pacer/encode events.

        A stopped sender leaves the event loop clean, so
        ``EventLoop.pending()`` stays meaningful after teardown. With
        obs on, the per-packet metrics are recorded here, as folds of
        :attr:`stats` and the per-send head-of-line ages.
        """
        if self._frame_timer is not None:
            self._frame_timer.stop()
        if self._sr_timer is not None:
            self._sr_timer.stop()
        for handle in self._pending_events:
            handle.cancel()
        self._pending_events.clear()
        if self._pacer_handle is not None:
            self._pacer_handle.cancel()
            self._pacer_handle = None
        obs = self.obs
        if obs.enabled:
            self._queue_anomaly.finish(self._loop.now)
            stats = self.stats
            if stats.packets_sent:
                obs.count("sender/packets_sent", stats.packets_sent)
                obs.count("sender/bytes_sent", stats.bytes_sent)
            obs.observe_many(
                "sender/queue_delay_ms", to_ms(np.array(self._queue_delays))
            )

    def _call_later(self, delay: float, callback) -> None:
        """Schedule ``callback``, tracking the handle for teardown."""
        handle: EventHandle

        def fire() -> None:
            self._pending_events.discard(handle)
            callback()

        handle = self._loop.call_later(delay, fire)
        self._pending_events.add(handle)

    def _send_sender_report(self) -> None:
        now = self._loop.now
        report = SenderReport(
            ssrc=self.ssrc,
            ntp_time=now,
            rtp_timestamp=timestamp_for(now),
            packet_count=self.stats.packets_sent,
            octet_count=self.stats.bytes_sent,
        )
        self.uplink.send(
            Datagram(
                size_bytes=report.wire_size + IP_UDP_OVERHEAD_BYTES,
                payload=report,
            )
        )

    def on_receiver_report(self, report: ReceiverReport, now: float) -> None:
        """Fold an RFC 3550 RR into the sender's RTT log."""
        for block in report.blocks:
            if block.ssrc != self.ssrc:
                continue
            rtt = rtt_from_block(block, now)
            if rtt is not None:
                self.rtt_samples.append((now, rtt))

    # ------------------------------------------------------------------
    # queue state
    # ------------------------------------------------------------------
    @property
    def queue_delay(self) -> float:
        """Age of the oldest queued RTP packet in seconds."""
        if not self._queue:
            return 0.0
        return self._loop.now - self._queue[0][1]

    @property
    def queued_bytes(self) -> int:
        """Bytes waiting in the RTP send queue."""
        return self._queued_bytes

    # ------------------------------------------------------------------
    # encoding
    # ------------------------------------------------------------------
    def _on_frame_tick(self) -> None:
        now = self._loop.now
        self.encoder.set_target_bitrate(self.controller.target_bitrate(now))
        frame = self.source.next_frame(now)
        encoded = self.encoder.encode(frame)
        self.stats.frames_encoded += 1
        if self.obs.enabled:
            self.obs.count("sender/frames_encoded")
            self.obs.gauge("sender/encoder_target_bps", self.encoder.target_bitrate)
        # The encoded frame becomes available after the encode latency.
        self._call_later(
            encoded.encode_latency, lambda: self._enqueue_frame_packets(encoded)
        )

    def _enqueue_frame_packets(self, encoded) -> None:
        now = self._loop.now
        self._maybe_discard_queue(now)
        for packet in self.packetizer.packetize(encoded, now):
            self._queue.append((packet, now))
            self._queued_bytes += packet.wire_size
        if self.obs.enabled:
            # Queue growth is a frame-timescale signal; sampling the
            # anomaly detector here (~fps Hz) instead of per sent
            # packet keeps the traced hot path cheap.
            self._queue_anomaly.update(now, to_ms(self.queue_delay))
        self._report_queue_state(now)
        self._pump()

    def _maybe_discard_queue(self, now: float) -> None:
        threshold = getattr(self.controller, "rtp_queue_discard_threshold", None)
        if threshold is None or not self._queue:
            return
        if now - self._queue[0][1] > threshold:
            self.stats.queue_discards += 1
            self.stats.packets_discarded += len(self._queue)
            if self.obs.enabled:
                self.obs.event(
                    "sender.queue_discard",
                    t=now,
                    packets=len(self._queue),
                    queued_bytes=self._queued_bytes,
                    head_age_ms=to_ms(now - self._queue[0][1]),
                )
                self.obs.count("sender/queue_discards")
                self.obs.count("sender/packets_discarded", len(self._queue))
            self._queue.clear()
            self._queued_bytes = 0

    def _report_queue_state(self, now: float) -> None:
        self.controller.on_queue_state(self.queue_delay, self._queued_bytes, now)

    # ------------------------------------------------------------------
    # pacing
    # ------------------------------------------------------------------
    def _pump(self) -> None:
        if self._pacer_busy:
            return
        self._send_next()

    def _send_next(self) -> None:
        # Per-packet hot path. A paced send re-arms with
        # ``call_at(now + delay)``, the sum ``call_later`` would form,
        # so the event keys are those of a ``call_later`` pacer. While
        # the pacing rate is ``inf`` (the static controller never
        # paces) the next packet leaves in this same callback instead
        # of a zero-delay event: a frame's packets all leave at once.
        self._pacer_handle = None
        self._pacer_busy = False
        queue = self._queue
        loop = self._loop
        now = loop.now
        controller = self.controller
        stats = self.stats
        while queue:
            packet = queue[0][0]
            size = packet.wire_size
            in_flight = getattr(controller, "bytes_in_flight", 0)
            if not controller.can_send(in_flight, size, now):
                # Window-blocked: poll again shortly (feedback will open it).
                self._pacer_busy = True
                self._pacer_handle = loop.call_at(now + 0.002, self._send_next)
                return
            queue.popleft()
            self._queued_bytes -= size
            self.uplink.send(Datagram(size + IP_UDP_OVERHEAD_BYTES, packet))
            stats.packets_sent += 1
            stats.bytes_sent += size
            # Age of the next queued packet, as ``queue_delay`` reports it.
            head_delay = now - queue[0][1] if queue else 0.0
            if self.obs.enabled:
                self._queue_delays.append(head_delay)
            controller.on_packet_sent(
                SentPacket(packet.sequence, packet.transport_seq, size, now,
                           packet.frame_id),
                now,
            )
            controller.on_queue_state(head_delay, self._queued_bytes, now)
            rate = controller.pacing_rate(now)
            if rate != inf:
                self._pacer_busy = True
                self._pacer_handle = loop.call_at(
                    now + bytes_to_bits(size) / (1e4 if 1e4 > rate else rate),
                    self._send_next,
                )
                return
