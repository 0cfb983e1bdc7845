"""Remote-pilot-side receiver: jitter buffer, decoder, player, feedback.

Mirrors the paper's AWS-hosted GStreamer player: incoming RTP packets
pass a 150 ms jitter buffer, are reassembled into frames, decoded and
played by the adaptive-speed player. In parallel, the transport layer
records per-packet arrivals and generates the RTCP feedback the
active congestion controller needs (TWCC for GCC every ~50 ms, RFC
8888 CCFB for SCReAM every 10 ms), shipped back over the downlink.
"""

from __future__ import annotations

from repro.cc.base import CongestionController, FeedbackKind
# PacketLogEntry is exported from here too: pickles name it here.
from repro.core.packet_log import PacketLog, PacketLogEntry  # noqa: F401
from repro.net.packet import Datagram, IP_UDP_OVERHEAD_BYTES
from repro.net.path import NetworkPath
from repro.net.simulator import EventLoop, PeriodicTimer
from repro.obs import NULL_RECORDER, NullRecorder, ObsLevel
from repro.obs.detect import EwmaZScore, WindowedStats
from repro.util.units import to_ms
from repro.rtp.ccfb import CcfbRecorder
from repro.rtp.jitter_buffer import JitterBuffer
from repro.rtp.packetizer import FrameAssembler
from repro.rtp.packets import RtpPacket
from repro.rtp.rtcp import ReceiverReport, RtcpAccountant, SenderReport
from repro.rtp.twcc import TwccRecorder

#: Interval between RFC 3550 receiver reports.
RECEIVER_REPORT_INTERVAL = 1.0
#: Sampling stride of the streaming OWD anomaly detector, seconds.
OWD_SAMPLE_INTERVAL = 0.05
from repro.video.decoder import DecoderModel
from repro.video.player import Player


class VideoReceiver:
    """Receiver pipeline and RTCP feedback generator.

    ``downlink`` is the path feedback and receiver reports travel on.
    It may be ``None`` at construction and set on :attr:`downlink`
    before :meth:`start`: :func:`repro.core.session.build_session`
    builds the receiver first, so the uplink can deliver every media
    packet straight into :meth:`on_datagram`.
    """

    def __init__(
        self,
        loop: EventLoop,
        controller: CongestionController,
        downlink: NetworkPath | None,
        *,
        ssrc: int = 0x1234,
        fps: float = 30.0,
        jitter_buffer_latency: float = 0.150,
        drop_on_latency: bool = False,
        decoder: DecoderModel | None = None,
        scream_ack_window: int = 64,
        obs: NullRecorder = NULL_RECORDER,
    ) -> None:
        self._loop = loop
        self.obs = obs
        self.controller = controller
        self.downlink = downlink
        self.decoder = decoder if decoder is not None else DecoderModel()
        self.player = Player(loop, fps=fps, obs=obs)
        #: Per-second delivery bins (bytes/packets -> goodput) and a
        #: streaming OWD-inflation detector (bufferbloat evidence for
        #: the attribution engine). The bins only emit trace events,
        #: so they are fed only when the recorder keeps a trace; the
        #: detector's episode counter is a metric, so it runs at both
        #: tiers.
        self._window = WindowedStats(
            obs, "receiver.window",
            sums=("bytes", "packets"), maxes=("owd_max_ms",),
        )
        self._windowed = obs.level is ObsLevel.TRACE
        self._owd_anomaly = EwmaZScore(
            obs, "receiver.owd_anomaly", min_delta=50.0,
        )
        #: Next sim time at which the OWD anomaly detector samples.
        #: OWD inflation episodes last hundreds of milliseconds, so a
        #: 50 ms stride loses no detection power while cutting the
        #: per-packet traced cost to one float compare.
        self._owd_sample_at = 0.0
        self.assembler = FrameAssembler()
        self.jitter_buffer = JitterBuffer(
            loop,
            self._on_packet_released,
            latency=jitter_buffer_latency,
            drop_on_latency=drop_on_latency,
            obs=obs,
        )
        #: The per-packet transport log, appended to column by column
        #: through the five bound ``list.append`` methods below.
        self.packet_log = PacketLog()
        (
            self._log_sequence,
            self._log_sent_at,
            self._log_received_at,
            self._log_size,
            self._log_frame,
        ) = self.packet_log.appenders()
        self._twcc: TwccRecorder | None = None
        self._ccfb: CcfbRecorder | None = None
        if controller.feedback_kind is FeedbackKind.TWCC:
            self._twcc = TwccRecorder()
        elif controller.feedback_kind is FeedbackKind.CCFB:
            self._ccfb = CcfbRecorder(ssrc, ack_window=scream_ack_window)
        self._feedback_timer: PeriodicTimer | None = None
        self.feedback_sent = 0
        self.accountant = RtcpAccountant(ssrc)
        self._rr_timer: PeriodicTimer | None = None
        #: Set by the session to route RFC 3550 RRs to the sender.
        self.on_receiver_report = None

    def start(self) -> None:
        """Arm the feedback and RFC 3550 report timers."""
        if self._rr_timer is not None:
            raise RuntimeError("receiver already started")
        if self.downlink is None:
            raise RuntimeError("receiver has no downlink to send feedback on")
        self._rr_timer = PeriodicTimer(
            self._loop, RECEIVER_REPORT_INTERVAL, self._send_receiver_report
        )
        if self.controller.feedback_kind is FeedbackKind.NONE:
            return
        self._feedback_timer = PeriodicTimer(
            self._loop, self.controller.feedback_interval, self._send_feedback
        )

    def stop(self) -> None:
        """Stop generating feedback and reports; drain the pipeline.

        Flushing the jitter buffer cancels its scheduled release
        events, so a stopped receiver leaves the event loop clean.
        With obs on, the streaming detectors close, and the per-packet
        metrics are recorded as folds of :attr:`packet_log` and the
        jitter buffer's release count.
        """
        if self._feedback_timer is not None:
            self._feedback_timer.stop()
        if self._rr_timer is not None:
            self._rr_timer.stop()
        self.jitter_buffer.flush()
        obs = self.obs
        if obs.enabled:
            now = self._loop.now
            self.player.finish(now)
            self._window.finish(now)
            self._owd_anomaly.finish(now)
            log = self.packet_log
            if log:
                obs.count("receiver/packets", len(log))
                obs.count("receiver/bytes", sum(log.column("size_bytes")))
                owd = log.array("received_at") - log.array("sent_at")
                obs.observe_many("receiver/owd_ms", to_ms(owd))
            released = self.jitter_buffer.released_packets
            if released:
                obs.count("jitter/released", released)

    def _send_receiver_report(self) -> None:
        if self.accountant.expected == 0:
            return
        report = ReceiverReport(
            ssrc=self.accountant.ssrc + 1,
            blocks=[self.accountant.build_block(self._loop.now)],
        )
        self.downlink.send(
            Datagram(
                size_bytes=report.wire_size + IP_UDP_OVERHEAD_BYTES,
                payload=report,
            )
        )

    # ------------------------------------------------------------------
    # uplink receive path
    # ------------------------------------------------------------------
    def on_datagram(self, datagram: Datagram) -> None:
        """Entry point wired to the uplink :class:`NetworkPath`."""
        packet = datagram.payload
        # Media packets are nearly every datagram: an exact type test
        # lets them skip both isinstance checks.
        if type(packet) is not RtpPacket:
            if isinstance(packet, SenderReport):
                self.accountant.on_sender_report(packet, self._loop.now)
                return
            if not isinstance(packet, RtpPacket):
                raise TypeError(f"unexpected payload {type(packet)!r}")
        now = self._loop.now
        sequence = packet.sequence
        size = packet.wire_size
        self.accountant.on_packet(sequence, packet.timestamp, now)
        self._log_sequence(sequence)
        self._log_sent_at(datagram.sent_at)
        self._log_received_at(now)
        self._log_size(size)
        self._log_frame(packet.frame_id)
        if self._twcc is not None and packet.transport_seq is not None:
            self._twcc.on_packet(packet.transport_seq, now)
        if self._ccfb is not None:
            self._ccfb.on_packet(sequence, now)
        if self.obs.enabled:
            sampled = now >= self._owd_sample_at
            if sampled or self._windowed:
                owd_ms = to_ms(now - datagram.sent_at)
                if self._windowed:
                    self._window.add(now, (float(size), 1.0), (owd_ms,))
                if sampled:
                    self._owd_anomaly.update(now, owd_ms)
                    self._owd_sample_at = now + OWD_SAMPLE_INTERVAL
        self.jitter_buffer.push(packet, now)

    def _on_packet_released(self, packet: RtpPacket, when: float) -> None:
        for assembled in self.assembler.push(packet, when):
            decoded = self.decoder.decode(assembled, self._loop.now)
            self.player.push(decoded)

    # ------------------------------------------------------------------
    # feedback
    # ------------------------------------------------------------------
    def _send_feedback(self) -> None:
        now = self._loop.now
        payload = None
        if self._twcc is not None:
            payload = self._twcc.build_feedback()
        elif self._ccfb is not None:
            payload = self._ccfb.build_report(now)
        if payload is None:
            return
        self.feedback_sent += 1
        if self.obs.enabled:
            self.obs.count("receiver/feedback_sent")
        self.downlink.send(
            Datagram(
                size_bytes=payload.wire_size + IP_UDP_OVERHEAD_BYTES,
                payload=payload,
            )
        )

    def on_feedback_delivered(self, datagram: Datagram) -> None:
        """Entry point wired to the downlink path (sender side)."""
        payload = datagram.payload
        if isinstance(payload, ReceiverReport):
            if self.on_receiver_report is not None:
                self.on_receiver_report(payload, self._loop.now)
            return
        self.controller.on_feedback(payload, self._loop.now)
