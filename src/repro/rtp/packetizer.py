"""Fragmentation of encoded video frames into RTP packets and back.

The sender splits each encoded frame into MTU-sized RTP packets (the
H.264 FU-A pattern: a start flag on the first fragment, the RTP marker
bit on the last). The receiver-side :class:`FrameAssembler` regroups
packets into frames, detecting missing fragments through sequence-
number gaps — the signal the decoder model uses to place visual
artifacts.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.rtp.packets import (
    RtpPacket,
    SEQ_MOD,
    seq_distance,
    timestamp_for,
)
from repro.video.frames import EncodedFrame

#: Default RTP payload budget per packet; 1200 bytes keeps the full
#: datagram below typical path MTUs, matching libwebrtc's default.
DEFAULT_MTU_PAYLOAD = 1200


class Packetizer:
    """Splits encoded frames into RTP packets with rolling sequence numbers."""

    def __init__(
        self,
        ssrc: int,
        *,
        mtu_payload: int = DEFAULT_MTU_PAYLOAD,
        first_sequence: int = 0,
        use_transport_seq: bool = False,
    ) -> None:
        if mtu_payload <= 0:
            raise ValueError(f"mtu_payload must be positive, got {mtu_payload}")
        self.ssrc = ssrc
        self.mtu_payload = mtu_payload
        self.use_transport_seq = use_transport_seq
        self._sequence = first_sequence % SEQ_MOD
        self._transport_seq = 0

    @property
    def next_sequence(self) -> int:
        """Sequence number the next produced packet will carry."""
        return self._sequence

    def packetize(self, frame: EncodedFrame, encode_time: float) -> list[RtpPacket]:
        """Fragment ``frame`` into RTP packets.

        ``encode_time`` is stamped into every fragment; it corresponds
        to the timestamp barcode the paper embeds into each frame.
        """
        remaining = frame.size_bytes
        num_packets = max(1, -(-remaining // self.mtu_payload))
        packets: list[RtpPacket] = []
        timestamp = timestamp_for(frame.capture_time)
        # Frame-level info a real decoder would read from the bitstream
        # (NAL type, QP); shared dict so fragments stay lightweight.
        frame_meta = {
            "frame_type": frame.frame_type,
            "target_bitrate": frame.target_bitrate,
            "complexity": frame.complexity,
            "frame_bytes": frame.size_bytes,
        }
        for index in range(num_packets):
            chunk = min(self.mtu_payload, remaining)
            remaining -= chunk
            transport_seq = None
            if self.use_transport_seq:
                transport_seq = self._transport_seq
                self._transport_seq = (transport_seq + 1) % SEQ_MOD
            packet = RtpPacket(
                ssrc=self.ssrc,
                sequence=self._sequence,
                timestamp=timestamp,
                payload_size=chunk,
                marker=index == num_packets - 1,
                transport_seq=transport_seq,
                frame_id=frame.frame_id,
                frame_start=index == 0,
                encode_time=encode_time,
                metadata=frame_meta,
            )
            self._sequence = (self._sequence + 1) % SEQ_MOD
            packets.append(packet)
        return packets


@dataclass(slots=True)
class AssembledFrame:
    """Result of reassembling one video frame at the receiver.

    Attributes
    ----------
    frame_id:
        Identity of the source frame.
    encode_time:
        Encoder timestamp carried in the fragments.
    first_arrival / last_arrival:
        Arrival times of the first and last received fragment.
    received_packets / expected_packets:
        Fragment accounting; ``received < expected`` marks a damaged
        frame (decoder artifacts).
    received_bytes:
        Payload bytes that actually arrived.
    """

    frame_id: int
    encode_time: float
    first_arrival: float
    last_arrival: float
    received_packets: int
    expected_packets: int
    received_bytes: int
    packets: list[RtpPacket] = field(default_factory=list)

    @property
    def complete(self) -> bool:
        """Whether every fragment of the frame arrived."""
        return self.received_packets >= self.expected_packets

    @property
    def loss_fraction(self) -> float:
        """Fraction of the frame's fragments that were lost."""
        if self.expected_packets == 0:
            return 0.0
        return 1.0 - self.received_packets / self.expected_packets


class FrameAssembler:
    """Groups RTP packets back into frames.

    Packets are grouped by ``frame_id`` (equivalently, RTP timestamp).
    A frame's expected fragment count is known once the marker packet
    arrives: it is the distance from the frame-start sequence number
    to the marker sequence number. When the marker itself is lost, the
    arrival of a later frame's start packet flushes the damaged frame.
    """

    def __init__(self) -> None:
        self._pending: dict[int, list[tuple[RtpPacket, float]]] = {}
        self._last_finalized = -1
        self.stray_packets = 0

    def push(self, packet: RtpPacket, arrival: float) -> list[AssembledFrame]:
        """Add a received packet; return any frames that became final.

        A frame is final when its marker packet arrived, or when it is
        older than a newer frame that has started arriving (fragments
        are then known to be missing). Fragments of frames that were
        already finalized (late stragglers) are discarded so a frame
        is never emitted twice.
        """
        frame_id = packet.frame_id
        if frame_id <= self._last_finalized:
            self.stray_packets += 1
            return []
        entries = self._pending.get(frame_id)
        if entries is None:
            self._pending[frame_id] = [(packet, arrival)]
        else:
            entries.append((packet, arrival))
            if not packet.marker:
                # After every push no pending frame is older than the
                # newest minus one. A non-marker fragment of a pending
                # frame changes neither the pending set nor the newest
                # frame, so the stale scan below would finalize nothing.
                return []
        finished: list[AssembledFrame] = []
        if packet.marker:
            finished.append(self._finalize(frame_id))
        # Flush stale frames two generations older than the newest one;
        # their remaining fragments can no longer arrive in order.
        newest = max(self._pending, default=frame_id)
        for pending_id in sorted(self._pending):
            if pending_id < newest - 1:
                finished.append(self._finalize(pending_id))
        return sorted(finished, key=lambda f: f.frame_id)

    def _finalize(self, frame_id: int) -> AssembledFrame:
        self._last_finalized = max(self._last_finalized, frame_id)
        entries = self._pending.pop(frame_id)
        entries.sort(key=lambda item: item[0].sequence)
        packets = [packet for packet, _ in entries]
        arrivals = [arrival for _, arrival in entries]
        expected = self._expected_count(packets)
        return AssembledFrame(
            frame_id=frame_id,
            encode_time=packets[0].encode_time,
            first_arrival=min(arrivals),
            last_arrival=max(arrivals),
            received_packets=len(packets),
            expected_packets=expected,
            received_bytes=sum(packet.payload_size for packet in packets),
            packets=packets,
        )

    def _expected_count(self, packets: list[RtpPacket]) -> int:
        has_start = packets[0].frame_start
        has_marker = packets[-1].marker
        if has_start and has_marker:
            return seq_distance(packets[0].sequence, packets[-1].sequence) + 1
        # Lower bound when an edge fragment is missing: the span we saw
        # plus at least one lost edge packet.
        span = seq_distance(packets[0].sequence, packets[-1].sequence) + 1
        missing_edges = (0 if has_start else 1) + (0 if has_marker else 1)
        return span + missing_edges

    def pending_frames(self) -> int:
        """Number of frames with fragments still waiting for a marker."""
        return len(self._pending)
