"""RTP packet model with real wire serialization.

The simulator carries :class:`RtpPacket` objects (payload bytes are
synthetic), but header layout, sequence-number wrap-around and the
transport-wide-CC header extension follow RFC 3550 and
draft-holmer-rmcat-transport-wide-cc-extensions-01 so the packet sizes
and parsing logic match a real deployment.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

RTP_VERSION = 2
RTP_HEADER_BYTES = 12
#: One-byte extension: 4 bytes ext header + 4 bytes (id/len + 2-byte
#: transport sequence + 1 padding byte).
TWCC_EXTENSION_BYTES = 8
#: RTP clock rate used for video (RFC 3551).
VIDEO_CLOCK_RATE = 90_000

SEQ_MOD = 1 << 16
TS_MOD = 1 << 32

#: BEDE marker for the one-byte RTP header extension (RFC 8285).
_ONE_BYTE_EXT_PROFILE = 0xBEDE
_TWCC_EXT_ID = 1


def seq_distance(older: int, newer: int) -> int:
    """Signed distance from ``older`` to ``newer`` modulo 2**16.

    Positive when ``newer`` is ahead of ``older`` in wrap-around
    order. The result lies in ``[-32768, 32767]``.
    """
    delta = (newer - older) % SEQ_MOD
    if delta >= SEQ_MOD // 2:
        delta -= SEQ_MOD
    return delta


def seq_less_than(a: int, b: int) -> bool:
    """``True`` when sequence number ``a`` precedes ``b`` (mod 2**16)."""
    return seq_distance(a, b) > 0


def timestamp_for(time_s: float, clock_rate: int = VIDEO_CLOCK_RATE) -> int:
    """Map a time in seconds to an RTP timestamp at ``clock_rate``."""
    return int(round(time_s * clock_rate)) % TS_MOD


@dataclass(slots=True)
class RtpPacket:
    """A single RTP packet.

    Attributes
    ----------
    ssrc, payload_type, sequence, timestamp, marker:
        Standard RTP header fields; ``marker`` is set on the last
        packet of a video frame.
    payload_size:
        Size of the (synthetic) payload in bytes.
    transport_seq:
        Transport-wide sequence number carried in a header extension
        when congestion control requires it (GCC); ``None`` otherwise.
    frame_id:
        Simulation-side frame identity. Real RTP conveys this via the
        timestamp; we keep the explicit id for exact bookkeeping.
    frame_start:
        ``True`` on the first packet of a frame, mirroring the H.264
        FU-A start bit that real depacketizers rely on.
    encode_time:
        Simulated time the carried frame finished encoding (the
        paper's per-frame barcode timestamp).
    wire_size:
        Full RTP packet size (header + payload) in bytes, fixed at
        construction: the media path reads it several times per
        packet. It stays out of ``repr`` and ``==``, and a packet's
        header fields are not reassigned after construction (the
        packetizer passes ``transport_seq`` to the constructor).
    """

    ssrc: int
    sequence: int
    timestamp: int
    payload_size: int
    marker: bool = False
    payload_type: int = 96
    transport_seq: int | None = None
    frame_id: int = -1
    frame_start: bool = False
    encode_time: float = 0.0
    metadata: dict = field(default_factory=dict)
    wire_size: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not 0 <= self.sequence < SEQ_MOD:
            raise ValueError(f"sequence out of range: {self.sequence}")
        if not 0 <= self.timestamp < TS_MOD:
            raise ValueError(f"timestamp out of range: {self.timestamp}")
        if self.payload_size < 0:
            raise ValueError(f"payload_size must be >= 0: {self.payload_size}")
        size = RTP_HEADER_BYTES + self.payload_size
        if self.transport_seq is not None:
            size += TWCC_EXTENSION_BYTES
        self.wire_size = size

    @property
    def header_size(self) -> int:
        """RTP header size including extensions, in bytes."""
        return self.wire_size - self.payload_size

    def to_bytes(self) -> bytes:
        """Serialize to the RFC 3550 wire format (payload zero-filled)."""
        has_ext = self.transport_seq is not None
        first = (RTP_VERSION << 6) | (0x10 if has_ext else 0)
        second = (0x80 if self.marker else 0) | (self.payload_type & 0x7F)
        header = struct.pack(
            "!BBHII", first, second, self.sequence, self.timestamp, self.ssrc
        )
        if has_ext:
            # one-byte extension header: id=1, len=1 (2 bytes of data)
            element = struct.pack(
                "!BHB", (_TWCC_EXT_ID << 4) | 0x01, self.transport_seq, 0
            )
            header += struct.pack("!HH", _ONE_BYTE_EXT_PROFILE, 1) + element
        return header + bytes(self.payload_size)

    @classmethod
    def from_bytes(cls, data: bytes) -> "RtpPacket":
        """Parse an RTP packet serialized by :meth:`to_bytes`."""
        if len(data) < RTP_HEADER_BYTES:
            raise ValueError(f"RTP packet too short: {len(data)} bytes")
        first, second, sequence, timestamp, ssrc = struct.unpack(
            "!BBHII", data[:RTP_HEADER_BYTES]
        )
        if first >> 6 != RTP_VERSION:
            raise ValueError(f"unsupported RTP version {first >> 6}")
        marker = bool(second & 0x80)
        payload_type = second & 0x7F
        offset = RTP_HEADER_BYTES
        transport_seq: int | None = None
        if first & 0x10:
            profile, ext_words = struct.unpack("!HH", data[offset : offset + 4])
            if profile != _ONE_BYTE_EXT_PROFILE:
                raise ValueError(f"unsupported extension profile {profile:#x}")
            ext_data = data[offset + 4 : offset + 4 + ext_words * 4]
            if len(ext_data) < 3 or ext_data[0] >> 4 != _TWCC_EXT_ID:
                raise ValueError("missing transport-wide-cc extension element")
            (transport_seq,) = struct.unpack("!H", ext_data[1:3])
            offset += 4 + ext_words * 4
        return cls(
            ssrc=ssrc,
            sequence=sequence,
            timestamp=timestamp,
            payload_size=len(data) - offset,
            marker=marker,
            payload_type=payload_type,
            transport_seq=transport_seq,
        )
