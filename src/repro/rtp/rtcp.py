"""RTCP sender/receiver reports (RFC 3550).

Besides the congestion-control feedback extensions (TWCC, RFC 8888),
a real RTP session exchanges periodic Sender Reports and Receiver
Reports: the SR carries an NTP/RTP timestamp pair plus sent counts,
the RR carries per-source reception statistics (loss fraction,
cumulative loss, highest sequence, jitter, LSR/DLSR for RTT
estimation). The static-bitrate runs in the paper still log receiver
timing information; these reports are the standard mechanism for it,
and the session uses the LSR/DLSR round trip to expose an RTT
estimate without any CC extension.

Wire formats follow RFC 3550 Sections 6.4.1/6.4.2.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

#: Seconds between the NTP epoch (1900) and the Unix epoch (1970).
NTP_EPOCH_OFFSET = 2_208_988_800

RTCP_SR = 200
RTCP_RR = 201


def to_ntp(time_s: float) -> tuple[int, int]:
    """Split a timestamp into 32.32 fixed-point NTP words."""
    seconds = int(time_s) + NTP_EPOCH_OFFSET
    fraction = int((time_s - int(time_s)) * (1 << 32)) & 0xFFFFFFFF
    return seconds & 0xFFFFFFFF, fraction


def from_ntp(seconds: int, fraction: int) -> float:
    """Inverse of :func:`to_ntp` (modulo the 1900 epoch)."""
    return (seconds - NTP_EPOCH_OFFSET) + fraction / (1 << 32)


def middle_ntp(time_s: float) -> int:
    """The 32-bit 'middle' NTP timestamp used in LSR/DLSR fields."""
    seconds, fraction = to_ntp(time_s)
    return ((seconds & 0xFFFF) << 16) | (fraction >> 16)


@dataclass(slots=True)
class ReportBlock:
    """One reception report block (RFC 3550 Section 6.4.1)."""

    ssrc: int
    fraction_lost: float  # in [0, 1]
    cumulative_lost: int
    highest_sequence: int
    jitter: int
    last_sr: int  # middle-32 NTP of the last SR received
    delay_since_last_sr: float  # seconds

    def to_bytes(self) -> bytes:
        """Serialize the 24-byte block."""
        fraction = min(255, max(0, int(round(self.fraction_lost * 256.0))))
        cumulative = min(self.cumulative_lost, 0xFFFFFF)
        dlsr = int(self.delay_since_last_sr * 65536.0) & 0xFFFFFFFF
        return struct.pack(
            "!IBBHIIII" if False else "!I4BIIII",
            self.ssrc,
            fraction,
            (cumulative >> 16) & 0xFF,
            (cumulative >> 8) & 0xFF,
            cumulative & 0xFF,
            self.highest_sequence,
            self.jitter,
            self.last_sr,
            dlsr,
        )

    @classmethod
    def from_bytes(cls, data: bytes) -> "ReportBlock":
        """Parse a 24-byte block."""
        if len(data) < 24:
            raise ValueError("report block too short")
        ssrc, fraction, c2, c1, c0, highest, jitter, last_sr, dlsr = struct.unpack(
            "!I4BIIII", data[:24]
        )
        return cls(
            ssrc=ssrc,
            fraction_lost=fraction / 256.0,
            cumulative_lost=(c2 << 16) | (c1 << 8) | c0,
            highest_sequence=highest,
            jitter=jitter,
            last_sr=last_sr,
            delay_since_last_sr=dlsr / 65536.0,
        )


@dataclass(slots=True)
class SenderReport:
    """RTCP Sender Report (RFC 3550 Section 6.4.1)."""

    ssrc: int
    ntp_time: float
    rtp_timestamp: int
    packet_count: int
    octet_count: int
    blocks: list[ReportBlock] = field(default_factory=list)

    def to_bytes(self) -> bytes:
        """Serialize header + sender info + report blocks."""
        body = b"".join(block.to_bytes() for block in self.blocks)
        length_words = (28 + len(body)) // 4 - 1
        seconds, fraction = to_ntp(self.ntp_time)
        header = struct.pack(
            "!BBH", 0x80 | (len(self.blocks) & 0x1F), RTCP_SR, length_words
        )
        sender_info = struct.pack(
            "!IIIIII",
            self.ssrc,
            seconds,
            fraction,
            self.rtp_timestamp,
            self.packet_count,
            self.octet_count,
        )
        return header + sender_info + body

    @classmethod
    def from_bytes(cls, data: bytes) -> "SenderReport":
        """Parse a serialized sender report."""
        if len(data) < 28:
            raise ValueError("sender report too short")
        first, packet_type, _ = struct.unpack("!BBH", data[:4])
        if packet_type != RTCP_SR:
            raise ValueError(f"not a sender report (PT={packet_type})")
        count = first & 0x1F
        ssrc, seconds, fraction, rtp_ts, packets, octets = struct.unpack(
            "!IIIIII", data[4:28]
        )
        blocks = [
            ReportBlock.from_bytes(data[28 + i * 24 : 28 + (i + 1) * 24])
            for i in range(count)
        ]
        return cls(
            ssrc=ssrc,
            ntp_time=from_ntp(seconds, fraction),
            rtp_timestamp=rtp_ts,
            packet_count=packets,
            octet_count=octets,
            blocks=blocks,
        )

    @property
    def wire_size(self) -> int:
        """Serialized size in bytes."""
        return 28 + 24 * len(self.blocks)


@dataclass(slots=True)
class ReceiverReport:
    """RTCP Receiver Report (RFC 3550 Section 6.4.2)."""

    ssrc: int
    blocks: list[ReportBlock] = field(default_factory=list)

    def to_bytes(self) -> bytes:
        """Serialize header + report blocks."""
        body = b"".join(block.to_bytes() for block in self.blocks)
        length_words = (8 + len(body)) // 4 - 1
        header = struct.pack(
            "!BBH", 0x80 | (len(self.blocks) & 0x1F), RTCP_RR, length_words
        )
        return header + struct.pack("!I", self.ssrc) + body

    @classmethod
    def from_bytes(cls, data: bytes) -> "ReceiverReport":
        """Parse a serialized receiver report."""
        if len(data) < 8:
            raise ValueError("receiver report too short")
        first, packet_type, _ = struct.unpack("!BBH", data[:4])
        if packet_type != RTCP_RR:
            raise ValueError(f"not a receiver report (PT={packet_type})")
        count = first & 0x1F
        (ssrc,) = struct.unpack("!I", data[4:8])
        blocks = [
            ReportBlock.from_bytes(data[8 + i * 24 : 8 + (i + 1) * 24])
            for i in range(count)
        ]
        return cls(ssrc=ssrc, blocks=blocks)

    @property
    def wire_size(self) -> int:
        """Serialized size in bytes."""
        return 8 + 24 * len(self.blocks)


class RtcpAccountant:
    """Receiver-side statistics feeding RR blocks (RFC 3550 A.8).

    Tracks expected vs received packets, interarrival jitter and the
    last-SR bookkeeping needed for RTT computation at the sender.
    """

    def __init__(self, ssrc: int, *, clock_rate: int = 90_000) -> None:
        self.ssrc = ssrc
        self.clock_rate = clock_rate
        self._base_seq: int | None = None
        self._max_seq = 0
        self._cycles = 0
        self._received = 0
        self._expected_prior = 0
        self._received_prior = 0
        self._jitter = 0.0
        self._last_transit: float | None = None
        self._last_sr_middle = 0
        self._last_sr_arrival: float | None = None

    def on_packet(self, sequence: int, rtp_timestamp: int, arrival: float) -> None:
        """Account one received RTP packet."""
        if self._base_seq is None:
            self._base_seq = sequence
            self._max_seq = sequence
        elif sequence < self._max_seq and self._max_seq - sequence > 0x8000:
            self._cycles += 1 << 16
            self._max_seq = sequence
        elif sequence > self._max_seq:
            self._max_seq = sequence
        self._received += 1
        transit = arrival - rtp_timestamp / self.clock_rate
        if self._last_transit is not None:
            delta = abs(transit - self._last_transit)
            self._jitter += (delta - self._jitter) / 16.0
        self._last_transit = transit

    def on_sender_report(self, report: SenderReport, arrival: float) -> None:
        """Record SR receipt for LSR/DLSR bookkeeping."""
        self._last_sr_middle = middle_ntp(report.ntp_time)
        self._last_sr_arrival = arrival

    @property
    def expected(self) -> int:
        """Packets expected so far (highest extended seq - base + 1)."""
        if self._base_seq is None:
            return 0
        return self._cycles + self._max_seq - self._base_seq + 1

    def build_block(self, now: float) -> ReportBlock:
        """Produce a report block for the tracked source."""
        expected = self.expected
        lost = max(0, expected - self._received)
        expected_interval = expected - self._expected_prior
        received_interval = self._received - self._received_prior
        self._expected_prior = expected
        self._received_prior = self._received
        interval_lost = max(0, expected_interval - received_interval)
        fraction = (
            interval_lost / expected_interval if expected_interval > 0 else 0.0
        )
        dlsr = (
            now - self._last_sr_arrival if self._last_sr_arrival is not None else 0.0
        )
        return ReportBlock(
            ssrc=self.ssrc,
            fraction_lost=fraction,
            cumulative_lost=lost,
            highest_sequence=(self._cycles + self._max_seq) & 0xFFFFFFFF,
            jitter=int(self._jitter * self.clock_rate),
            last_sr=self._last_sr_middle,
            delay_since_last_sr=dlsr,
        )


def rtt_from_block(block: ReportBlock, now: float) -> float | None:
    """Sender-side RTT from an RR block's LSR/DLSR (RFC 3550 6.4.1).

    Returns ``None`` when the receiver has not yet seen an SR.
    """
    if block.last_sr == 0:
        return None
    now_middle = middle_ntp(now)
    # Work in 16.16 fixed-point seconds, modulo 2^32.
    delta = (now_middle - block.last_sr) % (1 << 32)
    rtt = delta / 65536.0 - block.delay_since_last_sr
    return max(rtt, 0.0)
