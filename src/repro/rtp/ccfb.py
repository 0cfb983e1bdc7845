"""RFC 8888 congestion control feedback (CCFB) for SCReAM.

The Ericsson SCReAM library the paper used generates an RTCP report
every 10 ms that covers the RTP packet with the highest received
sequence number and, by default, the 63 preceding packets. Section
4.2.1 of the paper shows this window is too small above ~7 Mbps (and
after SCReAM's RTP-queue discards, which jump the sequence space):
packets that fall out of the window without being reported remain
unacknowledged and are eventually — wrongly — declared lost, making
SCReAM reduce its bitrate needlessly. The authors widened the window
from 64 to 256 to lower the probability of such events.

This module reproduces the mechanism exactly: :class:`CcfbRecorder`
takes an ``ack_window`` parameter (64 by default, 256 for the paper's
mitigation) and reports only sequence numbers inside
``[highest - ack_window + 1, highest]``. The ablation bench
``benchmarks/test_ablation_ackwindow.py`` measures the false-loss rate
under both settings.

Wire format follows RFC 8888: per-packet 16-bit metric blocks with an
R (received) bit, 2-bit ECN and a 13-bit arrival-time offset in
units of 1/1024 s.

A report stores its per-sequence statuses as columns (received flags,
arrival offsets, and ECN only where a report carries a non-zero bit), not
as one object per sequence number: a packet is re-reported in several
consecutive reports, and the SCReAM controller reads only the
positions it still has in flight. :attr:`CcfbReport.reports` builds
the per-packet :class:`CcfbPacketReport` view on demand (DESIGN §14).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from repro.rtp.packets import SEQ_MOD

#: Arrival-time-offset resolution (RFC 8888: 1/1024 second).
ATO_UNIT = 1.0 / 1024.0
_ATO_MAX = 0x1FFD  # values above are saturated per the RFC
_ATO_UNAVAILABLE = 0x1FFF
_SEQ_HALF = SEQ_MOD // 2


@dataclass(slots=True)
class CcfbPacketReport:
    """Status of one RTP sequence number inside a CCFB report."""

    received: bool
    arrival_offset: float | None = None  # seconds before the report timestamp
    ecn: int = 0


@dataclass(slots=True, init=False)
class CcfbReport:
    """An RFC 8888 report block for a single SSRC.

    Attributes
    ----------
    ssrc:
        Media source being reported on.
    begin_seq:
        First sequence number covered.
    report_timestamp:
        Receiver clock at report generation (the RFC's RTS field).
    received:
        Per covered sequence number (``begin_seq + i``), whether it
        arrived.
    offsets:
        Per covered sequence number, the arrival offset in seconds
        before ``report_timestamp``; ``None`` where it did not arrive
        or arrived with its offset unavailable (wire value 0x1FFF).
    ecn:
        Per covered sequence number, the ECN bits, or ``None`` when
        every one is 0 (every report the recorder builds).

    A report is built from the columns or from a list of
    :class:`CcfbPacketReport` (``reports=``).
    """

    ssrc: int
    begin_seq: int
    report_timestamp: float
    received: list[bool]
    offsets: list[float | None]
    ecn: list[int] | None

    def __init__(
        self,
        ssrc: int,
        begin_seq: int,
        report_timestamp: float,
        reports: list[CcfbPacketReport] | None = None,
        *,
        received: list[bool] | None = None,
        offsets: list[float | None] | None = None,
        ecn: list[int] | None = None,
    ) -> None:
        self.ssrc = ssrc
        self.begin_seq = begin_seq
        self.report_timestamp = report_timestamp
        if reports is not None:
            if received is not None or offsets is not None or ecn is not None:
                raise ValueError("pass either reports or columns, not both")
            received = [report.received for report in reports]
            offsets = [report.arrival_offset for report in reports]
            ecn = [report.ecn for report in reports]
        if received is None:
            received = []
        if offsets is None:
            offsets = [None] * len(received)
        if len(offsets) != len(received) or (
            ecn is not None and len(ecn) != len(received)
        ):
            raise ValueError("report columns differ in length")
        if ecn is not None and not any(ecn):
            ecn = None
        self.received = received
        self.offsets = offsets
        self.ecn = ecn

    @property
    def reports(self) -> list[CcfbPacketReport]:
        """One :class:`CcfbPacketReport` per covered sequence number."""
        ecn = self.ecn or [0] * len(self.received)
        return [
            CcfbPacketReport(received=received, arrival_offset=offset, ecn=bits)
            for received, offset, bits in zip(self.received, self.offsets, ecn)
        ]

    @property
    def num_reports(self) -> int:
        """Number of sequence numbers covered."""
        return len(self.received)

    @property
    def end_seq(self) -> int:
        """Last covered sequence number (inclusive)."""
        return (self.begin_seq + len(self.received) - 1) % SEQ_MOD

    def iter_packets(self) -> list[tuple[int, CcfbPacketReport]]:
        """Return ``(sequence, report)`` pairs in order."""
        return [
            ((self.begin_seq + i) % SEQ_MOD, report)
            for i, report in enumerate(self.reports)
        ]

    def to_bytes(self) -> bytes:
        """Serialize the report block (RFC 8888 Section 3.1)."""
        count = len(self.received)
        ecn = self.ecn or [0] * count
        words = []
        for received, offset, bits in zip(self.received, self.offsets, ecn):
            word = 0
            if received:
                word |= 0x8000
                word |= (bits & 0b11) << 13
                if offset is None:
                    ato = _ATO_UNAVAILABLE
                else:
                    ato = min(_ATO_MAX, int(offset / ATO_UNIT))
                word |= ato & 0x1FFF
            words.append(word)
        if count % 2:
            words.append(0)  # pad to 32-bit boundary
        return (
            struct.pack("!IHH", self.ssrc, self.begin_seq, count)
            + struct.pack(f"!{len(words)}H", *words)
            # trailing report timestamp (32 bits, 1/1024 s units)
            + struct.pack(
                "!I", int(self.report_timestamp / ATO_UNIT) & 0xFFFFFFFF
            )
        )

    @classmethod
    def from_bytes(cls, data: bytes) -> "CcfbReport":
        """Parse a block serialized by :meth:`to_bytes`."""
        if len(data) < 12:
            raise ValueError("CCFB report too short")
        ssrc, begin_seq, num_reports = struct.unpack("!IHH", data[:8])
        (raw_rts,) = struct.unpack("!I", data[-4:])
        words = struct.unpack(f"!{num_reports}H", data[8 : 8 + 2 * num_reports])
        received: list[bool] = []
        offsets: list[float | None] = []
        ecn: list[int] = []
        for word in words:
            if not word & 0x8000:
                received.append(False)
                offsets.append(None)
                ecn.append(0)
                continue
            ato = word & 0x1FFF
            received.append(True)
            offsets.append(None if ato == _ATO_UNAVAILABLE else ato * ATO_UNIT)
            ecn.append((word >> 13) & 0b11)
        return cls(
            ssrc=ssrc,
            begin_seq=begin_seq,
            report_timestamp=raw_rts * ATO_UNIT,
            received=received,
            offsets=offsets,
            ecn=ecn,
        )

    @property
    def wire_size(self) -> int:
        """Serialized size plus RTCP/IP/UDP framing bytes.

        Computed arithmetically (8-byte block header, 2 bytes per
        metric block padded to 32 bits, 4-byte report timestamp,
        12 bytes RTCP framing) — identical to ``len(to_bytes()) + 12``
        but without serializing on the simulator hot path.
        """
        count = len(self.received)
        blocks = 2 * count
        if count % 2:
            blocks += 2
        return 8 + blocks + 4 + 12


class CcfbRecorder:
    """Receiver-side CCFB generation with a bounded ack window.

    Parameters
    ----------
    ssrc:
        Media SSRC to report on.
    ack_window:
        Number of sequence numbers covered per report, ending at the
        highest received one (Ericsson default 64; paper raises it to
        256). Packets that slide below the window without having been
        reported are never acknowledged — the false-loss mechanism of
        Section 4.2.1. At most half the 16-bit sequence space, beyond
        which "below the window" and "inside it" are ambiguous.
    """

    def __init__(self, ssrc: int, *, ack_window: int = 64) -> None:
        if not 1 <= ack_window <= _SEQ_HALF:
            raise ValueError(
                f"ack_window must be in [1, {_SEQ_HALF}], got {ack_window}"
            )
        self.ssrc = ssrc
        self.ack_window = ack_window
        self._arrivals: dict[int, float] = {}
        self._order: list[int] = []  # insertion order for cheap eviction
        self._evict_at = 0
        self._highest: int | None = None

    def on_packet(self, sequence: int, arrival: float) -> None:
        """Record arrival of RTP sequence number ``sequence``."""
        arrivals = self._arrivals
        if sequence not in arrivals:
            self._order.append(sequence)
        arrivals[sequence] = arrival
        highest = self._highest
        # seq_distance(highest, sequence) > 0, inline.
        if highest is None or 0 < (sequence - highest) % SEQ_MOD < _SEQ_HALF:
            self._highest = sequence
        if len(arrivals) > 4 * self.ack_window:
            self._garbage_collect()

    def _garbage_collect(self) -> None:
        # Evict, in insertion order, every arrival at least two windows
        # below the highest, up to the first nearer one. That leaves
        # about two windows of arrivals, so the next call comes about
        # two windows of packets later: O(1) amortized per packet.
        # Reports read only the last window, and every arrival within
        # two windows stays, so no report depends on the batch size.
        horizon = self._highest
        if horizon is None:
            return
        arrivals = self._arrivals
        order = self._order
        far = 2 * self.ack_window
        evict_at = self._evict_at
        while evict_at < len(order):
            seq = order[evict_at]
            if seq not in arrivals:
                evict_at += 1
            elif far <= (horizon - seq) % SEQ_MOD < _SEQ_HALF:
                # seq_distance(seq, horizon) >= far, inline.
                del arrivals[seq]
                evict_at += 1
            else:
                break
        if evict_at > 10_000:
            del order[:evict_at]
            evict_at = 0
        self._evict_at = evict_at

    def build_report(self, now: float) -> CcfbReport | None:
        """Build the periodic report, or ``None`` before any packet.

        One pass over the window's arrivals fills the columns; the
        window is split where the sequence space wraps.
        """
        if self._highest is None:
            return None
        count = self.ack_window
        begin = (self._highest - count + 1) % SEQ_MOD
        end = begin + count
        get = self._arrivals.get
        if end <= SEQ_MOD:
            arrivals = list(map(get, range(begin, end)))
        else:
            arrivals = list(map(get, range(begin, SEQ_MOD)))
            arrivals += map(get, range(end - SEQ_MOD))
        return CcfbReport(
            ssrc=self.ssrc,
            begin_seq=begin,
            report_timestamp=now,
            received=[arrival is not None for arrival in arrivals],
            # max(0.0, now - arrival), as max returns it.
            offsets=[
                None
                if arrival is None
                else (offset if (offset := now - arrival) > 0.0 else 0.0)
                for arrival in arrivals
            ],
        )
