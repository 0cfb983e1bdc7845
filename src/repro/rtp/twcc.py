"""Transport-wide congestion control feedback.

Implements the RTCP feedback message from
draft-holmer-rmcat-transport-wide-cc-extensions-01 — the extension the
paper's GCC implementation relies on. The receiver records the arrival
time of every packet (keyed by the transport-wide sequence number from
the RTP header extension) and periodically ships a feedback message
listing, for a contiguous range of sequence numbers, whether each
packet arrived and at what time (250 us resolution). The GCC sender
reconstructs (send time, arrival time) pairs from it.

Serialization follows the draft's layout using two-bit status-vector
chunks, small (8-bit) and large (16-bit) receive deltas.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

from repro.rtp.packets import SEQ_MOD, seq_distance

#: Resolution of receive deltas (250 microseconds).
DELTA_UNIT = 0.00025
#: Resolution of the reference time field (64 milliseconds).
REFERENCE_UNIT = 0.064

_SEQ_HALF = SEQ_MOD // 2

_STATUS_NOT_RECEIVED = 0
_STATUS_SMALL_DELTA = 1
_STATUS_LARGE_DELTA = 2


@dataclass(slots=True)
class TwccFeedback:
    """A transport-wide feedback message.

    Attributes
    ----------
    base_seq:
        First transport-wide sequence number covered.
    reference_time:
        Absolute receiver time of the delta baseline, quantized to
        64 ms units.
    feedback_count:
        Rolling 8-bit counter for loss-of-feedback detection.
    arrivals:
        For each covered sequence number (``base_seq + i``), the
        arrival time in seconds, or ``None`` when not received.
    """

    base_seq: int
    reference_time: float
    feedback_count: int
    arrivals: list[float | None] = field(default_factory=list)

    @property
    def packet_status_count(self) -> int:
        """Number of sequence numbers covered by this message."""
        return len(self.arrivals)

    def iter_packets(self) -> list[tuple[int, float | None]]:
        """Return ``(transport_seq, arrival_or_None)`` pairs in order."""
        return [
            ((self.base_seq + i) % SEQ_MOD, arrival)
            for i, arrival in enumerate(self.arrivals)
        ]

    def to_bytes(self) -> bytes:
        """Serialize to the draft's wire format."""
        ref_units = int(self.reference_time / REFERENCE_UNIT)
        statuses: list[int] = []
        deltas: list[int] = []
        previous = ref_units * REFERENCE_UNIT
        for arrival in self.arrivals:
            if arrival is None:
                statuses.append(_STATUS_NOT_RECEIVED)
                continue
            delta_units = int(round((arrival - previous) / DELTA_UNIT))
            if 0 <= delta_units <= 0xFF:
                statuses.append(_STATUS_SMALL_DELTA)
            else:
                statuses.append(_STATUS_LARGE_DELTA)
                delta_units = max(-(2**15), min(2**15 - 1, delta_units))
            deltas.append(delta_units)
            previous += delta_units * DELTA_UNIT
        header = struct.pack(
            "!HH", self.base_seq, len(self.arrivals)
        ) + struct.pack(
            "!I", ((ref_units & 0xFFFFFF) << 8) | (self.feedback_count & 0xFF)
        )
        chunks = b""
        for start in range(0, len(statuses), 7):
            window = statuses[start : start + 7]
            chunk = 0xC000  # status-vector chunk, two-bit symbols
            for i, status in enumerate(window):
                chunk |= status << (12 - 2 * i)
            chunks += struct.pack("!H", chunk)
        delta_bytes = b""
        status_iter = iter(statuses)
        delta_iter = iter(deltas)
        for status in status_iter:
            if status == _STATUS_SMALL_DELTA:
                delta_bytes += struct.pack("!B", next(delta_iter))
            elif status == _STATUS_LARGE_DELTA:
                delta_bytes += struct.pack("!h", next(delta_iter))
        return header + chunks + delta_bytes

    @classmethod
    def from_bytes(cls, data: bytes) -> "TwccFeedback":
        """Parse a message serialized by :meth:`to_bytes`."""
        if len(data) < 8:
            raise ValueError("TWCC feedback too short")
        base_seq, status_count = struct.unpack("!HH", data[:4])
        (packed,) = struct.unpack("!I", data[4:8])
        ref_units = packed >> 8
        if ref_units & 0x800000:  # sign-extend 24-bit value
            ref_units -= 1 << 24
        feedback_count = packed & 0xFF
        offset = 8
        statuses: list[int] = []
        while len(statuses) < status_count:
            (chunk,) = struct.unpack("!H", data[offset : offset + 2])
            offset += 2
            if chunk >> 14 != 0b11:
                raise ValueError("only two-bit status-vector chunks are supported")
            for i in range(7):
                if len(statuses) >= status_count:
                    break
                statuses.append((chunk >> (12 - 2 * i)) & 0b11)
        arrivals: list[float | None] = []
        previous = ref_units * REFERENCE_UNIT
        for status in statuses:
            if status == _STATUS_NOT_RECEIVED:
                arrivals.append(None)
                continue
            if status == _STATUS_SMALL_DELTA:
                (delta_units,) = struct.unpack("!B", data[offset : offset + 1])
                offset += 1
            else:
                (delta_units,) = struct.unpack("!h", data[offset : offset + 2])
                offset += 2
            previous += delta_units * DELTA_UNIT
            arrivals.append(previous)
        return cls(
            base_seq=base_seq,
            reference_time=ref_units * REFERENCE_UNIT,
            feedback_count=feedback_count,
            arrivals=arrivals,
        )

    @property
    def wire_size(self) -> int:
        """Size of the serialized message plus RTCP/IP/UDP framing.

        Upper-bound arithmetic estimate (status chunks + small deltas
        for every received packet) — avoids serializing on the
        simulator hot path.
        """
        chunks = 2 * ((len(self.arrivals) + 6) // 7)
        deltas = sum(1 for a in self.arrivals if a is not None)
        return 8 + chunks + deltas + 16


class TwccRecorder:
    """Receiver-side bookkeeping that produces TWCC feedback messages."""

    def __init__(self) -> None:
        self._arrivals: dict[int, float] = {}
        self._next_base: int | None = None
        self._highest: int | None = None
        self._feedback_count = 0

    def on_packet(self, transport_seq: int, arrival: float) -> None:
        """Record the arrival of transport-wide sequence ``transport_seq``.

        An arrival behind the next feedback's base was covered by an
        earlier feedback (or precedes the first packet) and can never
        be reported, so it is dropped instead of kept forever.
        """
        next_base = self._next_base
        if next_base is None:
            self._next_base = transport_seq
        elif (transport_seq - next_base) % SEQ_MOD >= _SEQ_HALF:
            return  # seq_distance(next_base, transport_seq) < 0, inline
        self._arrivals[transport_seq] = arrival
        if self._highest is None or seq_less_than_or_equal(
            self._highest, transport_seq
        ):
            self._highest = transport_seq

    def build_feedback(self) -> TwccFeedback | None:
        """Build feedback covering everything since the previous one.

        Returns ``None`` when no new packets arrived.
        """
        if self._next_base is None or self._highest is None:
            return None
        count = seq_distance(self._next_base, self._highest) + 1
        if count <= 0:
            return None
        base = self._next_base
        arrivals: list[float | None] = []
        reference: float | None = None
        for i in range(count):
            seq = (base + i) % SEQ_MOD
            arrival = self._arrivals.pop(seq, None)
            arrivals.append(arrival)
            if reference is None and arrival is not None:
                reference = arrival
        self._next_base = (self._highest + 1) % SEQ_MOD
        feedback = TwccFeedback(
            base_seq=base,
            reference_time=reference or 0.0,
            feedback_count=self._feedback_count & 0xFF,
            arrivals=arrivals,
        )
        self._feedback_count += 1
        return feedback


def seq_less_than_or_equal(a: int, b: int) -> bool:
    """``True`` when ``a`` precedes or equals ``b`` modulo 2**16."""
    return seq_distance(a, b) >= 0
