"""Properties of the column-wise RFC 8888 feedback path.

SCReAM's feedback path reads reports as columns and walks only the
packets still in flight. Each property here drives it and a
straightforward reference side by side and requires equal results:

* the controller's in-flight walk against a per-position walk over
  every report position followed by a full stale scan (the form the
  walk replaced): the same window calls with the same arguments, in
  the same order, and the same controller state after every report;
* the one-sided windowed extrema against a two-sided monotonic-deque
  min/max, sample by sample, signed zeros and value types included;
* column reports against per-packet serialization, parsing and
  report building.
"""

from __future__ import annotations

import math
import struct
from collections import deque

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.cc.base import SentPacket
from repro.cc.scream import ScreamController, ScreamWindow
from repro.rtp.ccfb import (
    ATO_UNIT,
    CcfbPacketReport,
    CcfbRecorder,
    CcfbReport,
)
from repro.rtp.packets import SEQ_MOD, seq_distance
from repro.util.running import WindowedExtremum, WindowedMinMax

UNAVAILABLE = "unavailable"


# ----------------------------------------------------------------------
# (a) the in-flight walk
# ----------------------------------------------------------------------
class ReferenceController(ScreamController):
    """``on_feedback`` as a walk over every report position."""

    def on_feedback(self, report, now):
        loss_detected = False
        end_seq = report.end_seq
        for seq, packet_report in report.iter_packets():
            record = self._in_flight.get(seq)
            if record is None:
                continue
            if packet_report.received:
                arrival = report.report_timestamp - (
                    packet_report.arrival_offset or 0.0
                )
                owd = max(0.0, arrival - record.send_time)
                record.acked = True
                del self._in_flight[seq]
                self.window.update_srtt(now - record.send_time)
                self.window.on_packet_acked(record.size_bytes, owd, now)
                self._note_acked(arrival, record.size_bytes)
            else:
                if seq_distance(seq, end_seq) > self.reorder_margin:
                    record.lost = True
                    del self._in_flight[seq]
                    self.window.on_packet_lost(record.size_bytes, now)
                    loss_detected = True
        begin = report.begin_seq
        stale = [seq for seq in self._in_flight if seq_distance(seq, begin) > 0]
        for seq in stale:
            record = self._in_flight.pop(seq)
            record.lost = True
            self.window.on_packet_lost(record.size_bytes, now)
            self.false_loss_candidates += 1
            loss_detected = True
        if loss_detected:
            self.detected_losses += 1
            if (
                self._last_rate_loss is None
                or now - self._last_rate_loss >= self.window.srtt
            ):
                self._last_rate_loss = now
                self.rate.on_loss()
        if now - self._last_rate_adjust >= self.rate_adjust_interval:
            self._last_rate_adjust = now
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

    def _note_acked(self, arrival, size_bytes):
        self._acked.append((arrival, size_bytes))
        self._acked_bytes += size_bytes
        horizon = arrival - self._acked_window
        while self._acked and self._acked[0][0] < horizon:
            _, size = self._acked.popleft()
            self._acked_bytes -= size


class RecordingWindow(ScreamWindow):
    """A SCReAM window that logs every call the controller makes."""

    def __init__(self, **kwargs) -> None:
        super().__init__(**kwargs)
        self.calls: list[tuple] = []

    def update_srtt(self, rtt_sample):
        self.calls.append(("update_srtt", repr(rtt_sample)))
        super().update_srtt(rtt_sample)

    def on_packet_sent(self, size_bytes, now):
        self.calls.append(("sent", size_bytes, repr(now)))
        super().on_packet_sent(size_bytes, now)

    def on_packet_acked(self, size_bytes, one_way_delay, now):
        self.calls.append(("acked", size_bytes, repr(one_way_delay), repr(now)))
        super().on_packet_acked(size_bytes, one_way_delay, now)

    def on_packet_lost(self, size_bytes, now):
        self.calls.append(("lost", size_bytes, repr(now)))
        super().on_packet_lost(size_bytes, now)


def recording(controller: ScreamController) -> ScreamController:
    controller.window = RecordingWindow(
        qdelay_target=controller.window.qdelay_target
    )
    return controller


def controller_state(controller: ScreamController) -> tuple:
    window = controller.window
    return (
        list(controller._in_flight.items()),
        controller.false_loss_candidates,
        controller.detected_losses,
        window.loss_events,
        window.cwnd,
        repr(window.srtt),
        window.bytes_in_flight,
        repr(window.qdelay),
        repr(window.base_delay),
        repr(list(controller._acked)),
        controller._acked_bytes,
        repr(controller._target_bitrate),
        repr(controller.log),
    )


#: One report position: not received, received with its offset
#: unavailable, or received with an offset (0.0 included). Times and
#: most offsets are dyadic, so sums are exact and an arrival often
#: falls exactly on its send time (a one-way delay of 0.0).
statuses = st.one_of(
    st.none(),
    st.just(UNAVAILABLE),
    st.sampled_from([0.0, 2**-10, 2**-8, 2**-6, 2**-4]),
    st.floats(0.0, 0.3, allow_nan=False),
)


def column_report(begin, report_timestamp, positions) -> CcfbReport:
    return CcfbReport(
        ssrc=1,
        begin_seq=begin,
        report_timestamp=report_timestamp,
        received=[status is not None for status in positions],
        offsets=[
            status if isinstance(status, float) else None
            for status in positions
        ],
    )


#: Bursts of sends: sequence step (discards jump the sequence space),
#: a draw that now and then re-sends an earlier sequence number, size
#: and send-time gap.
sends = st.lists(
    st.tuples(
        st.sampled_from([1, 1, 1, 2, 7]),
        st.integers(0, 140),
        st.sampled_from([300, 1200]),
        st.sampled_from([0.0, 2**-10, 2**-8]),
    ),
    max_size=30,
)


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_in_flight_walk_matches_per_position_walk(data):
    start = data.draw(
        st.one_of(st.integers(65_480, 65_535), st.integers(0, SEQ_MOD - 1)),
        label="first sequence",
    )
    margin = data.draw(st.integers(0, 8), label="reorder margin")
    as_numpy = data.draw(st.booleans(), label="numpy.float64 times")
    walk = recording(ScreamController(reorder_margin=margin))
    reference = recording(ReferenceController(reorder_margin=margin))
    sent: list[int] = []
    seq = start
    now = 0.0
    for _ in range(data.draw(st.integers(1, 10), label="reports")):
        for step, resend, size, gap in data.draw(sends, label="sends"):
            if sent and resend < len(sent) and resend % 7 == 0:
                # A sequence number sent again, maybe still in flight.
                seq_now = sent[resend]
            else:
                seq = (seq + step) % SEQ_MOD
                seq_now = seq
            sent.append(seq_now)
            now += gap
            stamp = np.float64(now) if as_numpy else now
            for controller in (walk, reference):
                controller.on_packet_sent(
                    SentPacket(
                        sequence=seq_now,
                        transport_seq=None,
                        size_bytes=size,
                        send_time=stamp,
                    ),
                    stamp,
                )
        # A window ending anywhere around the newest send: in-flight
        # packets fall before it, inside it (within and beyond the
        # reorder margin) and after it.
        end = (seq + data.draw(st.integers(-20, 20), label="end")) % SEQ_MOD
        count = data.draw(st.integers(0, 70), label="count")
        begin = (end - count + 1) % SEQ_MOD
        positions = data.draw(
            st.lists(statuses, min_size=count, max_size=count), label="statuses"
        )
        now += data.draw(st.sampled_from([2**-6, 2**-4, 0.25, 0.3]))
        report_now = np.float64(now) if as_numpy else now
        for controller in (walk, reference):
            controller.on_feedback(
                column_report(begin, report_now, positions), report_now
            )
        assert walk.window.calls == reference.window.calls
        assert controller_state(walk) == controller_state(reference)


def test_stale_boundary_is_half_the_sequence_space():
    """Only entries more than half the space ahead of begin_seq are stale."""
    begin = 65_000
    half = SEQ_MOD // 2
    offsets = (-1, 3, half - 1, half, half + 1, 9)
    walk = recording(ScreamController())
    reference = recording(ReferenceController())
    for controller in (walk, reference):
        for offset in offsets:
            controller.on_packet_sent(
                SentPacket(
                    sequence=(begin + offset) % SEQ_MOD,
                    transport_seq=None,
                    size_bytes=100 + offset % 7,
                    send_time=0.0,
                ),
                0.0,
            )
        controller.on_feedback(
            column_report(begin, 0.1, [0.01] * 4 + [None] * 6), 0.1
        )
    assert walk.window.calls == reference.window.calls
    assert controller_state(walk) == controller_state(reference)
    assert walk.false_loss_candidates == 2  # begin - 1 and begin + half + 1


def test_resent_sequence_moves_to_the_newest_end():
    controller = ScreamController()
    for seq in (5, 6, 7, 5):
        controller.on_packet_sent(
            SentPacket(sequence=seq, transport_seq=None, size_bytes=100, send_time=0.0),
            0.0,
        )
    assert list(controller._in_flight) == [6, 7, 5]


# ----------------------------------------------------------------------
# (b) the one-sided windowed extrema
# ----------------------------------------------------------------------
class ReferenceMinMax:
    """Two monotonic deques and a timestamp deque, updated together."""

    def __init__(self, window: float) -> None:
        self.window = window
        self._mins: deque = deque()
        self._maxs: deque = deque()
        self._times: deque = deque()

    def update(self, now, value) -> None:
        value = float(value)
        self._times.append(now)
        while self._mins and self._mins[-1][1] >= value:
            self._mins.pop()
        self._mins.append((now, value))
        while self._maxs and self._maxs[-1][1] <= value:
            self._maxs.pop()
        self._maxs.append((now, value))
        horizon = now - self.window
        while self._times and self._times[0] < horizon:
            self._times.popleft()
        while self._mins and self._mins[0][0] < horizon:
            self._mins.popleft()
        while self._maxs and self._maxs[0][0] < horizon:
            self._maxs.popleft()

    @property
    def minimum(self):
        return self._mins[0][1] if self._mins else math.nan

    @property
    def maximum(self):
        return self._maxs[0][1] if self._maxs else math.nan


def same(a, b) -> bool:
    """Equal value, type and sign (``repr`` tells -0.0 from 0.0)."""
    return type(a) is type(b) and repr(a) == repr(b)


samples = st.lists(
    st.tuples(
        st.sampled_from([0.0, 0.0, 0.3, 0.5, 1.0, 1.7]),
        st.one_of(
            st.sampled_from([0.0, -0.0, 1.0, 2.0]),
            st.floats(-5.0, 5.0, allow_nan=False),
            st.integers(-3, 3),
        ),
        st.booleans(),
    ),
    min_size=1,
    max_size=60,
)


@settings(max_examples=200, deadline=None)
@given(samples, st.sampled_from([0.5, 1.0, 30.0]))
def test_one_sided_extrema_match_two_sided_deques(raw, window):
    minimum = WindowedExtremum(window)
    maximum = WindowedExtremum(window, maximum=True)
    both = WindowedMinMax(window)
    reference = ReferenceMinMax(window)
    assert math.isnan(minimum.value) and math.isnan(both.maximum)
    now = 0.0
    for step, value, as_numpy in raw:
        now += step
        sample = np.float64(value) if as_numpy else value
        returned = minimum.update(now, sample)
        maximum.update(now, sample)
        both.update(now, sample)
        reference.update(now, sample)
        assert same(returned, reference.minimum)
        assert same(minimum.value, reference.minimum)
        assert same(maximum.value, reference.maximum)
        assert same(both.minimum, reference.minimum)
        assert same(both.maximum, reference.maximum)
        assert len(both) == len(reference._times)


# ----------------------------------------------------------------------
# (c) column reports
# ----------------------------------------------------------------------
_ATO_MAX = 0x1FFD
_ATO_UNAVAILABLE = 0x1FFF


def reference_to_bytes(ssrc, begin_seq, report_timestamp, reports) -> bytes:
    """RFC 8888 serialization, one packet report at a time."""
    blob = struct.pack("!IHH", ssrc, begin_seq, len(reports))
    for report in reports:
        word = 0
        if report.received:
            word |= 0x8000
            word |= (report.ecn & 0b11) << 13
            if report.arrival_offset is None:
                ato = _ATO_UNAVAILABLE
            else:
                ato = min(_ATO_MAX, int(report.arrival_offset / ATO_UNIT))
            word |= ato & 0x1FFF
        blob += struct.pack("!H", word)
    if len(reports) % 2:
        blob += b"\x00\x00"
    blob += struct.pack("!I", int(report_timestamp / ATO_UNIT) & 0xFFFFFFFF)
    return blob


def reference_reports(data: bytes) -> list[CcfbPacketReport]:
    """RFC 8888 parsing into one packet report per sequence number."""
    (count,) = struct.unpack("!H", data[6:8])
    reports = []
    for i in range(count):
        (word,) = struct.unpack("!H", data[8 + 2 * i : 10 + 2 * i])
        if not word & 0x8000:
            reports.append(CcfbPacketReport(received=False))
            continue
        ato = word & 0x1FFF
        reports.append(
            CcfbPacketReport(
                received=True,
                arrival_offset=None if ato == _ATO_UNAVAILABLE else ato * ATO_UNIT,
                ecn=(word >> 13) & 0b11,
            )
        )
    return reports


packet_reports = st.one_of(
    st.builds(CcfbPacketReport, received=st.just(False)),
    st.builds(
        CcfbPacketReport,
        received=st.just(True),
        arrival_offset=st.one_of(
            st.none(), st.just(0.0), st.floats(0.0, 9.0, allow_nan=False)
        ),
        ecn=st.integers(0, 3),
    ),
)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(0, SEQ_MOD - 1),
    st.floats(0.0, 1e5, allow_nan=False),
    st.lists(packet_reports, max_size=80),
)
def test_column_report_round_trip(begin, report_timestamp, reports):
    report = CcfbReport(
        ssrc=7, begin_seq=begin, report_timestamp=report_timestamp, reports=reports
    )
    assert report.reports == reports
    data = report.to_bytes()
    assert data == reference_to_bytes(7, begin, report_timestamp, reports)
    assert report.wire_size == len(data) + 12
    assert report.num_reports == len(reports)
    assert report.end_seq == (begin + len(reports) - 1) % SEQ_MOD
    parsed = CcfbReport.from_bytes(data)
    assert parsed.begin_seq == begin and parsed.num_reports == len(reports)
    assert parsed.reports == reference_reports(data)
    assert parsed.received == [r.received for r in reports]
    assert [seq for seq, _ in parsed.iter_packets()] == [
        (begin + i) % SEQ_MOD for i in range(len(reports))
    ]
    # "Received, offset unavailable" stays apart from "not received".
    for original, decoded in zip(reports, parsed.reports):
        assert decoded.received == original.received
        assert (decoded.arrival_offset is None) == (
            not original.received or original.arrival_offset is None
        )
        assert decoded.ecn == (original.ecn if original.received else 0)


def reference_build(recorder: CcfbRecorder, now) -> list[CcfbPacketReport]:
    """The recorder's window as one packet report per position."""
    begin = (recorder._highest - recorder.ack_window + 1) % SEQ_MOD
    reports = []
    for i in range(recorder.ack_window):
        arrival = recorder._arrivals.get((begin + i) % SEQ_MOD)
        if arrival is None:
            reports.append(CcfbPacketReport(received=False))
        else:
            reports.append(
                CcfbPacketReport(
                    received=True, arrival_offset=max(0.0, now - arrival)
                )
            )
    return reports


@settings(max_examples=150, deadline=None)
@given(
    st.integers(65_400, 65_535),
    st.sampled_from([1, 4, 64]),
    st.lists(
        st.tuples(st.integers(-3, 6), st.sampled_from([0.0, 0.002, 0.05])),
        min_size=1,
        max_size=200,
    ),
    st.booleans(),
)
def test_recorder_columns_match_per_position_build(start, window, steps, as_numpy):
    recorder = CcfbRecorder(ssrc=1, ack_window=window)
    seq = start
    now = 0.0
    for step, gap in steps:
        seq = (seq + step) % SEQ_MOD
        now += gap
        recorder.on_packet(seq, np.float64(now) if as_numpy else now)
        report_now = now + 0.001 * (step % 3)
        report = recorder.build_report(report_now)
        expected = reference_build(recorder, report_now)
        assert report.end_seq == recorder._highest
        assert report.ecn is None
        assert [
            (r.received, repr(r.arrival_offset), r.ecn) for r in report.reports
        ] == [(r.received, repr(r.arrival_offset), r.ecn) for r in expected]


# ----------------------------------------------------------------------
# (e) the recorder's batched eviction
# ----------------------------------------------------------------------
class EvictingToTheTrigger(CcfbRecorder):
    """The recorder as it evicted before: only down to the trigger, so
    after warm-up every packet evicts about one arrival."""

    def _garbage_collect(self) -> None:
        horizon = self._highest
        arrivals = self._arrivals
        order = self._order
        limit = 4 * self.ack_window
        far = 2 * self.ack_window
        evict_at = self._evict_at
        while evict_at < len(order) and len(arrivals) > limit:
            seq = order[evict_at]
            if seq not in arrivals:
                evict_at += 1
            elif far <= (horizon - seq) % SEQ_MOD < SEQ_MOD // 2:
                del arrivals[seq]
                evict_at += 1
            else:
                break
        if evict_at > 10_000:
            del order[:evict_at]
            evict_at = 0
        self._evict_at = evict_at


class CountingRecorder(CcfbRecorder):
    """The recorder, noting the packet count at each eviction pass."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.packets = 0
        self.collections: list[int] = []

    def on_packet(self, sequence, arrival) -> None:
        self.packets += 1
        super().on_packet(sequence, arrival)

    def _garbage_collect(self) -> None:
        self.collections.append(self.packets)
        super()._garbage_collect()


def _jump_limit(window: int) -> int:
    """Largest sequence jump the streams below take at ``window``.

    Jumps are kept small enough that the last ``4 * window + 1``
    arrivals span less than half the sequence space, where "below the
    window" is still unambiguous for both recorders; at a window whose
    trigger exceeds the sequence space nothing is ever evicted.
    """
    if 4 * window >= SEQ_MOD:
        return 1000
    return max(2, (SEQ_MOD // 2 - 3 * window) // (4 * window + 2))


@st.composite
def arrival_streams(draw):
    """An ack window and a stream of (sequence, arrival) pairs.

    Runs of consecutive sequence numbers, each ended by a jump forward
    (RTP-queue discards), a short step back (reordering) or a repeat,
    starting close enough to 65535 to cross the 16-bit wrap.
    """
    window = draw(st.sampled_from([1, 2, 64, 256, 20_000]))
    packets = 40 if window == 20_000 else 8 * window + 40
    seq = draw(st.integers(SEQ_MOD - 2 * packets, SEQ_MOD - 1))
    now = 0.0
    stream = []
    while len(stream) < packets:
        run = draw(st.integers(1, 3 * window + 5))
        spacing = draw(st.sampled_from([0.0, 2**-10, 0.001]))
        step = draw(
            st.one_of(
                st.integers(2, _jump_limit(window)), st.integers(-3, 0)
            )
        )
        for _ in range(run):
            now += spacing
            stream.append((seq, now))
            seq = (seq + 1) % SEQ_MOD
        seq = (seq - 1 + step) % SEQ_MOD
    return window, stream[:packets]


def _columns(report) -> tuple:
    # Both recorders compute each offset by the same expression, so
    # equal values have equal types.
    return report.begin_seq, report.received, report.offsets


@settings(max_examples=40, deadline=None)
@given(arrival_streams(), st.booleans())
def test_batched_eviction_keeps_every_report(stream, as_numpy):
    window, arrivals = stream
    batched = CountingRecorder(ssrc=1, ack_window=window)
    reference = EvictingToTheTrigger(ssrc=1, ack_window=window)
    for seq, arrival in arrivals:
        if as_numpy:
            arrival = np.float64(arrival)
        batched.on_packet(seq, arrival)
        reference.on_packet(seq, arrival)
        now = arrival + 0.002
        assert _columns(batched.build_report(now)) == _columns(
            reference.build_report(now)
        )
    # After warm-up, at most one eviction pass per ack window of packets.
    passes = batched.collections
    assert all(b - a >= window for a, b in zip(passes, passes[1:]))
    if 4 * window < SEQ_MOD:
        assert passes, "the stream never filled the recorder"
