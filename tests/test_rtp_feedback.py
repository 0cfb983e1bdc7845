"""Tests for TWCC and RFC 8888 feedback formats and recorders."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.rtp.ccfb import CcfbPacketReport, CcfbRecorder, CcfbReport, ATO_UNIT
from repro.rtp.twcc import TwccFeedback, TwccRecorder, DELTA_UNIT


class TestTwccFeedback:
    def make(self, arrivals):
        return TwccFeedback(
            base_seq=100, reference_time=1.0, feedback_count=3, arrivals=arrivals
        )

    def test_iter_packets_maps_sequence_numbers(self):
        feedback = self.make([1.0, None, 1.002])
        packets = feedback.iter_packets()
        assert [seq for seq, _ in packets] == [100, 101, 102]
        assert packets[1][1] is None

    def test_roundtrip_received_and_lost(self):
        feedback = self.make([1.0, None, 1.0025, 1.010])
        parsed = TwccFeedback.from_bytes(feedback.to_bytes())
        assert parsed.base_seq == 100
        assert parsed.packet_status_count == 4
        assert parsed.arrivals[1] is None
        for original, decoded in zip(feedback.arrivals, parsed.arrivals):
            if original is not None:
                assert decoded == pytest.approx(original, abs=2 * DELTA_UNIT)

    def test_roundtrip_large_negative_delta(self):
        # Second packet arrives (slightly) before the reference-time
        # quantized baseline: requires a large (signed 16-bit) delta.
        feedback = self.make([1.05, 1.0, 1.2])
        parsed = TwccFeedback.from_bytes(feedback.to_bytes())
        assert parsed.arrivals[1] == pytest.approx(1.0, abs=0.002)

    def test_wire_size_upper_bounds_serialization(self):
        feedback = self.make([1.0, None, 1.001] * 10)
        assert feedback.wire_size >= len(feedback.to_bytes())

    @given(
        st.lists(
            st.one_of(st.none(), st.floats(0.0, 10.0)),
            min_size=1,
            max_size=100,
        )
    )
    @settings(max_examples=40)
    def test_roundtrip_property(self, raw):
        # Arrival times must be non-decreasing for the delta encoding.
        arrivals = []
        last = 0.0
        for value in raw:
            if value is None:
                arrivals.append(None)
            else:
                last += value / 100.0
                arrivals.append(last)
        feedback = self.make(arrivals)
        parsed = TwccFeedback.from_bytes(feedback.to_bytes())
        assert parsed.packet_status_count == len(arrivals)
        for original, decoded in zip(arrivals, parsed.arrivals):
            assert (original is None) == (decoded is None)


class TestTwccRecorder:
    def test_feedback_covers_contiguous_range(self):
        recorder = TwccRecorder()
        recorder.on_packet(10, 1.0)
        recorder.on_packet(11, 1.001)
        recorder.on_packet(13, 1.003)  # 12 missing
        feedback = recorder.build_feedback()
        assert feedback.base_seq == 10
        assert feedback.packet_status_count == 4
        assert feedback.arrivals[2] is None

    def test_no_feedback_without_packets(self):
        assert TwccRecorder().build_feedback() is None

    def test_consecutive_feedbacks_do_not_overlap(self):
        recorder = TwccRecorder()
        recorder.on_packet(0, 1.0)
        recorder.on_packet(1, 1.001)
        first = recorder.build_feedback()
        assert first.packet_status_count == 2
        recorder.on_packet(2, 1.01)
        second = recorder.build_feedback()
        assert second.base_seq == 2
        assert second.packet_status_count == 1

    def test_late_arrivals_are_not_kept(self):
        """An arrival behind the next feedback's base can never be
        reported again, so the recorder does not keep it."""
        recorder = TwccRecorder()
        for seq in range(10):
            recorder.on_packet(seq, 1.0 + seq * 0.001)
        recorder.build_feedback()
        assert len(recorder._arrivals) == 0
        for seq in (3, 7, 9):
            recorder.on_packet(seq, 1.1)
        assert len(recorder._arrivals) == 0
        recorder.on_packet(10, 1.2)
        feedback = recorder.build_feedback()
        assert feedback.base_seq == 10 and feedback.packet_status_count == 1
        assert len(recorder._arrivals) == 0

    def test_feedback_count_increments(self):
        recorder = TwccRecorder()
        recorder.on_packet(0, 1.0)
        first = recorder.build_feedback()
        recorder.on_packet(1, 2.0)
        second = recorder.build_feedback()
        assert second.feedback_count == first.feedback_count + 1


class TestCcfbReport:
    def test_roundtrip(self):
        report = CcfbReport(
            ssrc=0xABCD,
            begin_seq=500,
            report_timestamp=12.5,
            reports=[
                CcfbPacketReport(received=True, arrival_offset=0.010),
                CcfbPacketReport(received=False),
                CcfbPacketReport(received=True, arrival_offset=0.002),
            ],
        )
        parsed = CcfbReport.from_bytes(report.to_bytes())
        assert parsed.ssrc == 0xABCD
        assert parsed.begin_seq == 500
        assert parsed.num_reports == 3
        assert parsed.reports[0].received
        assert not parsed.reports[1].received
        assert parsed.reports[0].arrival_offset == pytest.approx(
            0.010, abs=2 * ATO_UNIT
        )

    def test_end_seq_wraps(self):
        report = CcfbReport(
            ssrc=1,
            begin_seq=65_534,
            report_timestamp=0.0,
            reports=[CcfbPacketReport(received=True, arrival_offset=0.0)] * 4,
        )
        assert report.end_seq == 1

    def test_wire_size_matches_serialization(self):
        for count in (1, 2, 5, 64):
            report = CcfbReport(
                ssrc=1,
                begin_seq=0,
                report_timestamp=1.0,
                reports=[CcfbPacketReport(received=True, arrival_offset=0.001)]
                * count,
            )
            assert report.wire_size == len(report.to_bytes()) + 12


class TestCcfbRecorder:
    def test_window_ends_at_highest_sequence(self):
        recorder = CcfbRecorder(ssrc=1, ack_window=4)
        for seq in range(10):
            recorder.on_packet(seq, 1.0 + seq * 0.001)
        report = recorder.build_report(now=2.0)
        assert report.begin_seq == 6
        assert report.end_seq == 9
        assert all(r.received for r in report.reports)

    def test_packets_below_window_not_reported(self):
        """The Section 4.2.1 mechanism: a burst larger than the window
        leaves its oldest packets unreported forever."""
        recorder = CcfbRecorder(ssrc=1, ack_window=4)
        for seq in range(8):  # burst of 8 > window of 4
            recorder.on_packet(seq, 1.0)
        report = recorder.build_report(now=1.01)
        covered = {seq for seq, r in report.iter_packets() if r.received}
        assert covered == {4, 5, 6, 7}
        # Sequences 0-3 were delivered but never acknowledged.
        assert all(seq not in covered for seq in range(4))

    def test_gap_marked_not_received(self):
        recorder = CcfbRecorder(ssrc=1, ack_window=4)
        recorder.on_packet(0, 1.0)
        recorder.on_packet(3, 1.003)
        report = recorder.build_report(now=1.01)
        statuses = {seq: r.received for seq, r in report.iter_packets()}
        assert statuses[3] is True
        assert statuses[1] is False and statuses[2] is False

    def test_no_report_before_any_packet(self):
        assert CcfbRecorder(ssrc=1).build_report(now=0.0) is None

    def test_arrival_offsets_relative_to_report_time(self):
        recorder = CcfbRecorder(ssrc=1, ack_window=2)
        recorder.on_packet(0, 1.0)
        recorder.on_packet(1, 1.5)
        report = recorder.build_report(now=2.0)
        offsets = [r.arrival_offset for r in report.reports]
        assert offsets[0] == pytest.approx(1.0)
        assert offsets[1] == pytest.approx(0.5)

    def test_garbage_collection_bounds_memory(self):
        recorder = CcfbRecorder(ssrc=1, ack_window=64)
        for seq in range(50_000):
            recorder.on_packet(seq % (1 << 16), float(seq))
        assert len(recorder._arrivals) <= 4 * 64 + 1

    def test_invalid_ack_window_rejected(self):
        with pytest.raises(ValueError):
            CcfbRecorder(ssrc=1, ack_window=0)
