"""Tests for frame packetization and reassembly."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.rtp import FrameAssembler, Packetizer, DEFAULT_MTU_PAYLOAD, SEQ_MOD
from repro.video.frames import EncodedFrame, FrameType


def make_frame(frame_id=0, size=5000, capture_time=0.0, frame_type=FrameType.PREDICTED):
    return EncodedFrame(
        frame_id=frame_id,
        capture_time=capture_time,
        size_bytes=size,
        frame_type=frame_type,
        target_bitrate=8e6,
        complexity=1.0,
    )


class TestPacketizer:
    def test_fragment_count_matches_mtu(self):
        packetizer = Packetizer(ssrc=1)
        packets = packetizer.packetize(make_frame(size=2500), encode_time=0.0)
        assert len(packets) == 3  # 1200 + 1200 + 100

    def test_payload_sizes_sum_to_frame_size(self):
        packetizer = Packetizer(ssrc=1)
        packets = packetizer.packetize(make_frame(size=4321), encode_time=0.0)
        assert sum(p.payload_size for p in packets) == 4321

    def test_marker_only_on_last_packet(self):
        packetizer = Packetizer(ssrc=1)
        packets = packetizer.packetize(make_frame(size=3000), encode_time=0.0)
        assert [p.marker for p in packets] == [False, False, True]

    def test_frame_start_only_on_first(self):
        packetizer = Packetizer(ssrc=1)
        packets = packetizer.packetize(make_frame(size=3000), encode_time=0.0)
        assert [p.frame_start for p in packets] == [True, False, False]

    def test_sequence_numbers_continuous_across_frames(self):
        packetizer = Packetizer(ssrc=1)
        first = packetizer.packetize(make_frame(frame_id=0, size=2500), 0.0)
        second = packetizer.packetize(make_frame(frame_id=1, size=100), 0.033)
        assert second[0].sequence == (first[-1].sequence + 1) % (1 << 16)

    def test_sequence_wraps_at_16_bits(self):
        packetizer = Packetizer(ssrc=1, first_sequence=65_535)
        packets = packetizer.packetize(make_frame(size=2500), 0.0)
        assert [p.sequence for p in packets] == [65_535, 0, 1]

    def test_transport_seq_assigned_when_enabled(self):
        packetizer = Packetizer(ssrc=1, use_transport_seq=True)
        packets = packetizer.packetize(make_frame(size=3000), 0.0)
        assert [p.transport_seq for p in packets] == [0, 1, 2]

    def test_transport_seq_absent_by_default(self):
        packetizer = Packetizer(ssrc=1)
        packets = packetizer.packetize(make_frame(), 0.0)
        assert all(p.transport_seq is None for p in packets)

    def test_metadata_carries_frame_info(self):
        packetizer = Packetizer(ssrc=1)
        frame = make_frame(frame_type=FrameType.IDR)
        packets = packetizer.packetize(frame, 0.0)
        assert packets[0].metadata["frame_type"] is FrameType.IDR
        assert packets[0].metadata["target_bitrate"] == 8e6

    def test_tiny_frame_single_packet(self):
        packetizer = Packetizer(ssrc=1)
        packets = packetizer.packetize(make_frame(size=10), 0.0)
        assert len(packets) == 1
        assert packets[0].marker and packets[0].frame_start

    def test_invalid_mtu_rejected(self):
        with pytest.raises(ValueError):
            Packetizer(ssrc=1, mtu_payload=0)


class TestFrameAssembler:
    def _packets(self, frame_id=0, size=3000, packetizer=None):
        packetizer = packetizer or Packetizer(ssrc=1)
        return packetizer.packetize(make_frame(frame_id=frame_id, size=size), 0.0)

    def test_complete_frame_assembled_on_marker(self):
        assembler = FrameAssembler()
        packets = self._packets()
        finished = []
        for i, packet in enumerate(packets):
            finished.extend(assembler.push(packet, arrival=0.001 * i))
        assert len(finished) == 1
        frame = finished[0]
        assert frame.complete
        assert frame.received_packets == frame.expected_packets == 3
        assert frame.received_bytes == 3000

    def test_missing_middle_packet_detected(self):
        assembler = FrameAssembler()
        packets = self._packets()
        finished = []
        finished.extend(assembler.push(packets[0], 0.0))
        # packets[1] lost
        finished.extend(assembler.push(packets[2], 0.002))
        assert len(finished) == 1
        frame = finished[0]
        assert not frame.complete
        assert frame.expected_packets == 3
        assert frame.received_packets == 2
        assert frame.loss_fraction == pytest.approx(1 / 3)

    def test_lost_marker_flushed_by_later_frame(self):
        packetizer = Packetizer(ssrc=1)
        first = self._packets(frame_id=0, packetizer=packetizer)
        second = self._packets(frame_id=1, packetizer=packetizer)
        third = self._packets(frame_id=2, packetizer=packetizer)
        assembler = FrameAssembler()
        finished = []
        finished.extend(assembler.push(first[0], 0.0))  # marker of frame 0 lost
        finished.extend(assembler.push(first[1], 0.001))
        for p in second:
            finished.extend(assembler.push(p, 0.01))
        for p in third:
            finished.extend(assembler.push(p, 0.02))
        ids = [f.frame_id for f in finished]
        assert 0 in ids and 1 in ids
        frame0 = next(f for f in finished if f.frame_id == 0)
        assert not frame0.complete

    def test_frames_emitted_in_order(self):
        packetizer = Packetizer(ssrc=1)
        assembler = FrameAssembler()
        finished = []
        for frame_id in range(5):
            for packet in self._packets(frame_id=frame_id, packetizer=packetizer):
                finished.extend(assembler.push(packet, 0.001 * frame_id))
        assert [f.frame_id for f in finished] == sorted(f.frame_id for f in finished)

    def test_duplicate_suppression_after_finalize(self):
        packetizer = Packetizer(ssrc=1)
        assembler = FrameAssembler()
        packets = self._packets(packetizer=packetizer)
        for packet in packets:
            assembler.push(packet, 0.0)
        # Straggler fragment of the already-finalized frame.
        result = assembler.push(packets[0], 0.1)
        assert result == []
        assert assembler.stray_packets == 1

    @given(
        sizes=st.lists(st.integers(100, 5000), min_size=1, max_size=15),
        drop_index=st.integers(0, 10_000),
    )
    @settings(max_examples=40)
    def test_property_total_bytes_preserved_without_loss(self, sizes, drop_index):
        packetizer = Packetizer(ssrc=1)
        assembler = FrameAssembler()
        finished = []
        t = 0.0
        for frame_id, size in enumerate(sizes):
            frame = make_frame(frame_id=frame_id, size=size)
            for packet in packetizer.packetize(frame, t):
                finished.extend(assembler.push(packet, t))
                t += 1e-4
        received = {f.frame_id: f for f in finished}
        # All but possibly the last frame must be finalized and complete.
        for frame_id, size in enumerate(sizes[:-1]):
            assert received[frame_id].complete
            assert received[frame_id].received_bytes == size


class ReferenceAssembler(FrameAssembler):
    """``FrameAssembler`` whose ``push`` runs the full stale scan on
    every packet: the form the pending-fragment early return must
    match exactly."""

    def push(self, packet, arrival):
        if packet.frame_id <= self._last_finalized:
            self.stray_packets += 1
            return []
        self._pending.setdefault(packet.frame_id, []).append((packet, arrival))
        finished = []
        if packet.marker:
            finished.append(self._finalize(packet.frame_id))
        newest = max(self._pending, default=packet.frame_id)
        for frame_id in sorted(self._pending):
            if frame_id < newest - 1:
                finished.append(self._finalize(frame_id))
        return sorted(finished, key=lambda f: f.frame_id)


@st.composite
def received_streams(draw):
    """A packetized frame sequence as a lossy, reordering path delivers it.

    Sequence numbers start close below the 16-bit wrap. Any fragment
    may be lost (start and marker fragments included); each survivor
    is delayed by a few positions (reordering within and across
    frames) or by many (a late straggler), and some are delivered
    twice, the copy arriving late.
    """
    packetizer = Packetizer(
        ssrc=1,
        mtu_payload=100,
        first_sequence=draw(st.integers(SEQ_MOD - 60, SEQ_MOD - 1)),
    )
    sizes = draw(st.lists(st.integers(1, 450), min_size=1, max_size=14))
    packets = []
    for frame_id, size in enumerate(sizes):
        frame = make_frame(frame_id=frame_id, size=size, capture_time=frame_id / 30)
        packets.extend(packetizer.packetize(frame, frame_id / 30))
    count = len(packets)
    lost = draw(st.sets(st.integers(0, count - 1), max_size=count))
    delay = st.one_of(st.just(0), st.integers(0, 4), st.integers(10, 40))
    delays = draw(st.lists(delay, min_size=count, max_size=count))
    copies = draw(
        st.lists(
            st.tuples(st.integers(0, count - 1), st.integers(1, 40)), max_size=4
        )
    )
    keyed = [
        (index + delays[index], index, packet)
        for index, packet in enumerate(packets)
        if index not in lost
    ]
    keyed += [
        (index + late, count + n, packets[index])
        for n, (index, late) in enumerate(copies)
    ]
    keyed.sort(key=lambda item: item[:2])
    return [packet for _, _, packet in keyed]


class TestFrameAssemblerMatchesReference:
    @given(stream=received_streams())
    @settings(max_examples=300, deadline=None)
    def test_every_push_matches_the_full_scan(self, stream):
        assembler = FrameAssembler()
        reference = ReferenceAssembler()
        for position, packet in enumerate(stream):
            arrival = position * 1e-3
            assert assembler.push(packet, arrival) == reference.push(packet, arrival)
            assert assembler.stray_packets == reference.stray_packets
            assert assembler.pending_frames() == reference.pending_frames()
            # The invariant the early return rests on: no pending frame
            # is older than the newest pending frame minus one.
            pending = reference._pending
            if pending:
                assert min(pending) >= max(pending) - 1
