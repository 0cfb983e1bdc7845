"""Tests for RTP packet model and wire serialization."""

import dataclasses

import pytest
from hypothesis import given, strategies as st

from repro.rtp import (
    Packetizer,
    RtpPacket,
    RTP_HEADER_BYTES,
    TWCC_EXTENSION_BYTES,
    SEQ_MOD,
    seq_distance,
    seq_less_than,
    timestamp_for,
)
from repro.video.frames import EncodedFrame, FrameType


class TestSequenceMath:
    def test_forward_distance(self):
        assert seq_distance(10, 15) == 5

    def test_backward_distance(self):
        assert seq_distance(15, 10) == -5

    def test_wraparound_forward(self):
        assert seq_distance(65_530, 4) == 10

    def test_wraparound_backward(self):
        assert seq_distance(4, 65_530) == -10

    def test_less_than(self):
        assert seq_less_than(10, 11)
        assert not seq_less_than(11, 10)
        assert seq_less_than(65_535, 0)

    @given(st.integers(0, SEQ_MOD - 1), st.integers(0, SEQ_MOD - 1))
    def test_distance_antisymmetric(self, a, b):
        d1, d2 = seq_distance(a, b), seq_distance(b, a)
        if d1 != -(SEQ_MOD // 2):  # the ambiguous midpoint
            assert d1 == -d2

    @given(st.integers(0, SEQ_MOD - 1), st.integers(-1000, 1000))
    def test_distance_recovers_offset(self, base, offset):
        other = (base + offset) % SEQ_MOD
        assert seq_distance(base, other) == offset


class TestTimestampFor:
    def test_90khz_mapping(self):
        assert timestamp_for(1.0) == 90_000

    def test_wraps_modulo_32_bits(self):
        big = timestamp_for(2**32 / 90_000 + 1.0)
        assert 0 <= big < 2**32


class TestRtpPacket:
    def make(self, **kwargs):
        defaults = dict(ssrc=0x1234, sequence=7, timestamp=9000, payload_size=1200)
        defaults.update(kwargs)
        return RtpPacket(**defaults)

    def test_header_size_without_extension(self):
        assert self.make().header_size == RTP_HEADER_BYTES

    def test_header_size_with_twcc(self):
        packet = self.make(transport_seq=55)
        assert packet.header_size == RTP_HEADER_BYTES + TWCC_EXTENSION_BYTES

    def test_wire_size_includes_payload(self):
        assert self.make(payload_size=100).wire_size == RTP_HEADER_BYTES + 100

    def test_rejects_out_of_range_sequence(self):
        with pytest.raises(ValueError):
            self.make(sequence=SEQ_MOD)

    def test_rejects_negative_payload(self):
        with pytest.raises(ValueError):
            self.make(payload_size=-1)

    def test_serialized_length_matches_wire_size(self):
        packet = self.make(transport_seq=99)
        assert len(packet.to_bytes()) == packet.wire_size

    def test_roundtrip_basic(self):
        packet = self.make(marker=True, payload_type=97)
        parsed = RtpPacket.from_bytes(packet.to_bytes())
        assert parsed.ssrc == packet.ssrc
        assert parsed.sequence == packet.sequence
        assert parsed.timestamp == packet.timestamp
        assert parsed.marker is True
        assert parsed.payload_type == 97
        assert parsed.payload_size == packet.payload_size
        assert parsed.transport_seq is None

    def test_roundtrip_with_transport_seq(self):
        packet = self.make(transport_seq=0xBEEF & 0x7FFF)
        parsed = RtpPacket.from_bytes(packet.to_bytes())
        assert parsed.transport_seq == packet.transport_seq

    def test_from_bytes_rejects_short_input(self):
        with pytest.raises(ValueError):
            RtpPacket.from_bytes(b"\x80\x60")

    def test_from_bytes_rejects_wrong_version(self):
        data = bytearray(self.make().to_bytes())
        data[0] = 0x00  # version 0
        with pytest.raises(ValueError):
            RtpPacket.from_bytes(bytes(data))

    @given(
        seq=st.integers(0, SEQ_MOD - 1),
        ts=st.integers(0, 2**32 - 1),
        size=st.integers(0, 1500),
        marker=st.booleans(),
        tseq=st.one_of(st.none(), st.integers(0, SEQ_MOD - 1)),
    )
    def test_roundtrip_property(self, seq, ts, size, marker, tseq):
        packet = RtpPacket(
            ssrc=42,
            sequence=seq,
            timestamp=ts,
            payload_size=size,
            marker=marker,
            transport_seq=tseq,
        )
        parsed = RtpPacket.from_bytes(packet.to_bytes())
        assert parsed.sequence == seq
        assert parsed.timestamp == ts
        assert parsed.payload_size == size
        assert parsed.marker == marker
        assert parsed.transport_seq == tseq


class TestWireSize:
    """``wire_size`` is a field fixed at construction, not a property."""

    @given(
        sizes=st.lists(st.integers(1, 5000), min_size=1, max_size=6),
        use_transport_seq=st.booleans(),
        first_sequence=st.integers(0, SEQ_MOD - 1),
    )
    def test_packetizer_packets_match_serialized_length(
        self, sizes, use_transport_seq, first_sequence
    ):
        packetizer = Packetizer(
            ssrc=7,
            first_sequence=first_sequence,
            use_transport_seq=use_transport_seq,
        )
        for frame_id, size in enumerate(sizes):
            frame = EncodedFrame(
                frame_id=frame_id,
                capture_time=frame_id / 30.0,
                size_bytes=size,
                frame_type=FrameType.PREDICTED,
                target_bitrate=8e6,
                complexity=1.0,
            )
            for packet in packetizer.packetize(frame, frame_id / 30.0):
                assert (packet.transport_seq is not None) == use_transport_seq
                assert packet.wire_size == len(packet.to_bytes())
                assert packet.wire_size == packet.header_size + packet.payload_size

    @given(
        size=st.integers(0, 1500),
        tseq=st.one_of(st.none(), st.integers(0, SEQ_MOD - 1)),
    )
    def test_from_bytes_keeps_size(self, size, tseq):
        packet = RtpPacket(
            ssrc=42, sequence=5, timestamp=90, payload_size=size, transport_seq=tseq
        )
        assert RtpPacket.from_bytes(packet.to_bytes()).wire_size == packet.wire_size

    def test_not_a_constructor_argument(self):
        with pytest.raises(TypeError):
            RtpPacket(ssrc=1, sequence=0, timestamp=0, payload_size=10, wire_size=22)

    def test_repr_and_equality_ignore_it(self):
        field = next(
            f for f in dataclasses.fields(RtpPacket) if f.name == "wire_size"
        )
        assert (field.init, field.repr, field.compare) == (False, False, False)
        first = RtpPacket(ssrc=1, sequence=3, timestamp=0, payload_size=10)
        second = RtpPacket(ssrc=1, sequence=3, timestamp=0, payload_size=10)
        second.wire_size = 0
        assert first == second
        assert repr(first) == repr(second)
        assert "wire_size" not in repr(first)
