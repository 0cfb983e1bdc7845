"""Cross-cutting property-based tests on system invariants."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import ScenarioConfig, run_session
from repro.net.links import CapacityLink
from repro.net.packet import Datagram
from repro.net.path import NetworkPath
from repro.net.simulator import EventLoop
from repro.rtp.packetizer import Packetizer
from repro.video.encoder import EncoderModel
from repro.video.frames import EncodedFrame, FrameType
from repro.video.source import SourceVideo
from repro.util.rng import RngStreams


class TestConservationLaws:
    @given(
        sizes=st.lists(st.integers(100, 3000), min_size=1, max_size=50),
        buffer_bytes=st.integers(2000, 50_000),
    )
    @settings(max_examples=40, deadline=None)
    def test_capacity_link_conserves_packets(self, sizes, buffer_bytes):
        loop = EventLoop()
        delivered = []
        link = CapacityLink(
            loop,
            lambda t: 8e6,
            lambda d, done: delivered.append(d),
            buffer_bytes=buffer_bytes,
        )
        for size in sizes:
            link.send(Datagram(size_bytes=size, payload=None))
        loop.run()
        assert len(delivered) + link.stats.dropped_overflow == len(sizes)
        assert link.queued_bytes == 0

    @given(
        count=st.integers(1, 80),
        gap_ms=st.floats(0.1, 20.0),
    )
    @settings(max_examples=30, deadline=None)
    def test_path_fifo_and_delay_floor(self, count, gap_ms):
        loop = EventLoop()
        received = []
        rng = np.random.default_rng(0)
        path = NetworkPath(
            loop, lambda t: 20e6, received.append,
            base_delay=0.03, jitter_std=0.002, rng=rng,
        )
        datagrams = [Datagram(size_bytes=500, payload=i) for i in range(count)]
        for i, d in enumerate(datagrams):
            loop.call_at(i * gap_ms / 1e3, lambda d=d: path.send(d))
        loop.run()
        assert [d.payload for d in received] == list(range(count))
        for d in received:
            assert d.one_way_delay >= 0.03

    @given(seed=st.integers(0, 50))
    @settings(max_examples=8, deadline=None)
    def test_session_packet_conservation(self, seed):
        result = run_session(
            ScenarioConfig(cc="static", environment="rural", duration=10.0, seed=seed)
        )
        accounted = (
            len(result.packet_log)
            + result.packets_lost_radio
            + result.packets_dropped_buffer
        )
        # A few packets may still be in flight at cut-off.
        assert accounted <= result.packets_sent
        assert result.packets_sent - accounted < 200


class TestEncoderProperties:
    @given(bitrate=st.floats(2e6, 25e6), seed=st.integers(0, 100))
    @settings(max_examples=20, deadline=None)
    def test_rate_tracks_any_target(self, bitrate, seed):
        encoder = EncoderModel(
            RngStreams(seed).derive("enc"), initial_bitrate=bitrate
        )
        source = SourceVideo(RngStreams(seed).derive("src"))
        frames = [encoder.encode(source.next_frame(i / 30)) for i in range(300)]
        rate = sum(f.size_bytes * 8 for f in frames) / 10.0
        assert rate == pytest.approx(bitrate, rel=0.25)

    @given(
        bitrates=st.lists(st.floats(2e6, 25e6), min_size=2, max_size=10),
    )
    @settings(max_examples=20, deadline=None)
    def test_frame_sizes_positive_through_switches(self, bitrates):
        encoder = EncoderModel(RngStreams(1).derive("enc"), initial_bitrate=2e6)
        source = SourceVideo(RngStreams(1).derive("src"))
        frame_count = 0
        for bitrate in bitrates:
            encoder.set_target_bitrate(bitrate)
            for _ in range(10):
                frame = encoder.encode(source.next_frame(frame_count / 30))
                frame_count += 1
                assert frame.size_bytes > 0


class TestPacketizerProperties:
    @given(
        sizes=st.lists(st.integers(1, 50_000), min_size=1, max_size=30),
        mtu=st.integers(200, 1500),
    )
    @settings(max_examples=40, deadline=None)
    def test_fragmentation_invariants(self, sizes, mtu):
        packetizer = Packetizer(ssrc=1, mtu_payload=mtu)
        prev_seq = None
        for frame_id, size in enumerate(sizes):
            frame = EncodedFrame(
                frame_id=frame_id,
                capture_time=frame_id / 30,
                size_bytes=size,
                frame_type=FrameType.PREDICTED,
                target_bitrate=8e6,
                complexity=1.0,
            )
            packets = packetizer.packetize(frame, frame_id / 30)
            # Exactly one start, one marker; payloads sum to the frame.
            assert sum(p.frame_start for p in packets) == 1
            assert sum(p.marker for p in packets) == 1
            assert sum(p.payload_size for p in packets) == size
            assert all(p.payload_size <= mtu for p in packets)
            # Sequence numbers are globally continuous mod 2^16.
            for p in packets:
                if prev_seq is not None:
                    assert p.sequence == (prev_seq + 1) % (1 << 16)
                prev_seq = p.sequence


class TestDeterminism:
    @given(
        seed=st.integers(0, 30),
        cc=st.sampled_from(["static", "gcc", "scream"]),
    )
    @settings(max_examples=6, deadline=None)
    def test_any_scenario_is_reproducible(self, seed, cc):
        config = ScenarioConfig(cc=cc, environment="urban", duration=8.0, seed=seed)
        a = run_session(config)
        b = run_session(config)
        assert a.packets_sent == b.packets_sent
        assert [e.received_at for e in a.packet_log] == [
            e.received_at for e in b.packet_log
        ]
        assert [r.ssim for r in a.playback] == [r.ssim for r in b.playback]
