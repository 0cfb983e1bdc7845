"""Tests for the multipath extension and DAPS handovers."""

import numpy as np
import pytest

from repro import ScenarioConfig, run_session
from repro.multipath import DedupReceiver, MultipathUplink, run_multipath_session
from repro.net.packet import Datagram
from repro.net.path import NetworkPath
from repro.rtp.packets import RtpPacket


class FakePath:
    def __init__(self):
        self.sent = []

    def send(self, datagram):
        self.sent.append(datagram)


def rtp(seq):
    return RtpPacket(ssrc=1, sequence=seq, timestamp=0, payload_size=100)


class TestMultipathUplink:
    def test_duplicate_sends_on_all_paths(self):
        paths = [FakePath(), FakePath()]
        uplink = MultipathUplink(paths, mode="duplicate")
        uplink.send(Datagram(size_bytes=100, payload=rtp(0)))
        assert len(paths[0].sent) == 1
        assert len(paths[1].sent) == 1
        # Independent datagram objects share the RTP payload.
        assert paths[0].sent[0] is not paths[1].sent[0]
        assert paths[0].sent[0].payload is paths[1].sent[0].payload

    def test_roundrobin_alternates(self):
        paths = [FakePath(), FakePath()]
        uplink = MultipathUplink(paths, mode="roundrobin")
        for seq in range(4):
            uplink.send(Datagram(size_bytes=100, payload=rtp(seq)))
        assert len(paths[0].sent) == 2
        assert len(paths[1].sent) == 2
        assert uplink.sent_per_path == [2, 2]

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError):
            MultipathUplink([FakePath()], mode="bogus")

    def test_empty_paths_rejected(self):
        with pytest.raises(ValueError):
            MultipathUplink([])


class TestDedupReceiver:
    class FakeReceiver:
        def __init__(self):
            self.received = []

        def on_datagram(self, datagram):
            self.received.append(datagram.payload.sequence)

    def test_first_copy_wins(self):
        inner = self.FakeReceiver()
        dedup = DedupReceiver(inner)
        dedup.on_datagram(Datagram(size_bytes=100, payload=rtp(5)))
        dedup.on_datagram(Datagram(size_bytes=100, payload=rtp(5)))
        assert inner.received == [5]
        assert dedup.duplicates == 1

    def test_distinct_sequences_pass(self):
        inner = self.FakeReceiver()
        dedup = DedupReceiver(inner)
        for seq in range(10):
            dedup.on_datagram(Datagram(size_bytes=100, payload=rtp(seq)))
        assert inner.received == list(range(10))
        assert dedup.duplicates == 0

    def test_seen_set_bounded(self):
        inner = self.FakeReceiver()
        dedup = DedupReceiver(inner, window=100)
        for seq in range(1000):
            dedup.on_datagram(Datagram(size_bytes=100, payload=rtp(seq % (1 << 16))))
        assert len(dedup._seen) <= 250


class TestMultipathSession:
    def test_adaptive_workload_rejected(self):
        with pytest.raises(ValueError):
            run_multipath_session(ScenarioConfig(cc="gcc", duration=10.0))

    def test_duplicate_mode_improves_delay_tail(self):
        config = ScenarioConfig(
            cc="static", environment="rural", duration=60.0, seed=13
        )
        single = run_session(config)
        multi = run_multipath_session(config, mode="duplicate")
        single_p99 = np.percentile(
            [e.received_at - e.sent_at for e in single.packet_log], 99
        )
        multi_p99 = np.percentile(
            [e.received_at - e.sent_at for e in multi.packet_log], 99
        )
        assert multi_p99 <= single_p99
        assert multi.duplicates_dropped > 0

    def test_roundrobin_splits_evenly(self):
        config = ScenarioConfig(cc="static", environment="rural", duration=20.0, seed=3)
        result = run_multipath_session(config, mode="roundrobin")
        a, b = result.sent_per_path
        assert abs(a - b) <= 1
        assert result.duplicates_dropped == 0

    def test_two_independent_channels(self):
        config = ScenarioConfig(cc="static", environment="rural", duration=60.0, seed=13)
        result = run_multipath_session(config)
        assert len(result.handovers_per_path) == 2
        # Handover times on the two networks are not identical.
        times_a = [e.time for e in result.handovers_per_path[0]]
        times_b = [e.time for e in result.handovers_per_path[1]]
        assert times_a != times_b or (not times_a and not times_b)


class TestDaps:
    def test_daps_removes_outages(self, monkeypatch):
        # 15 s at 100 kbps is the smallest shape that passes (a 10 s
        # flight makes no handover); one step above it in each keeps a
        # margin.
        base = ScenarioConfig(
            cc="static",
            environment="urban",
            duration=20.0,
            seed=17,
            static_bitrate=2e5,
            min_bitrate=2e5,
            max_bitrate=4e5,
        )
        # Every outage goes through NetworkPath.set_up: record when a
        # path is taken down.
        downs = []
        set_up = NetworkPath.set_up

        def spy(path, up):
            if not up:
                downs.append(path._loop.now)
            set_up(path, up)

        monkeypatch.setattr(NetworkPath, "set_up", spy)
        legacy = run_session(base)
        legacy_downs = list(downs)
        downs.clear()
        daps = run_session(
            base.with_overrides(extra={"make_before_break": True})
        )
        # Both see handovers...
        assert len(legacy.handovers) >= 2
        assert len(daps.handovers) > 0
        # ...but only the legacy handovers take both paths down, each
        # at its handover; DAPS keeps the link up throughout.
        assert legacy_downs == [
            event.time for event in legacy.handovers for _ in range(2)
        ]
        assert downs == []
        legacy_p99 = np.percentile(
            [e.received_at - e.sent_at for e in legacy.packet_log], 99.5
        )
        daps_p99 = np.percentile(
            [e.received_at - e.sent_at for e in daps.packet_log], 99.5
        )
        # ...and DAPS trims the outage-driven tail.
        assert daps_p99 <= legacy_p99
