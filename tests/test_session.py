"""Integration tests: full measurement sessions end to end."""

import numpy as np
import pytest

from repro import CcAlgorithm, Environment, Platform, ScenarioConfig, run_session
from repro.core.config import STATIC_BITRATE
from repro.core.session import build_controller
from repro.cc import GccController, ScreamController, StaticBitrateController
from repro.metrics import VideoSummary, network_summary


class TestScenarioConfig:
    def test_string_coercion(self):
        config = ScenarioConfig(environment="rural", platform="ground", cc="gcc")
        assert config.environment is Environment.RURAL
        assert config.platform is Platform.GROUND
        assert config.cc is CcAlgorithm.GCC

    def test_static_bitrate_defaults_per_environment(self):
        urban = ScenarioConfig(environment="urban")
        rural = ScenarioConfig(environment="rural")
        assert urban.effective_static_bitrate == STATIC_BITRATE[Environment.URBAN]
        assert rural.effective_static_bitrate == STATIC_BITRATE[Environment.RURAL]

    def test_explicit_static_bitrate_wins(self):
        config = ScenarioConfig(environment="urban", static_bitrate=12e6)
        assert config.effective_static_bitrate == 12e6

    def test_invalid_operator_rejected(self):
        with pytest.raises(ValueError):
            ScenarioConfig(operator="P9")

    def test_invalid_duration_rejected(self):
        with pytest.raises(ValueError):
            ScenarioConfig(duration=0)

    def test_with_overrides(self):
        config = ScenarioConfig(seed=1)
        other = config.with_overrides(seed=9, duration=10.0)
        assert other.seed == 9 and other.duration == 10.0
        assert config.seed == 1

    def test_label_contains_dimensions(self):
        label = ScenarioConfig(cc="gcc", environment="rural", seed=4).label()
        assert "gcc" in label and "rural" in label and "s4" in label


class TestBuildController:
    def test_static(self):
        config = ScenarioConfig(cc="static", environment="rural")
        controller = build_controller(config)
        assert isinstance(controller, StaticBitrateController)
        assert controller.target_bitrate(0.0) == 8e6

    def test_gcc(self):
        assert isinstance(build_controller(ScenarioConfig(cc="gcc")), GccController)

    def test_scream(self):
        assert isinstance(
            build_controller(ScenarioConfig(cc="scream")), ScreamController
        )


@pytest.fixture(scope="module")
def static_result():
    return run_session(
        ScenarioConfig(cc="static", environment="urban", duration=40.0, seed=6)
    )


@pytest.fixture(scope="module")
def gcc_result():
    return run_session(
        ScenarioConfig(cc="gcc", environment="urban", duration=40.0, seed=6)
    )


@pytest.fixture(scope="module")
def scream_result():
    return run_session(
        ScenarioConfig(cc="scream", environment="urban", duration=40.0, seed=6)
    )


class TestSessionEndToEnd:
    def test_packets_flow(self, static_result):
        assert static_result.packets_sent > 1000
        assert len(static_result.packet_log) > 1000
        assert static_result.packet_loss_rate < 0.05

    def test_video_plays(self, static_result):
        assert len(static_result.playback) > 500
        summary = VideoSummary.from_result(static_result, warmup=5.0)
        assert summary.mean_fps > 20.0
        assert summary.median_ssim > 0.8

    def test_delays_physically_plausible(self, static_result):
        for entry in static_result.packet_log:
            assert entry.received_at > entry.sent_at
            assert entry.received_at - entry.sent_at >= static_result.config.base_owd

    def test_playback_latency_bounded_below_by_pipeline(self, static_result):
        # encode + network + jitter buffer: nothing can play faster.
        floor = static_result.config.base_owd + static_result.config.jitter_buffer_latency
        for record in static_result.playback[5:]:
            assert record.playback_latency > floor * 0.9

    def test_frame_ids_played_in_order(self, static_result):
        ids = [r.frame_id for r in static_result.playback]
        assert ids == sorted(ids)

    def test_network_summary_keys(self, static_result):
        summary = network_summary(static_result)
        assert set(summary) >= {
            "ho_per_s", "owd_median_ms", "goodput_mbps", "loss_rate",
        }

    def test_gcc_adapts_bitrate(self, gcc_result):
        targets = [e.target_bitrate for e in gcc_result.cc_log]
        assert targets, "GCC produced no log entries"
        assert max(targets) > 1.5 * targets[0]  # ramped up from start

    def test_gcc_goodput_below_static(self, static_result, gcc_result):
        static_bytes = sum(e.size_bytes for e in static_result.packet_log)
        gcc_bytes = sum(e.size_bytes for e in gcc_result.packet_log)
        assert gcc_bytes < static_bytes

    def test_scream_keeps_bytes_in_flight_bounded(self, scream_result):
        for entry in scream_result.cc_log:
            assert entry.extra["bytes_in_flight"] <= entry.extra["cwnd"] + 1500

    def test_deterministic_for_seed(self):
        config = ScenarioConfig(cc="static", environment="rural", duration=15.0, seed=3)
        a = run_session(config)
        b = run_session(config)
        assert a.packets_sent == b.packets_sent
        assert len(a.packet_log) == len(b.packet_log)
        assert [r.play_time for r in a.playback] == [r.play_time for r in b.playback]
        assert len(a.handovers) == len(b.handovers)

    def test_different_seeds_differ(self):
        a = run_session(ScenarioConfig(duration=15.0, seed=1))
        b = run_session(ScenarioConfig(duration=15.0, seed=2))
        assert [s.rsrp_dbm for s in a.capacity_samples[:50]] != [
            s.rsrp_dbm for s in b.capacity_samples[:50]
        ]

    def test_ground_platform_runs(self):
        result = run_session(
            ScenarioConfig(cc="static", environment="urban", platform="ground",
                           duration=20.0, seed=5)
        )
        assert all(s.altitude < 5.0 for s in result.capacity_samples)
        assert len(result.playback) > 300

    def test_p2_operator_runs(self):
        result = run_session(
            ScenarioConfig(cc="static", environment="rural", operator="P2",
                           duration=20.0, seed=5)
        )
        assert result.packets_sent > 0

    def test_extra_counters_present(self, scream_result, gcc_result):
        assert "false_loss_candidates" in scream_result.extra
        assert "overuse_events" in gcc_result.extra
        assert "ping_pong_handovers" in scream_result.extra

    def test_rssi_log_coarse(self, static_result):
        times = [r.time for r in static_result.rssi_log]
        gaps = [b - a for a, b in zip(times, times[1:])]
        assert min(gaps) >= 0.99  # 1 Hz, as the paper's dongles report


class TestBufferWiring:
    """The downlink path must honour its own (shallow) buffer config."""

    def test_downlink_buffer_field_defaults_shallow(self):
        config = ScenarioConfig()
        assert config.downlink_buffer_bytes < config.uplink_buffer_bytes

    def test_session_wires_separate_buffer_sizes(self, monkeypatch):
        import repro.core.session as session_module
        from repro.net.path import NetworkPath

        captured = []

        class RecordingPath(NetworkPath):
            def __init__(self, *args, **kwargs):
                captured.append(kwargs.get("buffer_bytes"))
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(session_module, "NetworkPath", RecordingPath)
        config = ScenarioConfig(
            cc="static",
            duration=5.0,
            seed=2,
            uplink_buffer_bytes=4_000_000,
            downlink_buffer_bytes=1_000_000,
        )
        run_session(config)
        assert captured == [4_000_000, 1_000_000]


# ----------------------------------------------------------------------
# column-wise pickle form of SessionResult
# ----------------------------------------------------------------------
import pickle  # noqa: E402
import struct  # noqa: E402
from dataclasses import fields  # noqa: E402

from repro.cc.base import CcLogEntry  # noqa: E402
from repro.cellular.channel import RssiReport  # noqa: E402
from repro.core.fingerprint import (  # noqa: E402
    digest,
    fleet_fingerprint,
    session_fingerprint,
)
from repro.core.fleet import FleetConfig, run_fleet  # noqa: E402
from repro.core.receiver import PacketLogEntry  # noqa: E402
from repro.core.sender import SenderStats  # noqa: E402
from repro.core.session import SessionResult  # noqa: E402
from repro.runner import WORK_SESSION, execute_batch, plan_batches  # noqa: E402
from repro.runner.work import make_unit  # noqa: E402
from repro.video.player import PlaybackRecord  # noqa: E402

RECORD_LOGS = (
    "packet_log",
    "playback",
    "handovers",
    "capacity_samples",
    "rssi_log",
    "cc_log",
)
#: The worker pool's hand-back protocol and the result cache's.
PROTOCOLS = sorted({pickle.DEFAULT_PROTOCOL, pickle.HIGHEST_PROTOCOL})
#: A quiet NaN with a non-zero payload: its bits must survive too.
NAN_WITH_PAYLOAD = struct.unpack("<d", struct.pack("<Q", 0x7FF8_0000_0000_0123))[0]


def _exact(value):
    """A value's type plus, for floats, its bit pattern."""
    if isinstance(value, float):  # numpy.float64 included
        return type(value), struct.pack("<d", value)
    return type(value), value


def _records_exactly(result) -> dict:
    return {
        name: [
            (type(record),)
            + tuple(_exact(getattr(record, f.name)) for f in fields(record))
            for record in getattr(result, name)
        ]
        for name in RECORD_LOGS
    }


def _encoded_logs(result) -> dict:
    """The logs ``SessionResult.__reduce__`` encodes column-wise."""
    _, (_, _, _, logs) = result.__reduce__()
    return logs


def _column_kinds(encoded_log) -> dict:
    """Field -> buffer type of each column, ``list`` for a fallback."""
    _, names, columns = encoded_log
    return {
        name: column[0] if type(column) is tuple else list
        for name, column in zip(names, columns)
    }


def assert_exact_roundtrip(result, protocol: int):
    back = pickle.loads(pickle.dumps(result, protocol=protocol))
    assert type(back) is SessionResult
    assert repr(back) == repr(result)
    assert digest(session_fingerprint(back)) == digest(session_fingerprint(result))
    assert _records_exactly(back) == _records_exactly(result)


class TestSessionResultPickle:
    @pytest.fixture(scope="class")
    def scalar_session(self):
        return run_session(
            ScenarioConfig(cc="gcc", environment="urban", duration=10.0, seed=1)
        )

    @pytest.fixture(scope="class")
    def batched_sessions(self):
        units = [
            make_unit(
                WORK_SESSION,
                ScenarioConfig(cc="scream", environment="rural", duration=6.0, seed=seed),
            )
            for seed in (1, 2)
        ]
        plans, leftovers = plan_batches(list(enumerate(units)))
        assert leftovers == [] and len(plans) == 1
        return execute_batch(plans[0])

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_scalar_session_roundtrips_exactly(self, scalar_session, protocol):
        assert type(scalar_session.packet_log[0].sent_at) is float
        assert_exact_roundtrip(scalar_session, protocol)

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_batched_sessions_roundtrip_exactly(self, batched_sessions, protocol):
        # Batched sweeps serve preloaded numpy.float64 draws, which reach
        # the logs' event times (see test_fingerprints'
        # test_batched_session_digest_equals_scalar); the codec must keep them.
        for result in batched_sessions:
            assert type(result.packet_log[0].sent_at) is np.float64
            assert_exact_roundtrip(result, protocol)

    def test_record_fields_pickle_as_typed_buffers(self, scalar_session):
        encoded = _encoded_logs(scalar_session)
        assert _column_kinds(encoded["packet_log"]) == {
            "sequence": int,
            "sent_at": float,
            "received_at": float,
            "size_bytes": int,
            "frame_id": int,
        }
        assert _column_kinds(encoded["playback"])["complete"] is bool
        assert _column_kinds(encoded["capacity_samples"])["in_handover"] is bool
        # cc_log extras are dicts: that column stays a list.
        assert _column_kinds(encoded["cc_log"])["extra"] is list

    @pytest.fixture(scope="class")
    def fleet(self):
        return run_fleet(
            FleetConfig(
                base=ScenarioConfig(cc="static", duration=5.0, seed=3),
                num_sessions=2,
            )
        )

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_fleet_roundtrips_exactly(self, fleet, protocol):
        back = pickle.loads(pickle.dumps(fleet, protocol=protocol))
        assert digest(fleet_fingerprint(back)) == digest(fleet_fingerprint(fleet))
        for session, copy in zip(fleet.sessions, back.sessions):
            assert _records_exactly(copy) == _records_exactly(session)

    def test_columns_that_do_not_qualify_stay_lists(self):
        result = SessionResult(
            config=ScenarioConfig(),
            duration=1.0,
            packet_log=[
                PacketLogEntry(2**63, 0.0, np.float64(-0.0), 1200, True),
                PacketLogEntry(-(2**70), -0.0, np.float64(NAN_WITH_PAYLOAD), 1200, 7),
            ],
            playback=[
                PlaybackRecord(1, 0.5, np.float64(0.25), NAN_WITH_PAYLOAD, True),
                PlaybackRecord(2, 0.75, 0.5, -0.0, False),
            ],
            handovers=[],
            capacity_samples=[],
            rssi_log=[RssiReport(1.0, -80.5, 3), RssiReport(2.0, -81.0, 4)],
            sender_stats=SenderStats(),
            cc_log=[
                CcLogEntry(0.1, np.float64(1e6), {"rate": 1.0}),
                CcLogEntry(0.2, 2e6, {}),
            ],
        )
        encoded = _encoded_logs(result)
        assert _column_kinds(encoded["packet_log"]) == {
            "sequence": list,  # ints beyond int64
            "sent_at": float,  # -0.0 kept
            "received_at": np.float64,  # NaN payload kept
            "size_bytes": int,
            "frame_id": list,  # bool mixed with int
        }
        assert _column_kinds(encoded["playback"]) == {
            "frame_id": int,
            "play_time": float,
            "encode_time": list,  # numpy.float64 mixed with float
            "ssim": float,
            "complete": bool,
        }
        assert _column_kinds(encoded["cc_log"]) == {
            "time": float,
            "target_bitrate": list,
            "extra": list,
        }
        assert "handovers" not in encoded and "capacity_samples" not in encoded
        for protocol in PROTOCOLS:
            assert_exact_roundtrip(result, protocol)

    def test_logs_that_do_not_qualify_pickle_as_they_are(self):
        result = SessionResult(
            config=ScenarioConfig(),
            duration=1.0,
            packet_log=[],
            playback=[],
            handovers=[],
            capacity_samples=[],
            rssi_log=(RssiReport(1.0, -80.5, 3),),
            sender_stats=SenderStats(),
            cc_log=[(0.1, 1e6), CcLogEntry(0.2, 2e6, {})],
        )
        assert _encoded_logs(result) == {}
        back = pickle.loads(pickle.dumps(result))
        assert back == result and repr(back) == repr(result)
        assert type(back.rssi_log) is tuple
