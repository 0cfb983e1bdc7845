"""Tests for the command-and-control traffic subsystem."""

import math

import pytest

from repro import ScenarioConfig
from repro.control import (
    COMMAND_RATE_HZ,
    ControlResult,
    run_control_session,
)


@pytest.fixture(scope="module")
def control_with_video():
    return run_control_session(
        ScenarioConfig(cc="static", environment="urban", duration=40.0, seed=9)
    )


@pytest.fixture(scope="module")
def control_only():
    return run_control_session(
        ScenarioConfig(cc="static", environment="urban", duration=40.0, seed=9),
        with_video=False,
    )


class TestControlSession:
    def test_commands_flow_at_configured_rate(self, control_with_video):
        expected = 40.0 * COMMAND_RATE_HZ
        assert control_with_video.commands_sent == pytest.approx(expected, rel=0.05)
        assert len(control_with_video.command_samples) > 0.9 * expected

    def test_command_latency_far_below_video(self, control_with_video):
        """The related-work gap: control signals are an order of
        magnitude faster than the video stream."""
        cmd = control_with_video.command_latency_ms(50)
        video = control_with_video.video_latency_ms(50)
        assert cmd < 60.0
        assert video > 3 * cmd

    def test_telemetry_shares_uplink_with_video(self, control_with_video):
        assert len(control_with_video.telemetry_samples) > 300
        # Telemetry rides the loaded uplink: its tail is worse than
        # the lightly-used downlink commands'.
        assert control_with_video.telemetry_latency_ms(99) >= (
            control_with_video.command_latency_ms(99) * 0.5
        )

    def test_command_loss_negligible(self, control_with_video):
        assert control_with_video.command_loss_rate < 0.01

    def test_without_video_has_no_playback(self, control_only):
        assert control_only.playback == []
        assert math.isnan(control_only.video_latency_ms(50))

    def test_video_load_inflates_telemetry_latency(
        self, control_with_video, control_only
    ):
        loaded = control_with_video.telemetry_latency_ms(95)
        idle = control_only.telemetry_latency_ms(95)
        assert loaded >= idle * 0.8  # never mysteriously better

    def test_render_lists_flows(self, control_with_video):
        text = control_with_video.render()
        assert "command" in text and "telemetry" in text and "video" in text


class TestControlResultEdgeCases:
    def test_empty_result_latencies_nan(self):
        result = ControlResult(
            config=ScenarioConfig(duration=1.0),
            with_video=False,
            command_samples=[],
            telemetry_samples=[],
            commands_sent=0,
            telemetry_sent=0,
        )
        assert math.isnan(result.command_latency_ms())
        assert result.command_loss_rate == 0.0


class TestScenarioFieldsReachTheVideoPipeline:
    """The control session's encoder and receiver take the scenario's
    bitrate clamp and jitter-buffer mode exactly as ``build_session``
    does; an encoder left at its own defaults floors a 0.5 Mbps static
    flight at 2 Mbps."""

    CONFIG = ScenarioConfig(
        cc="static", environment="urban", platform="air", duration=20.0,
        seed=3, static_bitrate=0.5e6, min_bitrate=0.5e6, max_bitrate=1e6,
        jitter_buffer_drop_on_latency=True,
    )

    @staticmethod
    def spy(monkeypatch, module, name):
        """Record every instance of ``module.name`` built from now on."""
        built = []
        cls = getattr(module, name)

        class Spy(cls):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                built.append(self)

        monkeypatch.setattr(module, name, Spy)
        return built

    def test_sender_rate_and_buffer_mode_match_run_session(self, monkeypatch):
        import repro.core.session as core_session

        senders = self.spy(monkeypatch, core_session, "VideoSender")
        receivers = self.spy(monkeypatch, core_session, "VideoReceiver")
        run_control_session(self.CONFIG)
        core_session.run_session(self.CONFIG)
        control, session = senders
        control_bps = control.stats.bytes_sent * 8 / self.CONFIG.duration
        session_bps = session.stats.bytes_sent * 8 / self.CONFIG.duration
        assert control_bps == pytest.approx(session_bps, rel=0.1)
        assert control_bps < self.CONFIG.max_bitrate
        receiver, _ = receivers
        assert receiver.jitter_buffer.drop_on_latency is True
