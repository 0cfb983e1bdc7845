"""Tests for the experiment harness (quick-scale smoke + structure)."""

import pytest

from repro.core.config import ScenarioConfig
from repro.experiments import (
    ExperimentSettings,
    fig8_timeseries,
    run_channel_probe,
    run_matrix,
    run_ping_probe,
)

QUICK = ExperimentSettings(duration=30.0, seeds=(1,), warmup=10.0)


class TestExperimentSettings:
    def test_defaults_valid(self):
        settings = ExperimentSettings()
        assert settings.duration > settings.warmup

    def test_invalid_rejected(self):
        with pytest.raises(ValueError):
            ExperimentSettings(duration=-1)
        with pytest.raises(ValueError):
            ExperimentSettings(seeds=())
        with pytest.raises(ValueError):
            ExperimentSettings(duration=10.0, warmup=20.0)

    def test_presets(self):
        assert ExperimentSettings.quick().duration < ExperimentSettings.paper_scale().duration


class TestRunMatrix:
    def test_groups_by_series_label(self):
        configs = [
            ScenarioConfig(cc="static", environment="urban"),
            ScenarioConfig(cc="static", environment="rural"),
        ]
        settings = ExperimentSettings(duration=15.0, seeds=(1, 2), warmup=5.0)
        grouped = run_matrix(configs, settings)
        assert len(grouped) == 2
        for results in grouped.values():
            assert len(results) == 2  # one per seed
            assert {r.config.seed for r in results} == {1, 2}

    def test_results_carry_duration(self):
        grouped = run_matrix([ScenarioConfig(cc="static")], QUICK)
        result = next(iter(grouped.values()))[0]
        assert result.duration == QUICK.duration


class TestRunnerOwnership:
    def test_run_matrix_closes_internal_runner(self):
        """Regression: run_matrix used to leak the worker pool it
        created internally (a runner's pool persists across campaigns).
        Its own runner is closed on exit; a pooled runner passed in is
        closed by its caller's ``with``."""
        import multiprocessing

        from repro.runner import CampaignRunner

        settings = ExperimentSettings(duration=12.0, seeds=(1, 2), warmup=2.0)
        run_matrix([ScenarioConfig(cc="static")], settings)
        with CampaignRunner(2, batch=True) as runner:
            run_matrix([ScenarioConfig(cc="static")], settings, runner=runner)
        for child in multiprocessing.active_children():
            child.join(timeout=10.0)
        assert multiprocessing.active_children() == []

    def test_caller_supplied_runner_stays_open(self):
        from repro.runner import CampaignRunner

        with CampaignRunner(workers=1) as runner:
            run_matrix([ScenarioConfig(cc="static")], QUICK, runner=runner)
            # Reusable across campaigns: a second call must still work.
            grouped = run_matrix(
                [ScenarioConfig(cc="static")], QUICK, runner=runner
            )
        assert len(grouped) == 1


class TestChannelProbe:
    def test_probe_collects_samples(self):
        probe = run_channel_probe(
            ScenarioConfig(environment="urban", platform="air"), QUICK
        )
        assert len(probe.uplink_samples) > 200
        assert probe.duration_total == QUICK.duration
        assert probe.ho_frequency >= 0.0

    def test_ho_frequency_zero_duration(self):
        """Regression: an empty probe divided by zero total duration."""
        from repro.experiments import ChannelProbeResult

        empty = ChannelProbeResult(
            label="static-urban-air-P1",
            handovers=[],
            duration_total=0.0,
            uplink_samples=[],
            altitudes=[],
            cells_seen=0,
            ping_pong=0,
        )
        assert empty.ho_frequency == 0.0

    def test_probe_label(self):
        probe = run_channel_probe(
            ScenarioConfig(environment="rural", platform="ground", cc="static"),
            QUICK,
        )
        assert probe.label == "static-rural-ground-P1"


class TestPingProbe:
    def test_pings_echo(self):
        samples = run_ping_probe(
            ScenarioConfig(environment="urban", platform="air"), QUICK, rate_hz=10.0
        )
        assert len(samples) > 200
        for sample in samples[:50]:
            assert sample.rtt > 2 * 0.9 * 0.018  # two base OWDs minimum
            assert sample.altitude >= 0.0

    def test_rtt_reflects_round_trip(self):
        samples = run_ping_probe(
            ScenarioConfig(environment="urban", platform="ground"), QUICK,
            rate_hz=5.0,
        )
        import numpy as np
        median = np.median([s.rtt for s in samples])
        # Roughly twice the configured base OWD plus serialization.
        assert 0.03 < median < 0.2


class TestFig8:
    def test_series_extracted(self):
        settings = ExperimentSettings(duration=60.0, seeds=(3,), warmup=10.0)
        result = fig8_timeseries(settings)
        assert len(result.network_latency) > 20
        assert len(result.playback_latency) > 100
        text = result.render()
        assert "network latency" in text
