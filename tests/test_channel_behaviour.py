"""Behavioural tests of the cellular channel's paper-specific effects."""

import numpy as np
import pytest

from repro.cellular.channel import CellularChannel, ChannelConfig
from repro.cellular.handover import A3Config, HetSampler
from repro.cellular.operators import get_profile
from repro.cellular.propagation import PropagationConfig
from repro.core.config import ScenarioConfig
from repro.core.session import build_channel_config, build_trajectory, run_session
from repro.flight.trajectory import WaypointTrajectory, Position
from repro.net.simulator import EventLoop
from repro.util.rng import RngStreams


def hover_trajectory(altitude: float, duration: float = 400.0) -> WaypointTrajectory:
    """A stationary platform at a fixed altitude (isolates altitude effects)."""
    return WaypointTrajectory(
        [0.0, duration],
        [Position(50.0, 0.0, altitude), Position(51.0, 0.0, altitude)],
    )


def build_channel(trajectory, *, environment="urban", seed=6, config=None):
    streams = RngStreams(seed)
    profile = get_profile("P1", environment)
    layout = profile.build_layout(streams.derive("layout"))
    loop = EventLoop()
    channel_config = config or ChannelConfig(
        propagation=PropagationConfig.urban()
        if environment == "urban"
        else PropagationConfig.rural()
    )
    channel = CellularChannel(
        loop, layout, profile, trajectory, streams.child("ch"),
        config=channel_config, horizon=400.0,
    )
    return loop, channel


class TestAltitudeEffects:
    def test_more_handovers_aloft_than_on_ground(self):
        results = {}
        for altitude in (1.5, 120.0):
            loop, channel = build_channel(hover_trajectory(altitude))
            channel.start()
            loop.run_until(400.0)
            results[altitude] = len(channel.engine.events)
        assert results[120.0] > results[1.5]

    def test_high_altitude_outlier_events_reduce_capacity(self):
        config = ChannelConfig(
            propagation=PropagationConfig.urban(),
            outlier_rate=0.5,  # force events for the test
        )
        loop, channel = build_channel(hover_trajectory(120.0), config=config)
        channel.start()
        loop.run_until(300.0)
        rates = np.array([s.uplink_bps for s in channel.samples])
        # Dropout episodes push capacity to a small fraction.
        assert rates.min() < 0.2 * np.median(rates)

    def test_no_outlier_events_below_threshold(self):
        config = ChannelConfig(
            propagation=PropagationConfig.urban(), outlier_rate=0.5
        )
        low_loop, low_channel = build_channel(hover_trajectory(60.0), config=config)
        low_channel.start()
        low_loop.run_until(300.0)
        low = np.array([s.uplink_bps for s in low_channel.samples])
        high_loop, high_channel = build_channel(hover_trajectory(120.0), config=config)
        high_channel.start()
        high_loop.run_until(300.0)
        high = np.array([s.uplink_bps for s in high_channel.samples])
        # Dropout episodes (deep collapses) appear above 100 m only.
        low_fraction = np.mean(low < 0.12 * np.median(low))
        high_fraction = np.mean(high < 0.12 * np.median(high))
        assert high_fraction > low_fraction


class TestPreHandoverDip:
    def test_capacity_dips_before_handovers(self):
        loop, channel = build_channel(hover_trajectory(120.0), seed=11)
        channel.start()
        loop.run_until(400.0)
        events = channel.engine.events
        if not events:
            pytest.skip("no handovers this seed")
        samples = channel.samples
        times = np.array([s.time for s in samples])
        rates = np.array([s.uplink_bps for s in samples])
        median = np.median(rates)
        dips = 0
        for event in events:
            window = rates[(times >= event.time - 1.0) & (times < event.time)]
            if window.size and window.min() < 0.7 * median:
                dips += 1
        # Most handovers are preceded by a visible capacity dip.
        assert dips >= len(events) * 0.5


class TestDaps:
    def test_make_before_break_keeps_paths_up(self):
        ups = []

        class FakePath:
            def set_up(self, up):
                ups.append(up)

        config = ChannelConfig(
            propagation=PropagationConfig.urban(), make_before_break=True
        )
        loop, channel = build_channel(hover_trajectory(120.0), seed=11, config=config)
        channel.attach_path(FakePath())
        channel.start()
        loop.run_until(400.0)
        assert len(channel.engine.events) > 0
        assert ups == []  # never silenced


class TestHetInjection:
    def test_custom_het_sampler_via_config(self):
        config = ScenarioConfig(
            cc="static",
            environment="urban",
            duration=60.0,
            seed=11,
            extra={
                "het": HetSampler(
                    body_median=0.5, body_sigma=0.01,
                    outlier_prob_air=0.0, outlier_prob_ground=0.0,
                )
            },
        )
        result = run_session(config)
        if result.handovers:
            for event in result.handovers:
                assert event.execution_time == pytest.approx(0.5, rel=0.1)

    def test_custom_a3_via_config(self):
        # The channel never reads media state: at 100 kbps both handover
        # logs equal the 25 Mbps ones (29 and 3 handovers).
        base = ScenarioConfig(
            cc="static",
            environment="urban",
            duration=90.0,
            seed=11,
            static_bitrate=1e5,
            min_bitrate=1e5,
            max_bitrate=2e5,
        )
        loose = run_session(
            base.with_overrides(
                extra={"a3": A3Config(hysteresis_db=0.5, time_to_trigger=0.1)}
            )
        )
        strict = run_session(
            base.with_overrides(
                extra={"a3": A3Config(hysteresis_db=9.0, time_to_trigger=1.0)}
            )
        )
        assert len(loose.handovers) >= len(strict.handovers)


class TestEnvironmentContrast:
    def test_urban_sees_more_cells_than_rural(self):
        cells = {}
        for environment in ("urban", "rural"):
            config = ScenarioConfig(
                cc="static", environment=environment, duration=120.0, seed=8
            )
            streams = RngStreams(8)
            trajectory = build_trajectory(config, streams)
            loop, channel = build_channel(
                trajectory,
                environment=environment,
                seed=8,
                config=build_channel_config(config),
            )
            channel.start()
            loop.run_until(120.0)
            cells[environment] = len(channel.cells_seen)
        assert cells["urban"] >= cells["rural"]
