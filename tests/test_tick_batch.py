"""The one channel tick: every channel ticks as a row of a tick batch.

A session or a single probe is a batch of one row, a fleet one row per
member and a probe sweep one row per seed (:mod:`repro.cellular.batch`).
These tests pin what the batch promises beyond bit-identity (which
``tests/test_fingerprints.py`` pins): a loud end of the horizon,
output that does not depend on the horizon, rows that must share one
config, a finished batch freed without the cyclic GC, and A3 hints
that miss only when something they read changed.
"""

from __future__ import annotations

import gc
import weakref

import pytest

from repro.cellular.batch import run_lockstep
from repro.cellular.cell import CellCapacityConfig
from repro.cellular.channel import CellularChannel
from repro.cellular.handover import HandoverEngine
from repro.cellular.operators import get_profile
from repro.core.config import ScenarioConfig
from repro.core.fleet import FleetConfig, run_fleet
from repro.core.session import build_channel_config, build_trajectory
from repro.net.simulator import EventLoop
from repro.util.rng import RngStreams

URBAN_AIR = ScenarioConfig(environment="urban", platform="air")


def build_channel(
    config: ScenarioConfig, loop: EventLoop, *, horizon: float
) -> CellularChannel:
    streams = RngStreams(config.seed)
    profile = get_profile(config.operator, config.environment.value)
    return CellularChannel(
        loop,
        profile.build_layout(streams.derive("layout")),
        profile,
        build_trajectory(config, streams),
        streams.child("channel"),
        config=build_channel_config(config),
        horizon=horizon,
    )


def sample_log(channel: CellularChannel) -> list[tuple]:
    return [
        (
            s.time, s.uplink_bps, s.downlink_bps, s.serving_cell,
            s.rsrp_dbm, s.sinr_db, s.altitude, s.in_handover, s.uplink_share,
        )
        for s in channel.samples
    ]


def test_run_past_the_horizon_raises_plan_exhausted():
    loop = EventLoop()
    channel = build_channel(URBAN_AIR.with_overrides(seed=3), loop, horizon=5.0)
    channel.start()
    loop.run_until(5.0)
    assert len(channel.samples) == 51
    with pytest.raises(RuntimeError, match="tick plan exhausted"):
        loop.run_until(10.0)


def test_samples_do_not_depend_on_the_horizon():
    config = URBAN_AIR.with_overrides(seed=5)
    runs = []
    for horizon in (60.0, 120.0):
        loop = EventLoop()
        channel = build_channel(config, loop, horizon=horizon)
        channel.start()
        loop.run_until(60.0)
        runs.append(channel)
    short, long = runs
    assert short.engine.events  # the run hands over at least once
    assert sample_log(short) == sample_log(long)
    assert short.rssi_log == long.rssi_log
    assert short.engine.events == long.engine.events


def test_batch_rejects_rows_with_different_channel_configs():
    loop = EventLoop()
    channels = [
        build_channel(URBAN_AIR.with_overrides(seed=1), loop, horizon=10.0),
        build_channel(
            URBAN_AIR.with_overrides(seed=2, extra={"make_before_break": True}),
            loop,
            horizon=10.0,
        ),
    ]
    with pytest.raises(ValueError, match="ChannelConfig"):
        run_lockstep(channels, 10.0)


def test_finished_lockstep_batch_is_freed_by_reference_counting():
    # Seed 413 hands over at t = 300.0, so its path-restore event is
    # still pending on the loop when the run ends.
    duration = 300.0
    loop = EventLoop()
    channels = [
        build_channel(
            URBAN_AIR.with_overrides(seed=seed, duration=duration),
            loop,
            horizon=duration,
        )
        for seed in range(407, 415)
    ]
    refs = [weakref.ref(channel) for channel in channels]
    gc.collect()
    gc.disable()
    try:
        run_lockstep(channels, duration)
        assert any(
            event.time + event.execution_time > duration
            for channel in channels
            for event in channel.engine.events
        )
        del channels
        assert [ref() for ref in refs] == [None] * len(refs)
    finally:
        gc.enable()


def test_uncapped_fleet_without_load_balancing_misses_hints_only_at_tick_zero(
    monkeypatch,
):
    # The golden dense shape: with lb_step_db=0 an attach changes no
    # offset value (0.0 vs -0.0) and, below the cap, not the at-cap set,
    # so the batch's A3 hint stays valid on every tick after tick 0.
    config = FleetConfig(
        base=ScenarioConfig(
            cc="static",
            environment="urban",
            platform="air",
            operator="P1",
            seed=7,
            duration=20.0,
            static_bitrate=1e4,
            min_bitrate=1e4,
            max_bitrate=2e4,
            fps=0.5,
        ),
        num_sessions=64,
        spread_radius=25.0,
        cell_capacity=CellCapacityConfig(max_sessions=64, lb_step_db=0.0),
    )
    calls = {"hinted": 0, "unhinted": 0}
    measure_prefiltered = HandoverEngine.measure_prefiltered

    def counting(self, now, filtered, *, hint=None, **kwargs):
        calls["unhinted" if hint is None else "hinted"] += 1
        return measure_prefiltered(self, now, filtered, hint=hint, **kwargs)

    monkeypatch.setattr(HandoverEngine, "measure_prefiltered", counting)
    result = run_fleet(config)
    assert result.max_sessions_per_cell < 64
    assert calls["hinted"] > 0
    assert calls["unhinted"] == config.num_sessions
