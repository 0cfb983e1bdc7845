"""The one channel tick: every channel ticks as a row of a tick batch.

A session or a single probe is a batch of one row, a fleet one row per
member and a probe sweep one row per seed (:mod:`repro.cellular.batch`).
These tests pin what the batch promises beyond bit-identity (which
``tests/test_fingerprints.py`` pins): a loud end of the horizon,
output that does not depend on the horizon, a plan streamed in blocks
equal to one built in one block, rows that must share one config, a
finished batch and its plan buffers freed without the cyclic GC,
A3 hints that miss only when something they read changed, a share
pass equal to the per-UE scheduler calls made row by row, and records
that hold Python scalars only.
"""

from __future__ import annotations

import dataclasses
import gc
import math
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import repro.cellular.batch as batch_module
import repro.core.fleet as fleet_module
from repro.cellular.batch import (
    build_tick_plans,
    install_fleet_plans,
    probe_tick_times,
    run_lockstep,
)
from repro.cellular.cell import (
    CellCapacityConfig,
    CellContention,
    _request_prbs,
    allocate_prbs,
    request_prbs_array,
)
from repro.cellular.channel import CellularChannel
from repro.cellular.handover import HandoverEngine
from repro.core.config import ScenarioConfig
from repro.core.fleet import FleetConfig, run_fleet
from repro.core.session import build_channel, build_session, run_session
from repro.net.simulator import EventLoop
from repro.util.rng import RngStreams

URBAN_AIR = ScenarioConfig(environment="urban", platform="air")


def channel_of(loop: EventLoop, config: ScenarioConfig) -> CellularChannel:
    """``config``'s channel, ticking to the config's duration."""
    return build_channel(loop, config, RngStreams(config.seed))


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
    channel = channel_of(loop, URBAN_AIR.with_overrides(seed=3, duration=5.0))
    channel.start()
    loop.run_until(5.0)
    assert len(channel.samples) == 51
    with pytest.raises(RuntimeError, match="tick plan exhausted"):
        loop.run_until(10.0)


def test_run_past_a_streamed_horizon_raises_plan_exhausted(monkeypatch):
    # One row of 32 urban cells in 10-tick blocks: 51 ticks, 6 blocks.
    monkeypatch.setattr(batch_module, "BLOCK_ELEMENTS", 32 * 10)
    loop = EventLoop()
    channel = channel_of(loop, URBAN_AIR.with_overrides(seed=3, duration=5.0))
    channel.start()
    loop.run_until(5.0)
    assert len(channel.samples) == 51
    with pytest.raises(RuntimeError, match="tick plan exhausted"):
        loop.run_until(10.0)


def plan_ticks(seeds: list[int], horizon: float) -> list[tuple]:
    """Every tick's RSRP and SNR rows and altitudes, as bytes, block by block."""
    loop = EventLoop()
    channels = [
        channel_of(loop, URBAN_AIR.with_overrides(seed=seed, duration=horizon))
        for seed in seeds
    ]
    times = probe_tick_times(horizon, 0.0)
    plan = build_tick_plans(channels, times)
    ticks = []
    while True:
        for j in range(plan.hi - plan.lo):
            ticks.append((
                plan.rsrp[:, j].tobytes(),
                plan.snr_db[:, j].tobytes(),
                np.array(plan.altitudes[j]).tobytes(),
            ))
        if plan.hi == len(times):
            return ticks
        plan.next_block()


@given(block=st.integers(1, 41))
@example(block=1)
@example(block=40)
@settings(max_examples=25, deadline=None)
def test_streamed_plan_equals_one_block_byte_for_byte(block):
    seeds = [3, 4, 5]
    horizon = 4.0  # 41 ticks
    whole = plan_ticks(seeds, horizon)
    with pytest.MonkeyPatch.context() as patch:
        # Three rows of 32 urban cells, ``block`` ticks per block.
        patch.setattr(batch_module, "BLOCK_ELEMENTS", len(seeds) * 32 * block)
        streamed = plan_ticks(seeds, horizon)
    assert len(whole) == len(streamed) == 41
    assert streamed == whole


def test_samples_do_not_depend_on_the_horizon():
    config = URBAN_AIR.with_overrides(seed=5)
    runs = []
    for horizon in (60.0, 120.0):
        loop = EventLoop()
        channel = channel_of(loop, config.with_overrides(duration=horizon))
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
        channel_of(loop, URBAN_AIR.with_overrides(seed=1, duration=10.0)),
        channel_of(
            loop,
            URBAN_AIR.with_overrides(
                seed=2, duration=10.0, extra={"make_before_break": True}
            ),
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
        channel_of(loop, URBAN_AIR.with_overrides(seed=seed, duration=duration))
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


def test_finished_session_and_fleet_planes_are_freed_by_reference_counting(
    monkeypatch,
):
    # A finished session's channel sits in reference cycles (the rate
    # callbacks it hands its links), so only the cyclic GC frees it;
    # the buffers its plan streams its blocks through must not wait
    # for that. One row of 32 urban cells takes 10-tick blocks and the
    # 4-member fleet 2-tick ones, so both stream their 31 ticks.
    monkeypatch.setattr(batch_module, "BLOCK_ELEMENTS", 32 * 10)
    planes = []

    def recording(channels, duration):
        state = install_fleet_plans(channels, duration)
        planes.extend(weakref.ref(plane) for plane in state.plan.buffers)
        return state

    monkeypatch.setattr(fleet_module, "install_fleet_plans", recording)
    config = ScenarioConfig(
        cc="gcc", environment="urban", platform="air", seed=3, duration=3.0
    )
    gc.collect()
    gc.disable()
    try:
        loop = EventLoop()
        handles = build_session(loop, config)
        handles.start()
        plan = handles.channel._batch.plan
        assert plan.hi < 31
        planes.extend(weakref.ref(plane) for plane in plan.buffers)
        del plan
        loop.run_until(config.duration)
        handles.stop()
        handles.finish(loop.now)
        handles.collect()
        run_fleet(FleetConfig(base=config, num_sessions=4, spread_radius=50.0))
        assert len(planes) == 4
        assert [ref() is None for ref in planes] == [True] * len(planes)
    finally:
        gc.enable()


# ----------------------------------------------------------------------
# the share pass against the per-UE scheduler calls
# ----------------------------------------------------------------------
RATES = st.one_of(st.just(0.0), st.floats(1e4, 6e7))


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_tick_shares_equal_row_by_row_reference(data):
    n_cells = data.draw(st.integers(2, 4), label="n_cells")
    n_ues = data.draw(st.integers(2, 12), label="n_ues")
    config = CellCapacityConfig(
        max_sessions=data.draw(st.integers(1, 4), label="max_sessions"),
        lb_step_db=data.draw(st.sampled_from([0.0, 2.0]), label="lb_step_db"),
    )
    # UE ids in shuffled order: rosters sort by id, rows run by slot.
    ue_ids = data.draw(st.permutations(range(n_ues)), label="ue_ids")
    demand = st.one_of(st.none(), st.floats(1e4, 5e7))
    demands = [
        (data.draw(demand, label="ul"), data.draw(demand, label="dl"))
        for _ in range(n_ues)
    ]
    kernel = CellContention(n_cells, config)
    reference = CellContention(n_cells, config)
    for ue, (ul, dl) in zip(ue_ids, demands):
        for contention in (kernel, reference):
            contention.register(ue, demand_ul_bps=ul, demand_dl_bps=dl)
    slots = list(range(n_ues))
    budgets = (config.num_prb_ul, config.num_prb_dl)
    requests = [list(budgets) for _ in slots]  # the test's own model
    cells = [-1] * n_ues
    for _ in range(data.draw(st.integers(1, 5), label="ticks")):
        new_cells = data.draw(
            st.lists(
                st.integers(0, n_cells - 1), min_size=n_ues, max_size=n_ues
            ),
            label="cells",
        )
        unc = data.draw(
            st.lists(st.tuples(RATES, RATES), min_size=n_ues, max_size=n_ues),
            label="rates",
        )
        moved = [row for row in slots if new_cells[row] != cells[row]]
        expected: list[tuple[float, float]] = []
        for row, ue in zip(slots, ue_ids):
            if new_cells[row] != cells[row]:
                kernel.count_move(kernel._cells[row], new_cells[row])
            reference.attach(ue, new_cells[row])
            assert kernel._rank_version == reference._rank_version
            reference.update_rates(ue, *unc[row])
            share = reference.shares(ue)
            # Independent of the scheduler's bookkeeping: split the
            # budget over the cell's members as of this row.
            dem = [math.nan if d is None else d for d in demands[row]]
            requests[row] = [
                _request_prbs(dem[d], unc[row][d], budgets[d]) for d in (0, 1)
            ]
            members = sorted(
                (
                    s for s in slots
                    if (new_cells[s] if s <= row else cells[s]) == new_cells[row]
                ),
                key=lambda s: ue_ids[s],
            )
            if len(members) == 1:
                assert share == (1.0, 1.0)
            else:
                index = members.index(row)
                assert share == tuple(
                    allocate_prbs([requests[s][d] for s in members], budgets[d])[
                        index
                    ] / budgets[d]
                    for d in (0, 1)
                )
            expected.append(share)
        unc_ul, unc_dl = (list(column) for column in zip(*unc))
        share_ul, share_dl = kernel.tick_shares(
            slots, np.array(slots), new_cells, moved, unc_ul, unc_dl
        )
        assert list(zip(share_ul, share_dl)) == expected
        assert kernel._req_ul == reference._req_ul == [r[0] for r in requests]
        assert kernel._req_dl == reference._req_dl == [r[1] for r in requests]
        assert np.array_equal(kernel._req, reference._req)
        assert kernel._cells == reference._cells == new_cells
        assert kernel._rosters == reference._rosters
        assert kernel._counts_py == reference._counts_py
        assert np.array_equal(kernel._offsets, reference._offsets)
        assert np.array_equal(kernel._at_cap, reference._at_cap)
        assert kernel._rank_version == reference._rank_version
        assert kernel.peak_attached == reference.peak_attached
        cells = new_cells


@given(
    demand=st.one_of(st.just(math.nan), st.floats(-1e3, 1e9)),
    unc=st.one_of(st.sampled_from([0.0, -1.0, -5e6]), st.floats(1e-3, 1e9)),
    budget=st.integers(1, 200),
)
@example(demand=1e6, unc=1e6, budget=100)  # quotient exactly the budget
@example(demand=1e6 + 1.0, unc=1e6, budget=100)  # just above it
@example(demand=1e6 - 1.0, unc=1e6, budget=100)  # just below it
@example(demand=0.0, unc=1e6, budget=100)  # asks for nothing: one PRB
@example(demand=5e6, unc=-0.0, budget=50)
@settings(max_examples=300, deadline=None)
def test_request_prbs_array_matches_scalar(demand, unc, budget):
    got = request_prbs_array(np.array([demand]), np.array([unc]), budget)
    assert got.tolist() == [_request_prbs(demand, unc, budget)]


def test_request_prbs_array_takes_a_budget_per_direction():
    demand = np.array([[2e6, math.nan, 1e5], [math.nan, 3e6, 1e9]])
    unc = np.array([[1e7, 1e7, 0.0], [5e7, 1e6, 1e6]])
    budgets = np.array([[100], [25]])
    got = request_prbs_array(demand, unc, budgets)
    assert got.dtype == np.int64
    assert got.tolist() == [
        [_request_prbs(d, u, b) for d, u in zip(drow, urow)]
        for drow, urow, b in zip(demand.tolist(), unc.tolist(), (100, 25))
    ]


# ----------------------------------------------------------------------
# records hold Python scalars only
# ----------------------------------------------------------------------
def assert_python_scalars(records) -> None:
    for record in records:
        for field in dataclasses.fields(record):
            value = getattr(record, field.name)
            assert type(value) in (float, int, bool), (record, field.name)


def test_records_hold_python_scalars_only():
    fleet = run_fleet(
        FleetConfig(
            base=ScenarioConfig(
                cc="static", environment="rural", platform="air", seed=3,
                duration=10.0,
            ),
            num_sessions=6,
            spread_radius=30.0,
            cell_capacity=CellCapacityConfig(max_sessions=2),
        )
    )
    samples = [s for session in fleet.sessions for s in session.capacity_samples]
    assert any(s.uplink_share < 1.0 for s in samples)  # really contended
    assert all(type(t) is float for t in fleet.congestion_time)
    assert any(t > 0.0 for t in fleet.congestion_time)
    loop = EventLoop()
    probes = [
        channel_of(loop, URBAN_AIR.with_overrides(seed=seed, duration=60.0))
        for seed in range(3, 11)
    ]
    run_lockstep(probes, 60.0)
    session = run_session(URBAN_AIR.with_overrides(cc="gcc", seed=2, duration=10.0))
    runs = [
        (s.capacity_samples, s.rssi_log, s.handovers)
        for s in [*fleet.sessions, session]
    ] + [(ch.samples, ch.rssi_log, ch.engine.events) for ch in probes]
    assert any(handovers for _, _, handovers in runs)
    for capacity, rssi, handovers in runs:
        assert capacity and rssi
        assert_python_scalars(capacity)
        assert_python_scalars(rssi)
        assert_python_scalars(handovers)
