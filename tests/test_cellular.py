"""Tests for the cellular substrate: layout, propagation, handover, channel."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cellular import (
    A3Config,
    Cell,
    CellLayout,
    CellularChannel,
    ChannelConfig,
    HandoverEngine,
    HetSampler,
    HET_SUCCESS_THRESHOLD,
    PropagationConfig,
    ShadowingProcess,
    antenna_gain_db,
    get_profile,
    grid_layout,
    path_loss_db,
    rsrp_dbm,
)
from repro.cellular.propagation import antenna_gain_db_array, path_loss_db_array
from repro.flight.trajectory import Position, paper_flight_trajectory
from repro.net.simulator import EventLoop
from repro.util.rng import RngStreams


def rng(label="cell"):
    return RngStreams(3).derive(label)


class TestLayout:
    def test_grid_layout_site_count(self):
        layout = grid_layout(num_sites=9, area_radius=1000, rng=rng(), sectors_per_site=2)
        assert len(layout) == 18

    def test_cell_ids_unique(self):
        layout = grid_layout(num_sites=16, area_radius=1000, rng=rng())
        ids = [c.cell_id for c in layout.cells]
        assert len(set(ids)) == len(ids)

    def test_exclusion_radius_respected(self):
        layout = grid_layout(
            num_sites=16, area_radius=1000, rng=rng(), exclusion_radius=400.0
        )
        for cell in layout.cells:
            assert math.hypot(cell.x, cell.y) >= 399.0

    def test_duplicate_ids_rejected(self):
        cell = Cell(cell_id=1, x=0, y=0, height=30)
        with pytest.raises(ValueError):
            CellLayout(cells=[cell, cell])

    def test_empty_layout_rejected(self):
        with pytest.raises(ValueError):
            CellLayout(cells=[])

    def test_cell_by_id(self):
        layout = grid_layout(num_sites=4, area_radius=500, rng=rng())
        assert layout.cell_by_id(3).cell_id == 3
        with pytest.raises(KeyError):
            layout.cell_by_id(999)


class TestPropagation:
    def test_path_loss_increases_with_distance(self):
        config = PropagationConfig.urban()
        losses = [path_loss_db(d, 1.5, config) for d in (50, 200, 800, 3000)]
        assert losses == sorted(losses)

    def test_air_exponent_below_ground(self):
        config = PropagationConfig.urban()
        # Same distance, less loss at altitude (near free space).
        assert path_loss_db(1000, 120.0, config) < path_loss_db(1000, 1.5, config)

    def test_dual_slope_continuous_at_breakpoint(self):
        config = PropagationConfig.urban()
        below = path_loss_db(config.break_distance - 0.01, 1.5, config)
        above = path_loss_db(config.break_distance + 0.01, 1.5, config)
        assert abs(above - below) < 0.1

    def test_ground_user_in_main_lobe(self):
        config = PropagationConfig()
        cell = Cell(cell_id=0, x=0, y=0, height=30)
        ue = Position(300.0, 0.0, 1.5)
        gain = antenna_gain_db(ue, cell, config)
        assert gain > config.antenna_gain_max_db - 6.0

    def test_aerial_user_in_side_lobes(self):
        config = PropagationConfig()
        cell = Cell(cell_id=0, x=0, y=0, height=30)
        ue = Position(200.0, 0.0, 120.0)  # high elevation angle
        gain = antenna_gain_db(ue, cell, config)
        assert gain < config.antenna_gain_max_db - 10.0

    def test_rsrp_composition(self):
        config = PropagationConfig()
        cell = Cell(cell_id=0, x=0, y=0, height=30, tx_power_dbm=46.0)
        ue = Position(300.0, 0.0, 1.5)
        value = rsrp_dbm(ue, cell, shadow_db=0.0, config=config)
        expected = (
            46.0
            - path_loss_db(ue.distance_to(cell.position()), 1.5, config)
            + antenna_gain_db(ue, cell, config)
        )
        assert value == pytest.approx(expected)

    def test_shadowing_is_temporally_correlated(self):
        config = PropagationConfig()
        process = ShadowingProcess(4, config, rng("sh"))
        first = process.sample(0.0, 1.5).copy()
        soon = process.sample(0.1, 1.5).copy()
        later = process.sample(100.0, 1.5).copy()
        assert np.abs(soon - first).mean() < np.abs(later - first).mean() + 3.0
        assert np.abs(soon - first).mean() < 1.0

    def test_shadowing_std_scales_with_altitude(self):
        config = PropagationConfig(shadow_std_ground_db=6.0, shadow_std_air_db=2.0)
        process = ShadowingProcess(500, config, rng("sh2"))
        ground = process.sample(0.0, 0.0)
        air = process.sample(0.0, 120.0)
        assert np.std(air) < np.std(ground)


class TestVectorizedPropagation:
    """The array kernels behind the channel's precomputed geometry
    must agree with the scalar reference functions they replaced."""

    def _grid(self):
        layout = grid_layout(num_sites=6, area_radius=1500, rng=rng("vec"))
        # Span ground and air, below and above the breakpoint.
        positions = [
            Position(30.0, -20.0, 1.5),
            Position(250.0, 400.0, 40.0),
            Position(-900.0, 1200.0, 120.0),
            Position(2500.0, -1800.0, 80.0),
        ]
        return layout, positions

    def test_path_loss_array_matches_scalar(self):
        config = PropagationConfig.urban()
        layout, positions = self._grid()
        distances = np.array(
            [[p.distance_to(c.position()) for c in layout.cells] for p in positions]
        )
        altitudes = np.array([[p.altitude] for p in positions])
        grid = path_loss_db_array(distances, altitudes, config)
        assert grid.shape == (len(positions), len(layout))
        for i, p in enumerate(positions):
            for j, cell in enumerate(layout.cells):
                scalar = path_loss_db(p.distance_to(cell.position()), p.altitude, config)
                assert grid[i, j] == pytest.approx(scalar, rel=1e-12, abs=1e-9)

    def test_antenna_gain_array_matches_scalar(self):
        config = PropagationConfig()
        layout, positions = self._grid()
        horizontal = np.array(
            [
                [p.horizontal_distance_to(c.position()) for c in layout.cells]
                for p in positions
            ]
        )
        dz = np.array(
            [[p.altitude - c.height for c in layout.cells] for p in positions]
        )
        cell_ids = np.array([c.cell_id for c in layout.cells], dtype=float)
        downtilts = np.array([c.downtilt_deg for c in layout.cells])
        grid = antenna_gain_db_array(horizontal, dz, cell_ids, downtilts, config)
        for i, p in enumerate(positions):
            for j, cell in enumerate(layout.cells):
                scalar = antenna_gain_db(p, cell, config)
                assert grid[i, j] == pytest.approx(scalar, rel=1e-12, abs=1e-9)


class TestHetSampler:
    def test_body_below_success_threshold(self):
        sampler = HetSampler()
        generator = rng("het")
        values = [sampler.sample(generator, airborne=False) for _ in range(2000)]
        assert np.median(values) < HET_SUCCESS_THRESHOLD

    def test_air_has_heavier_tail(self):
        sampler = HetSampler()
        generator = rng("het2")
        air = [sampler.sample(generator, airborne=True) for _ in range(5000)]
        ground = [sampler.sample(generator, airborne=False) for _ in range(5000)]
        assert np.percentile(air, 99) > np.percentile(ground, 99)

    def test_samples_bounded(self):
        sampler = HetSampler(max_het=4.0)
        generator = rng("het3")
        values = [sampler.sample(generator, airborne=True) for _ in range(5000)]
        assert max(values) <= 4.0
        assert min(values) >= 0.005


class TestHandoverEngine:
    def make_engine(self, num_cells=3, **a3):
        config = A3Config(**a3) if a3 else A3Config()
        return HandoverEngine(num_cells, rng("ho"), config=config)

    def run_measurements(self, engine, series, period=0.1):
        events = []
        for i, rsrp in enumerate(series):
            event = engine.measure(i * period, np.asarray(rsrp, dtype=float))
            if event is not None:
                events.append(event)
        return events

    def test_initial_serving_is_strongest(self):
        engine = self.make_engine()
        engine.measure(0.0, np.array([-80.0, -60.0, -90.0]))
        assert engine.serving_cell == 1

    def test_handover_after_ttt(self):
        engine = self.make_engine(time_to_trigger=0.256, hysteresis_db=3.0)
        series = [[-60.0, -90.0, -90.0]] * 3 + [[-75.0, -60.0, -90.0]] * 10
        events = self.run_measurements(engine, series)
        assert len(events) == 1
        assert events[0].source_cell == 0
        assert events[0].target_cell == 1

    def test_no_handover_below_hysteresis(self):
        engine = self.make_engine(hysteresis_db=3.0)
        series = [[-60.0, -90.0, -90.0]] * 3 + [[-60.0, -58.0, -90.0]] * 20
        events = self.run_measurements(engine, series)
        assert events == []

    def test_short_excursion_does_not_trigger(self):
        engine = self.make_engine(time_to_trigger=0.5)
        series = (
            [[-60.0, -90.0, -90.0]] * 3
            + [[-80.0, -60.0, -90.0]] * 2  # 0.2 s < TTT
            + [[-60.0, -90.0, -90.0]] * 20
        )
        events = self.run_measurements(engine, series)
        assert events == []

    def test_prohibit_time_blocks_immediate_reversal(self):
        engine = self.make_engine(prohibit_time=2.0, time_to_trigger=0.2)
        series = [[-60.0, -90.0]] * 3 + [[-90.0, -60.0]] * 5 + [[-60.0, -90.0]] * 10
        events = self.run_measurements(engine, series)
        assert len(events) == 1  # the reversal is suppressed

    def test_ping_pong_counted(self):
        engine = self.make_engine(prohibit_time=0.0, time_to_trigger=0.2)
        series = (
            [[-60.0, -90.0]] * 3
            + [[-90.0, -60.0]] * 5
            + [[-60.0, -90.0]] * 5
        )
        events = self.run_measurements(engine, series)
        assert len(events) == 2
        assert engine.ping_pong_count() == 1

    def test_in_handover_blocks_measurements(self):
        engine = self.make_engine(time_to_trigger=0.2)
        engine.het_sampler = HetSampler(
            body_median=1.0, body_sigma=0.01, outlier_prob_air=0.0,
            outlier_prob_ground=0.0,
        )
        series = [[-60.0, -90.0]] * 3 + [[-90.0, -60.0]] * 5
        events = self.run_measurements(engine, series)
        assert len(events) == 1
        assert engine.in_handover


class TestHandoverEdgeCases:
    """Edge cases pinned by the fleet-contention PR: degenerate
    layouts, prohibit-window candidate state and ping-pong windows."""

    def make_engine(self, num_cells=3, **a3):
        config = A3Config(**a3) if a3 else A3Config()
        return HandoverEngine(num_cells, rng("ho-edge"), config=config)

    def test_single_cell_layout_never_triggers_a3(self):
        engine = self.make_engine(num_cells=1)
        for i in range(100):
            # Wild RSRP swings on the only cell must never produce A3.
            level = -60.0 if i % 2 else -110.0
            assert engine.measure(i * 0.1, np.array([level])) is None
        assert engine.events == []
        assert engine.serving_cell == 0
        assert engine._a3_since is None

    def test_margin_before_first_measurement_is_minus_inf(self):
        engine = self.make_engine()
        assert engine._filtered is None
        assert engine._a3_candidate is None

    def test_single_cell_margin_is_minus_inf(self):
        engine = self.make_engine(num_cells=1)
        engine.measure(0.0, np.array([-70.0]))
        # The only cell is masked out of the ranking: no neighbour can
        # ever lead it, however far its RSRP moves.
        assert engine.measure(0.1, np.array([-140.0])) is None
        assert engine._a3_candidate is None

    def test_prohibit_window_resets_a3_candidate(self):
        engine = self.make_engine(
            num_cells=2, prohibit_time=2.0, time_to_trigger=0.2
        )
        engine.het_sampler = HetSampler(
            body_median=0.02, body_sigma=0.01, outlier_prob_air=0.0,
            outlier_prob_ground=0.0,
        )
        now = 0.0
        for _ in range(3):
            engine.measure(now, np.array([-60.0, -90.0]))
            now += 0.1
        # Strong neighbour -> handover 0 -> 1.
        event = None
        while event is None:
            event = engine.measure(now, np.array([-90.0, -60.0]))
            now += 0.1
        assert event.target_cell == 1
        # Source turns strong again immediately: the prohibit window
        # must swallow the A3 state, not just delay its execution.
        while now < event.time + event.execution_time + 2.0:
            assert engine.measure(now, np.array([-60.0, -90.0])) is None
            assert engine._a3_since is None
            now += 0.1
        # After the window the condition must re-arm from scratch:
        # a fresh TTT (0.2 s) has to elapse before the reversal fires.
        reversal_start = now
        reversal = None
        while reversal is None:
            reversal = engine.measure(now, np.array([-60.0, -90.0]))
            now += 0.1
        assert reversal.target_cell == 0
        assert reversal.time - reversal_start >= engine.config.time_to_trigger

    def test_ping_pong_window_runs_from_completion(self):
        from repro.cellular.handover import HandoverEvent

        engine = self.make_engine(num_cells=2)
        # Return at t=7.5: 7.5 s after the *trigger*, but only 4.5 s
        # after the first handover *completed* (3 s HET) -> ping-pong.
        engine.events = [
            HandoverEvent(0.0, source_cell=0, target_cell=1,
                          execution_time=3.0),
            HandoverEvent(7.5, source_cell=1, target_cell=0,
                          execution_time=0.03),
        ]
        assert engine.ping_pong_count(window=5.0) == 1

    def test_ping_pong_window_still_bounded(self):
        from repro.cellular.handover import HandoverEvent

        engine = self.make_engine(num_cells=2)
        engine.events = [
            HandoverEvent(0.0, source_cell=0, target_cell=1,
                          execution_time=3.0),
            HandoverEvent(8.2, source_cell=1, target_cell=0,
                          execution_time=0.03),
        ]
        # 5.2 s after completion: outside the window.
        assert engine.ping_pong_count(window=5.0) == 0

    def test_ping_pong_requires_return_to_source(self):
        from repro.cellular.handover import HandoverEvent

        engine = self.make_engine(num_cells=3)
        engine.events = [
            HandoverEvent(0.0, source_cell=0, target_cell=1,
                          execution_time=0.03),
            HandoverEvent(1.0, source_cell=1, target_cell=2,
                          execution_time=0.03),
        ]
        assert engine.ping_pong_count(window=5.0) == 0

    def test_blocked_neighbour_is_never_selected(self):
        engine = self.make_engine(num_cells=2, time_to_trigger=0.2)
        no_offsets = np.zeros(2)
        engine.measure_prefiltered(
            0.0, np.array([-60.0, -90.0]), altitude=0.0,
            offsets=no_offsets, blocked=(1,),
        )
        for i in range(1, 50):
            event = engine.measure_prefiltered(
                i * 0.1, np.array([-90.0, -60.0]), altitude=0.0,
                offsets=no_offsets, blocked=(1,),
            )
            assert event is None  # only neighbour is full -> stay
            assert engine._a3_since is None
        assert engine.serving_cell == 0

    def test_negative_offset_sheds_crowded_serving_cell(self):
        engine = self.make_engine(
            num_cells=2, time_to_trigger=0.2, hysteresis_db=3.0
        )
        filtered = np.array([-60.0, -62.0])  # neighbour 2 dB weaker: no A3
        engine.measure_prefiltered(
            0.0, filtered, altitude=0.0, offsets=np.zeros(2)
        )
        assert engine.serving_cell == 0
        offsets = np.array([-6.0, 0.0])  # serving cell crowded
        events = []
        for i in range(1, 30):
            event = engine.measure_prefiltered(
                i * 0.1, filtered, altitude=0.0, offsets=offsets
            )
            if event is not None:
                events.append(event)
        assert len(events) == 1
        assert events[0].target_cell == 1


class TestCellularChannel:
    def build(self, environment="urban", platform_altitude=True, seed=4):
        streams = RngStreams(seed)
        profile = get_profile("P1", environment)
        layout = profile.build_layout(streams.derive("layout"))
        trajectory = paper_flight_trajectory()
        loop = EventLoop()
        channel = CellularChannel(
            loop, layout, profile, trajectory, streams.child("ch"),
            config=ChannelConfig(
                propagation=PropagationConfig.urban()
                if environment == "urban"
                else PropagationConfig.rural()
            ),
            horizon=300.0,
        )
        return loop, channel

    def test_capacity_positive_and_capped(self):
        loop, channel = self.build()
        channel.start()
        loop.run_until(60.0)
        rates = [s.uplink_bps for s in channel.samples]
        assert all(r > 0 for r in rates)
        assert max(rates) <= channel.profile.uplink_plan_cap

    def test_samples_at_measurement_period(self):
        loop, channel = self.build()
        channel.start()
        loop.run_until(10.0)
        assert len(channel.samples) == pytest.approx(100, abs=2)

    def test_rssi_reported_at_one_hz(self):
        loop, channel = self.build()
        channel.start()
        loop.run_until(30.0)
        assert len(channel.rssi_log) == pytest.approx(30, abs=2)

    def test_handover_outage_silences_paths(self):
        loop, channel = self.build()
        ups = []

        class FakePath:
            def set_up(self, up):
                ups.append(up)

        channel.attach_path(FakePath())
        channel.start()
        loop.run_until(300.0)
        if channel.engine.events:
            assert False in ups and True in ups
            assert ups.count(False) == ups.count(True)

    def test_double_start_rejected(self):
        loop, channel = self.build()
        channel.start()
        with pytest.raises(RuntimeError):
            channel.start()

    def test_urban_capacity_exceeds_rural(self):
        loop_u, urban = self.build("urban")
        urban.start()
        loop_u.run_until(120.0)
        loop_r, rural = self.build("rural")
        rural.start()
        loop_r.run_until(120.0)
        mean_urban = np.mean([s.uplink_bps for s in urban.samples])
        mean_rural = np.mean([s.uplink_bps for s in rural.samples])
        assert mean_urban > 1.5 * mean_rural


class TestOperatorProfiles:
    def test_known_profiles(self):
        for operator in ("P1", "P2"):
            for environment in ("urban", "rural"):
                profile = get_profile(operator, environment)
                assert profile.name == operator

    def test_unknown_profile_rejected(self):
        with pytest.raises(KeyError):
            get_profile("P3", "urban")

    def test_p2_rural_denser_than_p1(self):
        assert get_profile("P2", "rural").sites > get_profile("P1", "rural").sites

    @given(st.integers(1, 30))
    @settings(max_examples=10, deadline=None)
    def test_layout_size_matches_profile(self, sites):
        layout = grid_layout(num_sites=sites, area_radius=1000, rng=rng("g"))
        assert len(layout) == 2 * sites
