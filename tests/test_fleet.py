"""Tests for shared-cell fleet contention: PRB scheduler, multi-session
engine, N=1 bit-identity and the QoE-vs-density experiment."""

import math

import numpy as np
import pytest

from repro.cellular.cell import (
    CellCapacityConfig,
    CellContention,
    allocate_prbs,
    allocate_prbs_array,
    fleet_demand_bps,
    merge_occupancy,
    normalize_cell_map,
)
from repro.core.config import ScenarioConfig
from repro.core.fleet import FleetConfig, FleetResult, _ring_offset, run_fleet
from repro.core.session import build_session, run_session
from repro.experiments import ExperimentSettings
from repro.experiments.fleet import fleet_unit, run_fleet_density
from repro.net.simulator import EventLoop
from repro.obs import Recorder
from repro.obs.attribute import CELL_CONGESTION, causes_from_trace
from repro.runner import WORK_FLEET, CampaignRunner, execute_unit

BASE = ScenarioConfig(
    cc="gcc", environment="urban", platform="air", operator="P1",
    seed=7, duration=30.0,
)


# ----------------------------------------------------------------------
# PRB allocator
# ----------------------------------------------------------------------
class TestAllocatePrbs:
    def test_single_requester_gets_whole_budget(self):
        assert allocate_prbs([13], 100) == [100]

    def test_sum_never_exceeds_budget(self):
        for requests in ([1, 1, 1], [100, 100], [7, 13, 29, 100], [3]):
            for budget in (1, 7, 100):
                allocation = allocate_prbs(requests, budget)
                assert sum(allocation) == budget
                assert all(0 <= a <= budget for a in allocation)

    def test_proportional_split(self):
        assert allocate_prbs([50, 50], 100) == [50, 50]
        assert allocate_prbs([75, 25], 100) == [75, 25]

    def test_largest_remainder_redistributes_exactly(self):
        allocation = allocate_prbs([1, 1, 1], 100)
        assert sum(allocation) == 100
        assert sorted(allocation) == [33, 33, 34]

    def test_deterministic_tie_break(self):
        assert allocate_prbs([1, 1], 3) == allocate_prbs([1, 1], 3)
        assert allocate_prbs([1, 1], 3) == [2, 1]

    def test_zero_and_empty_requests(self):
        assert allocate_prbs([], 100) == []
        assert allocate_prbs([0, 0], 100) == [0, 0]

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            allocate_prbs([-1], 100)
        with pytest.raises(ValueError):
            allocate_prbs([1], -5)

    def test_zero_budget(self):
        assert allocate_prbs([5, 7], 0) == [0, 0]
        assert allocate_prbs_array(np.array([5, 7]), 0).tolist() == [0, 0]

    def test_sum_exactly_budget_under_large_n(self):
        rng = np.random.default_rng(11)
        for n in (50, 257, 1000):
            requests = rng.integers(0, 100, size=n).tolist()
            if sum(requests) == 0:
                continue
            allocation = allocate_prbs(requests, 100)
            assert sum(allocation) == 100
            assert all(a >= 0 for a in allocation)

    def test_array_allocator_matches_scalar_elementwise(self):
        # Promised in the allocate_prbs_array docstring: bit-identical
        # allocations under large random request vectors, including
        # remainder ties.
        rng = np.random.default_rng(42)
        for _ in range(25):
            n = int(rng.integers(1, 300))
            budget = int(rng.integers(1, 200))
            requests = rng.integers(0, 8, size=n)
            array = allocate_prbs_array(requests, budget)
            scalar = allocate_prbs(requests.tolist(), budget)
            assert array.tolist() == scalar


# ----------------------------------------------------------------------
# fleet ring placement
# ----------------------------------------------------------------------
class TestRingOffset:
    def test_member_zero_flies_the_base_route(self):
        assert _ring_offset(0, 8, 50.0) == (0.0, 0.0)

    def test_degenerate_rings_collapse_to_origin(self):
        # N=1 (count <= 1) and radius 0 both place everyone on the
        # base route — the N=1 bit-identity to run_session depends on
        # no TranslatedTrajectory wrapper being installed.
        assert _ring_offset(1, 1, 50.0) == (0.0, 0.0)
        assert _ring_offset(3, 8, 0.0) == (0.0, 0.0)

    def test_two_member_ring_places_satellite_east(self):
        # N=2: the single satellite sits at angle 0 (dx=radius, dy=0),
        # not at a divide-by-zero.
        assert _ring_offset(1, 2, 50.0) == (50.0, 0.0)

    def test_ring_members_sit_on_the_circle(self):
        for index in range(1, 8):
            dx, dy = _ring_offset(index, 8, 25.0)
            assert math.hypot(dx, dy) == pytest.approx(25.0)


# ----------------------------------------------------------------------
# contention bookkeeping
# ----------------------------------------------------------------------
class TestCellContention:
    def _contention(self, **kwargs):
        return CellContention(4, CellCapacityConfig(**kwargs))

    def test_sole_occupant_share_is_exactly_one(self):
        contention = self._contention()
        contention.register(0, demand_ul_bps=5e6)
        contention.attach(0, 2)
        contention.update_rates(0, 30e6, 180e6)
        assert contention.shares(0) == (1.0, 1.0)

    def test_shares_sum_to_one_on_shared_cell(self):
        contention = self._contention()
        for ue in range(3):
            contention.register(ue, demand_ul_bps=20e6)
            contention.attach(ue, 1)
            contention.update_rates(ue, 30e6 + ue * 1e6, 120e6)
        total_ul = sum(contention.shares(ue)[0] for ue in range(3))
        total_dl = sum(contention.shares(ue)[1] for ue in range(3))
        assert total_ul == pytest.approx(1.0, abs=1e-12)
        assert total_dl == pytest.approx(1.0, abs=1e-12)

    def test_weak_radio_ue_requests_more_prbs(self):
        contention = self._contention()
        contention.register(0, demand_ul_bps=5e6)
        contention.register(1, demand_ul_bps=5e6)
        contention.attach(0, 0)
        contention.attach(1, 0)
        contention.update_rates(0, 40e6, 200e6)  # strong: few PRBs needed
        contention.update_rates(1, 8e6, 40e6)  # weak: many PRBs needed
        strong, weak = contention.shares(0)[0], contention.shares(1)[0]
        assert weak > strong

    def test_offsets_zero_until_crowded_then_clamped(self):
        contention = self._contention(lb_step_db=2.0, lb_max_db=6.0)
        for ue in range(5):
            contention.register(ue)
        contention.attach(0, 1)
        assert np.all(contention.offsets() == 0.0)
        contention.attach(1, 1)
        assert contention.offsets()[1] == -2.0
        for ue in (2, 3, 4):
            contention.attach(ue, 1)
        assert contention.offsets()[1] == -6.0  # clamped at lb_max_db
        assert contention.offsets()[0] == 0.0

    def test_blocked_cells_at_admission_cap(self):
        contention = self._contention(max_sessions=2)
        for ue in range(3):
            contention.register(ue)
        contention.attach(0, 0)
        contention.attach(1, 0)
        assert contention.blocked_cells(2) == (0,)
        # members of the full cell are never blocked from it
        assert contention.blocked_cells(0) == ()

    def test_reattach_moves_membership_and_peak(self):
        contention = self._contention()
        contention.register(0)
        contention.register(1)
        contention.attach(0, 0)
        contention.attach(1, 0)
        contention.attach(0, 3)
        assert contention.occupancy() == {0: 1, 3: 1}
        assert contention.peak_attached[0] == 2
        assert contention.attached_count(0) == 1

    def test_cell_load_counts_served_demand_only(self):
        contention = self._contention()
        contention.register(0, demand_ul_bps=3e6)
        contention.attach(0, 0)
        contention.update_rates(0, 30e6, 120e6)
        # Demand needs ~10 of 100 PRBs: low utilization, not 1.0.
        assert 0.0 < contention.cell_load(0) < 0.2
        assert contention.loads() == {0: contention.cell_load(0)}

    def test_duplicate_register_rejected(self):
        contention = self._contention()
        contention.register(0)
        with pytest.raises(ValueError):
            contention.register(0)

    def test_merge_occupancy_takes_per_cell_max(self):
        merged = merge_occupancy([{0: 1, 1: 3}, {0: 2}, {}])
        assert merged == {0: 2, 1: 3}

    def test_merge_occupancy_handles_json_string_keys(self):
        # A map that went through json.dumps/loads carries string cell
        # ids; merging it with a native map must not double-count.
        merged = merge_occupancy([{"3": 2, "0": 1}, {3: 5}])
        assert merged == {3: 5, 0: 1}

    def test_normalize_cell_map_round_trip(self):
        import json

        native = {3: 2, 11: 4}
        round_tripped = json.loads(json.dumps(native))
        assert round_tripped != native  # keys stringified
        assert normalize_cell_map(round_tripped) == native

    def test_fleet_result_normalizes_json_keys_on_load(self):
        # Regression: FleetResult occupancy/peak maps rebuilt from a
        # JSON artifact must come back with int cell ids.
        import json

        config = FleetConfig(base=BASE, num_sessions=2)
        result = FleetResult(
            config=config,
            sessions=[],
            occupancy=json.loads(json.dumps({7: 2})),
            peak_occupancy=json.loads(json.dumps({7: 3, 9: 1})),
            congestion_time=[0.0, 0.0],
        )
        assert result.occupancy == {7: 2}
        assert result.peak_occupancy == {7: 3, 9: 1}
        assert result.max_sessions_per_cell == 3
        assert merge_occupancy([result.peak_occupancy, {9: 4}]) == {7: 3, 9: 4}

    def test_fleet_demand_includes_overhead(self):
        assert fleet_demand_bps(4e6, 2e6) == pytest.approx(5e6)
        assert fleet_demand_bps(1e6, 3e6) == pytest.approx(3.75e6)


# ----------------------------------------------------------------------
# fleet engine
# ----------------------------------------------------------------------
def _fingerprint(result):
    return (
        result.packets_sent,
        result.frames_decoded,
        [
            (e.sequence, e.sent_at, e.received_at, e.size_bytes)
            for e in result.packet_log
        ],
        [(r.play_time, r.frame_id) for r in result.playback],
        [
            (e.time, e.source_cell, e.target_cell, e.execution_time)
            for e in result.handovers
        ],
        [
            (s.time, s.uplink_bps, s.downlink_bps, s.serving_cell)
            for s in result.capacity_samples
        ],
    )


class TestRunFleet:
    def test_n1_fleet_bit_identical_to_run_session(self):
        single = run_session(BASE)
        fleet = run_fleet(FleetConfig(base=BASE, num_sessions=1))
        assert len(fleet.sessions) == 1
        assert _fingerprint(fleet.sessions[0]) == _fingerprint(single)
        assert fleet.sessions[0].extra["ping_pong_handovers"] == (
            single.extra["ping_pong_handovers"]
        )
        assert all(
            s.uplink_share == 1.0
            for s in fleet.sessions[0].capacity_samples
        )
        assert fleet.congestion_time == [0.0]

    def test_contended_fleet_degrades_shares(self):
        fleet = run_fleet(
            FleetConfig(base=BASE, num_sessions=3, spread_radius=30.0)
        )
        assert len(fleet.sessions) == 3
        min_share = min(
            s.uplink_share
            for session in fleet.sessions
            for s in session.capacity_samples
        )
        assert min_share < 1.0
        assert fleet.max_sessions_per_cell >= 2
        assert any(t > 0.0 for t in fleet.congestion_time)

    def test_shared_cell_capacity_never_exceeds_budget(self):
        fleet = run_fleet(
            FleetConfig(base=BASE, num_sessions=3, spread_radius=30.0)
        )
        # Group per-tick shares by (time, serving cell) across sessions;
        # in any steady tick the granted shares of co-attached sessions
        # must not oversubscribe the cell's PRB budget.
        by_tick: dict = {}
        for session in fleet.sessions:
            for sample in session.capacity_samples:
                by_tick.setdefault(
                    (round(sample.time, 3), sample.serving_cell), []
                ).append(sample.uplink_share)
        oversubscribed = sum(
            1
            for shares in by_tick.values()
            if len(shares) > 1 and sum(shares) > 1.0 + 1e-9
        )
        shared = sum(1 for shares in by_tick.values() if len(shares) > 1)
        assert shared > 0
        # Attach transitions within a tick may transiently mix old and
        # new allocations (a session samples before a later session
        # hands in); steady ticks must never oversubscribe.
        assert oversubscribed <= 0.05 * shared

    def test_deterministic_repeat(self):
        config = FleetConfig(base=BASE, num_sessions=2, spread_radius=40.0)
        first = run_fleet(config)
        second = run_fleet(config)
        for a, b in zip(first.sessions, second.sessions):
            assert _fingerprint(a) == _fingerprint(b)
        assert first.occupancy == second.occupancy

    def test_session_seeds_follow_stride(self):
        fleet = run_fleet(
            FleetConfig(base=BASE, num_sessions=2, seed_stride=50)
        )
        assert [s.config.seed for s in fleet.sessions] == [7, 57]

    def test_admission_cap_limits_cell_occupancy(self):
        fleet = run_fleet(
            FleetConfig(
                base=BASE,
                num_sessions=4,
                spread_radius=20.0,
                cell_capacity=CellCapacityConfig(max_sessions=2),
            )
        )
        assert fleet.max_sessions_per_cell <= 2

    def test_contended_session_without_fleet_plan_refuses_to_start(self):
        # Only a planned fleet member ranks cells under the scheduler's
        # offsets and admission blocks; an unplanned contended channel
        # must fail loudly rather than silently ignore them.
        handles = build_session(
            EventLoop(), BASE, contention=CellContention(64), ue_id=0
        )
        with pytest.raises(RuntimeError, match="install_fleet_plans"):
            handles.start()

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            FleetConfig(base=BASE, num_sessions=0)
        with pytest.raises(ValueError):
            FleetConfig(base=BASE, seed_stride=0)
        with pytest.raises(ValueError):
            FleetConfig(base=BASE, spread_radius=-1.0)

    def test_instrumented_fleet_reports_congestion_cause(self):
        recorder = Recorder()
        fleet = run_fleet(
            FleetConfig(base=BASE, num_sessions=3, spread_radius=30.0),
            recorder=recorder,
        )
        causes = causes_from_trace(recorder.trace)
        congestion = [c for c in causes if c.kind == CELL_CONGESTION]
        assert congestion, "contended fleet should emit cell.congestion spans"
        assert all(0.0 <= c.magnitude <= 1.0 for c in congestion)
        assert "metrics" in fleet.extra
        assert "summary" in fleet.extra["diagnosis"]


# ----------------------------------------------------------------------
# campaign integration + density experiment
# ----------------------------------------------------------------------
class TestFleetCampaign:
    def test_fleet_unit_fingerprint_jsonable(self):
        import json

        unit = fleet_unit(
            BASE,
            num_sessions=4,
            cell_capacity=CellCapacityConfig(max_sessions=2),
            obs=True,
        )
        assert unit.kind == WORK_FLEET
        json.dumps(unit.fingerprint())  # must not raise

    def test_execute_unit_runs_fleet(self):
        quick = BASE.with_overrides(duration=12.0)
        unit = fleet_unit(quick, num_sessions=2, spread_radius=30.0)
        result = execute_unit(unit)
        assert len(result.sessions) == 2

    def test_density_sweep_parallel_equals_serial(self):
        quick = BASE.with_overrides(duration=12.0)
        settings = ExperimentSettings(duration=12.0, seeds=(1,), warmup=2.0)
        serial = run_fleet_density(quick, settings, densities=(1, 2))
        with CampaignRunner(2, batch=True) as runner:
            parallel = run_fleet_density(
                quick, settings, densities=(1, 2), runner=runner
            )
        for a, b in zip(serial.points, parallel.points):
            assert a == b

    def test_qoe_degrades_monotonically_with_density(self):
        # 40 s x one seed is the smallest shape that passes (30 s fails
        # the goodput ordering); one 10 s step above it keeps a margin.
        settings = ExperimentSettings(
            duration=50.0, seeds=(1,), warmup=10.0
        )
        result = run_fleet_density(
            BASE, settings, densities=(1, 2, 4), spread_radius=30.0
        )
        goodputs = [p.goodput_bps for p in result.points]
        shares = [p.mean_uplink_share for p in result.points]
        congestion = [p.congestion_seconds for p in result.points]
        assert goodputs[0] > goodputs[1] > goodputs[2]
        assert shares[0] >= shares[1] >= shares[2]
        assert shares[0] == pytest.approx(1.0)
        assert congestion[0] == 0.0
        assert congestion[2] > congestion[1] > 0.0
        assert result.points[2].peak_sessions_per_cell >= 3
        assert "fleet" in result.render()

    def test_density_point_fields_finite(self):
        settings = ExperimentSettings(duration=12.0, seeds=(1,), warmup=2.0)
        result = run_fleet_density(BASE, settings, densities=(2,), obs=True)
        point = result.points[0]
        assert point.fleets == 1
        assert point.num_sessions == 2
        assert math.isfinite(point.goodput_bps)
        assert point.congestion_attribution is not None


# ----------------------------------------------------------------------
# observability tiers + sampled member tracing (PR 10)
# ----------------------------------------------------------------------
QUICK_FLEET = BASE.with_overrides(duration=12.0)


class TestFleetObsTiers:
    def test_trace_members_normalized_sorted_deduped(self):
        config = FleetConfig(
            base=QUICK_FLEET, num_sessions=4, trace_members=(3, 1, 3)
        )
        assert config.trace_members == (1, 3)

    def test_trace_members_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            FleetConfig(base=QUICK_FLEET, num_sessions=2, trace_members=(2,))
        with pytest.raises(ValueError):
            FleetConfig(base=QUICK_FLEET, num_sessions=2, trace_members=(-1,))

    def test_trace_members_with_trace_level_rejected(self):
        config = FleetConfig(
            base=QUICK_FLEET, num_sessions=2, trace_members=(0,)
        )
        with pytest.raises(ValueError):
            run_fleet(config, obs="trace")
        with pytest.raises(ValueError):
            run_fleet(config, recorder=Recorder())

    def test_off_level_attaches_no_extra(self):
        fleet = run_fleet(FleetConfig(base=QUICK_FLEET, num_sessions=2))
        assert fleet.extra == {}

    def test_metrics_level_carries_plane_and_overhead(self):
        fleet = run_fleet(
            FleetConfig(base=QUICK_FLEET, num_sessions=3, spread_radius=30.0),
            obs="metrics",
        )
        names = {record["name"] for record in fleet.extra["metrics"]}
        assert {
            "fleet/ticks", "fleet/congestion_time", "fleet/uplink_bps",
            "fleet/uplink_share", "fleet/sinr_db", "fleet/occupancy",
        } <= names
        assert "obs_overhead" not in fleet.extra
        # metrics tier: no trace, so no diagnosis layer
        assert "diagnosis" not in fleet.extra

    def test_metrics_plane_congestion_matches_channel_accounting(self):
        fleet = run_fleet(
            FleetConfig(base=QUICK_FLEET, num_sessions=3, spread_radius=30.0),
            obs="metrics",
        )
        plane = {
            record["labels"]["member"]: record["value"]
            for record in fleet.extra["metrics"]
            if record["name"] == "fleet/congestion_time"
        }
        for member, congestion in enumerate(fleet.congestion_time):
            assert plane[member] == pytest.approx(congestion)

    def test_sampled_member_traces_shape(self):
        fleet = run_fleet(
            FleetConfig(
                base=QUICK_FLEET, num_sessions=3, spread_radius=30.0,
                trace_members=(0, 2),
            )
        )
        assert fleet.extra["trace_members"] == [0, 2]
        traces = fleet.extra["member_traces"]
        assert sorted(traces) == ["0", "2"]
        for member, payload in traces.items():
            assert {"trace", "metrics", "diagnosis"} <= set(payload)
            names = [record["name"] for record in payload["trace"]]
            assert names[0] == "fleet.member_sample"
            marker = payload["trace"][0]["labels"]
            assert marker["member"] == int(member)
            assert payload["metrics"]  # member registry snapshot attached
            assert "summary" in payload["diagnosis"]

    def test_legacy_recorder_still_traces_whole_fleet(self):
        recorder = Recorder()
        fleet = run_fleet(
            FleetConfig(base=QUICK_FLEET, num_sessions=2), recorder=recorder
        )
        assert recorder.trace  # shared-recorder path unchanged
        assert "diagnosis" in fleet.extra

    def test_fleet_unit_obs_levels_land_in_params(self):
        dark = fleet_unit(QUICK_FLEET, num_sessions=2)
        assert "obs" not in dict(dark.params)
        metered = fleet_unit(QUICK_FLEET, num_sessions=2, obs="metrics")
        assert dict(metered.params)["obs"] == "metrics"
        legacy = fleet_unit(QUICK_FLEET, num_sessions=2, obs=True)
        assert dict(legacy.params)["obs"] == "trace"
        sampled = fleet_unit(
            QUICK_FLEET, num_sessions=4, trace_members=(1, 2)
        )
        assert dict(sampled.params)["trace_members"] == (1, 2)
        assert dark.fingerprint() != metered.fingerprint()

    def test_execute_unit_threads_obs_and_trace_members(self):
        unit = fleet_unit(
            QUICK_FLEET, num_sessions=2, obs="metrics", trace_members=(1,)
        )
        result = execute_unit(unit)
        assert result.extra["trace_members"] == [1]
        assert any(
            record["name"] == "fleet/ticks"
            for record in result.extra["metrics"]
        )
