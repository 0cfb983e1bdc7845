"""Fleet-density experiment: per-session QoE vs. sessions per cell.

The paper's headline numbers come from one UAV with every cell to
itself; this experiment asks the question the measurement study could
not — what happens to remote-piloting QoE when N RPAVs stream over the
*same* cells. For each fleet size the campaign runs
:func:`repro.core.fleet.run_fleet` across seeds (fleets shard over
worker processes exactly like seeds do), then aggregates per-session
QoE: playback-latency SLO violations, stalls/minute, goodput, the PRB
share the shared-cell scheduler actually granted, and — when run
instrumented — the fraction of latency violations the diagnosis layer
attributes to ``cell_congestion``.

The expected picture (and what the regression test pins): QoE degrades
monotonically with density — goodput and PRB share fall, congestion
time rises — while per-cell allocated capacity never exceeds the PRB
budget.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from repro.analysis.render import format_table
from repro.cellular.cell import CellCapacityConfig, merge_occupancy
from repro.core.config import ScenarioConfig
from repro.core.fleet import FleetResult
from repro.experiments.campaign import _resolve_runner
from repro.experiments.settings import ExperimentSettings
from repro.metrics.network import delivered_bytes
from repro.metrics.video import VideoSummary
from repro.obs import DiagnosisSummary, ObsLevel
from repro.obs.attribute import CELL_CONGESTION
from repro.runner import WORK_FLEET, CampaignRunner, ResultCache
from repro.runner.engine import ProgressFn
from repro.runner.work import WorkUnit, make_unit
from repro.util.units import bytes_to_bits, to_mbps

#: Fleet sizes swept by default (sessions sharing the layout).
DEFAULT_DENSITIES = (1, 2, 4, 8)
#: Tight default spread (m) so the fleet contends for the same cells.
DEFAULT_SPREAD_RADIUS = 50.0


def fleet_unit(
    config: ScenarioConfig,
    *,
    num_sessions: int,
    seed_stride: int = 1000,
    spread_radius: float = DEFAULT_SPREAD_RADIUS,
    cell_capacity: CellCapacityConfig | None = None,
    obs: bool | str | ObsLevel = False,
    trace_members: tuple[int, ...] = (),
) -> WorkUnit:
    """Build one :data:`WORK_FLEET` campaign unit.

    The capacity config is flattened to a plain tuple so the unit's
    cache fingerprint stays JSON-able and stable; ``obs`` accepts the
    full :class:`ObsLevel` spectrum (``True`` means ``trace`` for
    backward compatibility), and :func:`make_unit` stores it in the
    params — and therefore the fingerprint — as the level's string
    value, so traced, metered and dark runs never share cache entries.
    """
    params: dict = {
        "num_sessions": num_sessions,
        "seed_stride": seed_stride,
        "spread_radius": spread_radius,
        "obs": obs,
    }
    if cell_capacity is not None:
        params["cell_capacity"] = dataclasses.astuple(cell_capacity)
    if trace_members:
        params["trace_members"] = tuple(int(m) for m in trace_members)
    return make_unit(WORK_FLEET, config, **params)


@dataclass
class FleetDensityPoint:
    """Aggregated per-session QoE at one fleet size."""

    num_sessions: int
    fleets: int  #: fleet runs aggregated (one per seed)
    #: Mean fraction of played frames over the 300 ms RP latency SLO.
    latency_violation_frac: float
    median_latency_ms: float
    stalls_per_minute: float
    #: Mean delivered video goodput per session (bits/s).
    goodput_bps: float
    #: Mean uplink PRB share granted across sessions and ticks.
    mean_uplink_share: float
    #: Mean simulated seconds per session below the congestion share.
    congestion_seconds: float
    #: Peak concurrent sessions observed on any one cell.
    peak_sessions_per_cell: int
    #: Fraction of latency violations attributed to cell congestion
    #: by the diagnosis layer (``None`` when run uninstrumented).
    congestion_attribution: float | None = None


@dataclass
class FleetDensityResult:
    """QoE-vs-density sweep output (one point per fleet size)."""

    points: list[FleetDensityPoint]
    label: str

    def render(self) -> str:
        """Text table of the density sweep."""
        rows = []
        for point in self.points:
            rows.append([
                str(point.num_sessions),
                f"{point.latency_violation_frac * 100:.1f} %",
                f"{point.median_latency_ms:.0f}",
                f"{point.stalls_per_minute:.2f}",
                f"{to_mbps(point.goodput_bps):.2f}",
                f"{point.mean_uplink_share:.2f}",
                f"{point.congestion_seconds:.1f}",
                str(point.peak_sessions_per_cell),
                (
                    f"{point.congestion_attribution * 100:.0f} %"
                    if point.congestion_attribution is not None
                    else "-"
                ),
            ])
        return format_table(
            [
                "fleet", "lat>SLO", "med ms", "stalls/min", "Mbps",
                "PRB share", "congest s", "peak/cell", "attrib",
            ],
            rows,
            title=f"Per-session QoE vs. fleet density ({self.label})",
        )


def _session_goodput(result, warmup: float) -> float:
    """Delivered video bits/s of one session after warmup."""
    window = result.duration - warmup
    if window <= 0.0:
        return 0.0
    received = delivered_bytes(result.packet_log, since=warmup)
    return bytes_to_bits(received) / window


def _aggregate_point(
    num_sessions: int,
    fleets: list[FleetResult],
    warmup: float,
    instrumented: bool,
) -> FleetDensityPoint:
    violation = 0.0
    median_latency = 0.0
    stalls = 0.0
    goodput = 0.0
    share = 0.0
    congestion = 0.0
    sessions = 0
    for fleet in fleets:
        for index, session in enumerate(fleet.sessions):
            summary = VideoSummary.from_result(session, warmup=warmup)
            violation += 1.0 - summary.latency_below_threshold
            median_latency += summary.median_latency_ms
            stalls += summary.stalls_per_minute
            goodput += _session_goodput(session, warmup)
            samples = [
                s.uplink_share
                for s in session.capacity_samples
                if s.time >= warmup
            ]
            share += sum(samples) / max(len(samples), 1)
            congestion += fleet.congestion_time[index]
            sessions += 1
    peak = merge_occupancy(fleet.peak_occupancy for fleet in fleets)
    attribution: float | None = None
    if instrumented:
        merged = DiagnosisSummary()
        for fleet in fleets:
            summary_dict = fleet.extra.get("diagnosis", {}).get("summary")
            if summary_dict:
                merged.merge(DiagnosisSummary.from_dict(summary_dict))
        attribution = merged.attribution_fraction(
            "playback_latency", CELL_CONGESTION
        )
    n = max(sessions, 1)
    return FleetDensityPoint(
        num_sessions=num_sessions,
        fleets=len(fleets),
        latency_violation_frac=violation / n,
        median_latency_ms=median_latency / n,
        stalls_per_minute=stalls / n,
        goodput_bps=goodput / n,
        mean_uplink_share=share / n,
        congestion_seconds=congestion / n,
        peak_sessions_per_cell=max(peak.values(), default=0),
        congestion_attribution=attribution,
    )


def run_fleet_density(
    config: ScenarioConfig,
    settings: ExperimentSettings,
    *,
    densities: tuple[int, ...] = DEFAULT_DENSITIES,
    spread_radius: float = DEFAULT_SPREAD_RADIUS,
    cell_capacity: CellCapacityConfig | None = None,
    obs: bool | str | ObsLevel = False,
    workers: int | None = None,
    cache: ResultCache | None = None,
    runner: CampaignRunner | None = None,
    progress: ProgressFn | None = None,
) -> FleetDensityResult:
    """Sweep fleet density and aggregate per-session QoE.

    One :data:`WORK_FLEET` unit per (density, seed) pair — fleets fan
    out over worker processes exactly like seeded sessions do, and
    repeat runs are served from the result cache. On a batching
    runner (``CampaignRunner(batch=True)``) the planner additionally
    groups each density's seed sweep into per-worker fleet batches
    with per-unit cache fan-back, so an interrupted sweep resumes
    from the fleets that completed; each fleet itself runs the
    vectorized fast path (SoA contention + member-stacked tick
    plans). ``obs="metrics"`` keeps that fast path *and* the batching
    planner while adding the vectorized fleet metrics plane;
    ``obs="trace"`` (or ``True``) runs every fleet under a shared
    recorder (scalar-scheduled, batching excluded) and the
    per-density points additionally carry the fraction of latency
    violations the diagnosis layer pins on ``cell_congestion``.
    """
    level = ObsLevel.coerce(obs)
    engine, owned = _resolve_runner(runner, workers, cache, progress)
    units = [
        fleet_unit(
            config.with_overrides(seed=seed, duration=settings.duration),
            num_sessions=density,
            spread_radius=spread_radius,
            cell_capacity=cell_capacity,
            obs=level,
        )
        for density in densities
        for seed in settings.seeds
    ]
    try:
        results = engine.run(units)
    finally:
        if owned:
            engine.close()
    per_density: dict[int, list[FleetResult]] = {d: [] for d in densities}
    for unit, result in zip(units, results):
        num_sessions = dict(unit.params)["num_sessions"]
        per_density[num_sessions].append(result)
    instrumented = level is ObsLevel.TRACE
    points = [
        _aggregate_point(
            density, per_density[density], settings.warmup, instrumented
        )
        for density in densities
    ]
    label = (
        f"{config.cc.value}-{config.environment.value}-"
        f"{config.platform.value}-{config.operator}"
    )
    return FleetDensityResult(points=points, label=label)
