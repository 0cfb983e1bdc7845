"""Multi-session fleet engine: N RPAVs sharing one cellular layout.

The paper measured a single UAV that had every cell to itself; this
module hosts N sender/receiver sessions on **one** event loop, over
**one** cell layout, attached to **one** shared-cell PRB scheduler
(:class:`repro.cellular.cell.CellContention`) — so fleet members
compete for the same radio resources, crowded cells shed UEs through
load-balancing offsets, and per-session QoE degrades with fleet
density (the "what if everyone flew one of these" axis the
measurement study could not reach).

Determinism and the PR-4 bit-identity discipline:

* session ``i`` runs with seed ``base.seed + i * seed_stride``, so
  session 0 of a fleet draws exactly the random streams of the
  single-session path;
* the shared layout is derived from the base seed's ``"layout"``
  stream — the same layout ``run_session(base)`` builds;
* a fleet of N=1 leaves every scheduler share at exactly 1.0 and
  every load-balancing offset at 0.0, making :func:`run_fleet`
  packet-for-packet identical to :func:`repro.core.session.run_session`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.cellular.batch import install_fleet_plans
from repro.cellular.cell import (
    CellCapacityConfig,
    CellContention,
    normalize_cell_map,
)
from repro.cellular.channel import MEASUREMENT_PERIOD
from repro.cellular.operators import get_profile
from repro.core.config import ScenarioConfig
from repro.core.session import (
    SessionHandles,
    SessionResult,
    build_session,
    build_trajectory,
)
from repro.flight.trajectory import TranslatedTrajectory
from repro.net.packet import reset_datagram_ids
from repro.net.simulator import EventLoop
from repro.obs import (
    NULL_RECORDER,
    FleetMetricsPlane,
    MetricsRegistry,
    NullRecorder,
    ObsLevel,
    Recorder,
    diagnose,
    trace_to_dicts,
)
from repro.util.rng import RngStreams


@dataclass(frozen=True)
class FleetConfig:
    """One fleet run: N sessions sharing a layout and PRB budgets.

    Parameters
    ----------
    base:
        Scenario of session 0 (and, seed/placement aside, of every
        session). Duration, operator, environment, CC, bitrates are
        fleet-wide.
    num_sessions:
        Fleet size N.
    seed_stride:
        Seed spacing between sessions (session ``i`` uses
        ``base.seed + i * seed_stride``).
    spread_radius:
        Horizontal radius (m) of the deterministic ring that offsets
        the trajectories of sessions 1..N-1 around session 0's route.
        Small radii keep the fleet inside one serving cell (maximum
        contention); session 0 always flies the unmodified route.
    cell_capacity:
        Shared per-cell PRB budget / admission / load-balancing knobs.
    trace_members:
        Member indices sampled for **full tracing**: each listed
        member runs with its own :class:`~repro.obs.Recorder` on the
        same planned tick as every other member, so sampling perturbs
        no member's packets; the sampled traces land in
        ``result.extra["member_traces"]``.
    """

    base: ScenarioConfig
    num_sessions: int = 2
    seed_stride: int = 1000
    spread_radius: float = 150.0
    cell_capacity: CellCapacityConfig = field(default_factory=CellCapacityConfig)
    trace_members: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.num_sessions < 1:
            raise ValueError("num_sessions must be >= 1")
        if self.seed_stride < 1:
            raise ValueError("seed_stride must be >= 1")
        if self.spread_radius < 0.0:
            raise ValueError("spread_radius must be >= 0")
        members = tuple(sorted(set(int(m) for m in self.trace_members)))
        for member in members:
            if not 0 <= member < self.num_sessions:
                raise ValueError(
                    f"trace_members index {member} out of range for a "
                    f"{self.num_sessions}-session fleet"
                )
        object.__setattr__(self, "trace_members", members)


@dataclass
class FleetResult:
    """Artifacts of one fleet run."""

    config: FleetConfig
    #: Per-session datasets, in session order (session 0 == base seed).
    sessions: list[SessionResult]
    #: Final attached-session count per occupied cell.
    occupancy: dict[int, int]
    #: Highest concurrent attachment count ever seen per cell.
    peak_occupancy: dict[int, int]
    #: Simulated seconds each session spent PRB-share-congested.
    congestion_time: list[float]
    #: Fleet-wide merged snapshot (``metrics`` / ``diagnosis`` when a
    #: recorder was attached) — shaped like ``SessionResult.extra`` so
    #: campaign runners merge fleet results exactly like session ones.
    extra: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        # Cell-id maps may arrive from a JSON round-trip (report
        # exports, history artifacts) with stringified int keys;
        # normalize on construction so merges never double-count.
        self.occupancy = normalize_cell_map(self.occupancy)
        self.peak_occupancy = normalize_cell_map(self.peak_occupancy)

    @property
    def max_sessions_per_cell(self) -> int:
        """Peak contention actually reached anywhere in the layout."""
        return max(self.peak_occupancy.values(), default=0)


def _declare_fleet_obs_names(obs) -> None:
    """RPL008 declaration twin for names written via the registry.

    ``run_fleet`` writes these gauges straight into the registry it
    snapshots (there is no live recorder on the plane tier), so the
    static trace-schema scan cannot see them at the real write sites.
    Never called.
    """
    obs.gauge("fleet/occupancy", 0.0)
    obs.gauge("fleet/peak_occupancy", 0.0)


def _ring_offset(index: int, count: int, radius: float) -> tuple[float, float]:
    """Deterministic placement of fleet member ``index`` (1-based ring)."""
    if index == 0 or radius == 0.0 or count <= 1:
        return 0.0, 0.0
    angle = 2.0 * math.pi * (index - 1) / (count - 1)
    return radius * math.cos(angle), radius * math.sin(angle)


def run_fleet(
    config: FleetConfig,
    *,
    recorder: NullRecorder | None = None,
    obs: "ObsLevel | str | bool | None" = None,
) -> FleetResult:
    """Execute one fleet run and collect every session's dataset.

    All sessions share a single event loop, the base seed's cell
    layout, and one :class:`CellContention`. The fleet is one tick
    batch with a row per member:
    :func:`~repro.cellular.batch.install_fleet_plans` stacks every
    member's whole-horizon tick plan (one block RNG refill per
    stream, translated-trajectory geometry shared through the
    base-position cache) and the batch's
    :class:`~repro.cellular.batch.FleetTickState` drives all members'
    ticks with one loop event per tick, the same code a single
    session's one-row batch uses. Ring members fly
    :class:`~repro.flight.trajectory.TranslatedTrajectory` copies of
    the base route (the translation applies after interpolation) and
    member 0 flies the unmodified route, so an N=1 fleet stays
    bit-identical to :func:`repro.core.session.run_session`. The
    golden fleet digests in ``tests/golden/fingerprints.json`` pin
    the output.

    Observability is tiered through ``obs`` (an
    :class:`~repro.obs.ObsLevel` or its string/bool spellings):

    * ``off`` — nothing recorded, zero overhead (the default).
    * ``metrics`` — the **fast-path tier**: sessions stay completely
      uninstrumented (packet logs bit-identical to ``off``) and,
      after the loop, a :class:`~repro.obs.FleetMetricsPlane` folds
      per-member goodput/PRB-share/SINR histograms and congestion
      counters from each member's recorded capacity samples. Its
      registry snapshot lands in ``result.extra["metrics"]``
      alongside per-cell occupancy gauges.
    * ``trace`` — the legacy full tier: one shared
      :class:`~repro.obs.Recorder` bound to the loop sees every
      session's spans, and the fleet-wide diagnosis lands in
      ``result.extra["diagnosis"]`` exactly like a session's would.

    Passing a ``recorder`` explicitly keeps its historical meaning
    (the instance is shared by every session and wins over ``obs``);
    a :class:`~repro.obs.MetricsRecorder` there also gets the plane
    folded into its registry. With one shared recorder every member
    folds its per-packet metrics into the same unlabelled histograms
    at teardown, so a histogram's float ``total`` adds the values
    member by member, not in packet-arrival order (its last bits
    depend on that order; counts, buckets, minima and maxima do not).
    Whatever the tier, the occupancy gauges join one registry (the
    shared recorder's, else the plane's, else a fresh one), which is
    snapshotted once.
    Independently, ``config.trace_members`` samples k members for
    diagnose-quality tracing: each sampled member runs a private
    recorder on the same planned tick as the rest of the fleet, and
    the sampled traces land in ``result.extra["member_traces"]``.
    ``trace_members`` cannot combine with the ``trace`` tier — the
    shared recorder already covers every member.
    No tier reads the wall clock, so the result is a pure function of
    ``(config, obs)``; the fleet observability bench under
    ``benchmarks/`` measures what the metrics tier costs from outside
    the run.
    """
    level = ObsLevel.coerce(obs)
    if recorder is not None:
        shared: NullRecorder = recorder
        level = getattr(recorder, "level", ObsLevel.TRACE)
    elif level is ObsLevel.TRACE:
        shared = Recorder()
    else:
        # metrics tier: sessions stay uninstrumented — the plane
        # carries the per-member metrics off the SoA tick state.
        shared = NULL_RECORDER
    if config.trace_members and level is ObsLevel.TRACE:
        raise ValueError(
            "trace_members cannot combine with trace-level fleet obs: "
            "the shared recorder already traces every member"
        )
    obs_active = level is not ObsLevel.OFF or bool(config.trace_members)
    reset_datagram_ids()
    loop = EventLoop()
    if isinstance(shared, Recorder):
        shared.bind(loop)
    base = config.base
    profile = get_profile(base.operator, base.environment.value)
    layout = profile.build_layout(RngStreams(base.seed).derive("layout"))
    contention = CellContention(len(layout), config.cell_capacity)
    plane = (
        FleetMetricsPlane(
            config.num_sessions,
            congestion_share=config.cell_capacity.congestion_share,
            tick_period=MEASUREMENT_PERIOD,
        )
        if level is ObsLevel.METRICS
        else None
    )

    member_recorders: dict[int, Recorder] = {}
    handles: list[SessionHandles] = []
    for index in range(config.num_sessions):
        session_config = base.with_overrides(
            seed=base.seed + index * config.seed_stride
        )
        trajectory = build_trajectory(
            session_config, RngStreams(session_config.seed)
        )
        dx, dy = _ring_offset(
            index, config.num_sessions, config.spread_radius
        )
        if dx != 0.0 or dy != 0.0:
            trajectory = TranslatedTrajectory(trajectory, dx, dy)
        session_obs = shared
        if index in config.trace_members:
            _obs = Recorder()
            _obs.bind(loop)
            _obs.event(
                "fleet.member_sample",
                t=0.0,
                member=index,
                seed=session_config.seed,
            )
            member_recorders[index] = _obs
            session_obs = _obs
        handles.append(
            build_session(
                loop,
                session_config,
                obs=session_obs,
                layout=layout,
                trajectory=trajectory,
                contention=contention,
                ue_id=index,
            )
        )

    channels = [handle.channel for handle in handles]
    install_fleet_plans(channels, base.duration)
    for handle in handles:
        handle.start()
    loop.run_until(base.duration)
    for handle in handles:
        handle.stop()
    for handle in handles:
        handle.finish(loop.now)

    sessions = [handle.collect() for handle in handles]
    extra: dict = {}
    if obs_active:
        if plane is not None:
            plane.observe_channels(channels)
        if isinstance(shared, Recorder):
            registry = shared.registry
            if plane is not None:
                plane.fold_into(registry)
        elif plane is not None:
            registry = plane.registry
        else:
            registry = MetricsRegistry()
        for cell, count in sorted(contention.occupancy().items()):
            registry.gauge("fleet/occupancy", cell=cell).set(count)
        for cell, count in sorted(contention.peak_attached.items()):
            registry.gauge("fleet/peak_occupancy", cell=cell).set(count)
        if member_recorders:
            extra["trace_members"] = list(member_recorders)
            extra["member_traces"] = {}
            for index, member_recorder in member_recorders.items():
                extra["member_traces"][str(index)] = {
                    "trace": trace_to_dicts(member_recorder.trace),
                    "metrics": member_recorder.registry.snapshot(),
                    "diagnosis": diagnose(
                        member_recorder.trace, member_recorder.registry
                    ).to_dict(),
                }
        extra["metrics"] = registry.snapshot()
        if isinstance(shared, Recorder) and shared.level is ObsLevel.TRACE:
            extra["diagnosis"] = diagnose(shared.trace, shared.registry).to_dict()
    return FleetResult(
        config=config,
        sessions=sessions,
        occupancy=contention.occupancy(),
        peak_occupancy=dict(contention.peak_attached),
        congestion_time=[h.channel.congestion_time for h in handles],
        extra=extra,
    )
