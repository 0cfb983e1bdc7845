"""The end-to-end cellular channel driven by a trajectory.

:class:`CellularChannel` ties the substrate together: every 100 ms
(the LTE measurement period) it

1. reads the UE position from the trajectory,
2. computes per-cell RSRP (path loss + antenna pattern + shadowing),
3. advances the A3 handover engine — an executed handover silences
   the attached network paths for the sampled HET,
4. derives the uplink/downlink capacity from the serving cell's
   signal quality and the interference situation, applying the pre-
   and post-handover degradation windows responsible for the paper's
   latency spikes around handovers (Fig. 8/9), and the high-altitude
   interference events behind the RTT outliers above 100 m (Fig. 13).

Every channel ticks as one row of a tick batch
(:mod:`repro.cellular.batch`), which precomputes the geometry and the
random planes one block of ticks at a time (a session's whole horizon
is one block) and runs steps 1-4 for all its rows at once, one loop
event per tick. The channel holds its row's
state — the handover engine, the outage, post-handover and outlier
windows, the congestion episode, the logs — and the few per-row steps
the batch's kernel calls into. The instantaneous capacity is exposed
as plain ``rate_fn`` callables for :class:`repro.net.path.NetworkPath`,
with :meth:`CellularChannel.rate_horizon` saying how long it holds,
and 1 Hz RSSI samples are logged exactly as coarsely as the paper's
LTE dongles reported them.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from math import inf

import numpy as np

from repro.cellular.cell import CellContention
from repro.cellular.handover import A3Config, HandoverEngine, HetSampler
from repro.cellular.layout import CellLayout
from repro.cellular.operators import OperatorProfile
from repro.cellular.propagation import (
    PropagationConfig,
    ShadowingProcess,
    antenna_gain_db_array,
    path_loss_db_array,
)
from repro.flight.trajectory import Position, WaypointTrajectory
from repro.net.path import NetworkPath
from repro.net.simulator import EventLoop
from repro.obs import NULL_RECORDER, NullRecorder
from repro.obs.detect import EwmaZScore
from repro.util.rng import RngStreams

#: UE measurement period (100 ms, standard LTE).
MEASUREMENT_PERIOD = 0.1
#: Effective usable uplink bandwidth (Hz) after control overhead.
EFFECTIVE_UL_BANDWIDTH = 7.5e6
#: Fraction of neighbouring-cell power contributing to interference.
INTERFERENCE_LOAD = 0.02
#: Uplink link budget (dB): UE tx power + BS receive gain - noise
#: floor. ``SNR_ul = UL_BUDGET_DB - path_loss``. Calibrated so the
#: urban area sustains ~30-45 Mbps and the rural area ~8-13 Mbps,
#: matching the paper's Fig. 6 operating points.
UL_BUDGET_DB = 106.0
#: Histogram buckets for the SINR metric (dB; spans outage to ideal).
SINR_BUCKETS = (-10.0, -5.0, 0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0, 40.0)


@lru_cache(maxsize=8)
def _tick_positions(traj_key: tuple, anchor: float, n_ticks: int) -> np.ndarray:
    """UE positions at measurement ticks, cached per trajectory.

    Split out of :func:`_tick_geometry` because the trajectory is
    often shared across runs whose *layouts* differ: an air-platform
    seed sweep flies the fixed paper trajectory over per-seed
    perturbed layouts, so a batched sweep interpolates the positions
    once and only the per-layout loss/gain passes repeat.
    """
    wp_times, wp_points = traj_key
    trajectory = WaypointTrajectory(
        list(wp_times), [Position(x, y, alt) for x, y, alt in wp_points]
    )
    ticks = anchor + np.arange(n_ticks) * MEASUREMENT_PERIOD
    return trajectory.positions_at(ticks)


def _tick_geometry(
    traj_key: tuple,
    offset: tuple,
    cell_key: tuple,
    prop_key: tuple,
    anchor: float,
    n_ticks: int,
    lo: int,
    hi: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic per-tick, per-cell radio geometry, vectorized.

    For the measurement ticks ``anchor + k * 0.1`` with ``lo <= k <
    hi`` (of ``n_ticks`` from the anchor) this computes everything
    about the tick that does not depend on a random draw: the 3-D path
    loss to every cell and the down-tilted antenna gain toward the UE.
    Returns ``(rsrp_det, loss)`` where ``rsrp_det[k - lo, i]`` is
    ``tx_power - loss + gain`` for cell ``i`` (shadowing and fading
    are added by the tick plan) and ``loss[k - lo, i]`` is the 3-D
    path loss that also feeds the uplink budget. Every element is
    computed on its own, so a block of ticks equals the same rows of
    the whole horizon, byte for byte.

    Takes value tuples (waypoints, ground-plane offset, cell
    parameters, propagation config). ``offset`` is the
    translated-trajectory shift (see
    :class:`~repro.flight.trajectory.TranslatedTrajectory`): every
    member of a fleet ring shares the base position table in
    :func:`_tick_positions` and only the loss/gain pass below runs per
    member.
    """
    config = PropagationConfig(*prop_key)
    pos = _tick_positions(traj_key, anchor, n_ticks)[lo:hi]
    if offset != (0.0, 0.0):
        # _tick_positions rows are lru-cached and shared; copy before
        # shifting, and shift only the ground plane (altitude stays).
        pos = pos.copy()
        pos[:, 0] += offset[0]
        pos[:, 1] += offset[1]
    cell_ids = np.array([c[0] for c in cell_key], dtype=float)
    cx = np.array([c[1] for c in cell_key])
    cy = np.array([c[2] for c in cell_key])
    ch = np.array([c[3] for c in cell_key])
    tx_power = np.array([c[4] for c in cell_key])
    downtilt = np.array([c[5] for c in cell_key])
    dx = pos[:, 0:1] - cx[None, :]
    dy = pos[:, 1:2] - cy[None, :]
    dz = pos[:, 2:3] - ch[None, :]
    horizontal = np.hypot(dx, dy)
    dist3d = np.sqrt(dx * dx + dy * dy + dz * dz)
    loss = path_loss_db_array(dist3d, pos[:, 2:3], config)
    gain = antenna_gain_db_array(horizontal, dz, cell_ids, downtilt, config)
    rsrp_det = tx_power[None, :] - loss + gain
    return rsrp_det, loss


@dataclass(slots=True)
class CapacitySample:
    """One 100 ms snapshot of the channel state (for traces/analysis)."""

    time: float
    uplink_bps: float
    downlink_bps: float
    serving_cell: int
    rsrp_dbm: float
    sinr_db: float
    altitude: float
    in_handover: bool
    #: Uplink PRB share granted by the shared-cell scheduler
    #: (1.0 when the channel runs uncontended).
    uplink_share: float = 1.0


@dataclass(slots=True)
class RssiReport:
    """Coarse 1 Hz signal report, as the paper's LTE dongles logged."""

    time: float
    rssi_dbm: float
    cell_id: int


@dataclass
class ChannelConfig:
    """Behavioural knobs of the cellular channel."""

    propagation: PropagationConfig = field(default_factory=PropagationConfig)
    a3: A3Config = field(default_factory=A3Config)
    het: HetSampler = field(default_factory=HetSampler)
    #: Capacity multiplier while the A3 condition builds (pre-HO
    #: degradation window; the cause of the Fig. 9 "before" spikes).
    pre_handover_factor: float = 0.5
    #: Capacity multiplier right after handover completion.
    post_handover_factor: float = 0.8
    #: Duration of the post-handover ramp, seconds.
    post_handover_ramp: float = 0.3
    #: Fast-fading std-dev (dB) on the ground and in the air.
    fading_std_ground_db: float = 1.0
    fading_std_air_db: float = 2.0
    fading_corr_time: float = 1.0
    #: Altitude above which interference dropout events start (m).
    outlier_altitude: float = 100.0
    #: Dropout event rate at 20 m above the threshold (events/s).
    outlier_rate: float = 0.03
    outlier_capacity_factor: float = 0.1
    outlier_duration_range: tuple[float, float] = (0.3, 1.0)
    #: Make-before-break handover (the Dual Active Protocol Stack of
    #: 3GPP Rel-16 the paper discusses in Section 5): when True,
    #: handover execution keeps the old link alive, so no outage is
    #: injected and only the radio-quality degradation remains.
    make_before_break: bool = False
    #: UE RSRP measurement noise (dB) on the ground and in the air;
    #: aerial links fluctuate more (side lobes, higher noise floor).
    meas_noise_ground_db: float = 0.5
    meas_noise_air_db: float = 2.0
    #: Per-cell fast RSRP fading that only appears in the air (side-
    #: lobe multipath): std-dev at full altitude and correlation time.
    air_fastfade_std_db: float = 3.5
    air_fastfade_corr_time: float = 0.8


class CellularChannel:
    """Trajectory-driven LTE channel for one UE.

    Parameters
    ----------
    loop:
        Event loop (the channel's tick batch fires on it at 10 Hz).
    layout:
        Cell deployment to operate in.
    profile:
        Operator plan/deployment profile (capacity caps and scaling).
    trajectory:
        UE position source.
    streams:
        Random-stream factory for shadowing/fading/HET draws.
    horizon:
        Simulated time (s) the run ends at. :meth:`start` installs a
        tick plan up to it, which precomputes the geometry and every
        random plane in vectorized blocks of ticks (one block up to
        54 minutes for a channel alone in 32 cells); ticking past it
        raises "tick plan exhausted". Below the horizon, a run's
        output does not depend on it.
    contention:
        Optional shared-cell PRB scheduler
        (:class:`repro.cellular.cell.CellContention`). When given,
        this channel registers as UE ``ue_id``, reports its rates
        every tick, and its link rates are scaled by the granted PRB
        share; the handover engine additionally sees the scheduler's
        load-balancing offsets and admission blocks. ``None`` (the
        default) is the uncontended single-UE paper model.
    ue_id:
        This channel's session id within the shared scheduler.
    uplink_demand_bps / downlink_demand_bps:
        Offered-load hints sizing PRB requests (``None`` =
        full-buffer: request the whole budget).
    """

    def __init__(
        self,
        loop: EventLoop,
        layout: CellLayout,
        profile: OperatorProfile,
        trajectory: WaypointTrajectory,
        streams: RngStreams,
        *,
        horizon: float,
        config: ChannelConfig | None = None,
        obs: NullRecorder = NULL_RECORDER,
        contention: CellContention | None = None,
        ue_id: int = 0,
        uplink_demand_bps: float | None = None,
        downlink_demand_bps: float | None = None,
    ) -> None:
        self._loop = loop
        self.obs = obs
        self.layout = layout
        self.profile = profile
        self.trajectory = trajectory
        self.config = config if config is not None else ChannelConfig()
        self._shadowing = ShadowingProcess(
            len(layout), self.config.propagation, streams.derive("shadowing")
        )
        self.engine = HandoverEngine(
            len(layout),
            streams.derive("handover"),
            config=self.config.a3,
            het_sampler=self.config.het,
        )
        self.engine.obs = obs
        self._fading_rng = streams.derive("fading")
        self._meas_rng = streams.derive("measurement")
        self._fastfade_rng = streams.derive("fastfade")
        self._outlier_rng = streams.derive("outliers")
        self._horizon = horizon
        self._uplink_bps = 1e6
        self._downlink_bps = 10e6
        self._outlier_until: float | None = None
        self._post_ho_until: float | None = None
        self._paths: list[NetworkPath] = []
        #: The :class:`repro.cellular.batch.FleetTickState` this
        #: channel is a row of, and its row there (set by
        #: :func:`repro.cellular.batch.install_fleet_plans`).
        self._batch = None
        self._row = 0
        self.samples: list[CapacitySample] = []
        self.rssi_log: list[RssiReport] = []
        self.cells_seen: set[int] = set()
        self._last_rssi_time = -1.0
        self._started = False
        self._contention = contention
        self._ue_id = ue_id
        self._congestion_t0: float | None = None
        self._congestion_min = 1.0
        #: Simulated seconds this session spent below the congestion
        #: share threshold (accumulated even without a recorder).
        self.congestion_time = 0.0
        if contention is not None:
            contention.register(
                ue_id,
                demand_ul_bps=uplink_demand_bps,
                demand_dl_bps=downlink_demand_bps,
            )
        #: Streaming low-side detector over uplink capacity: marks
        #: capacity-dip episodes as trace spans for root-cause
        #: attribution (fed at the 10 Hz measurement rate).
        self.capacity_dip = EwmaZScore(
            obs, "channel.capacity_dip", direction=-1.0, warmup=50,
            min_delta=3e6,
        )

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------
    def attach_path(self, path: NetworkPath) -> None:
        """Register a path whose outage state this channel controls."""
        self._paths.append(path)

    def uplink_rate(self, now: float) -> float:
        """Instantaneous uplink capacity in bits/s (rate_fn for paths)."""
        return self._uplink_bps

    def downlink_rate(self, now: float) -> float:
        """Instantaneous downlink capacity in bits/s."""
        return self._downlink_bps

    def rate_horizon(self) -> float:
        """Time before which neither rate nor outage state can change.

        Only the tick kernel sets the rates or takes the paths down, so
        this is the time of the batch's next tick, the run horizon after
        its last, and ``-inf`` before the channel starts. Paths pass it
        to their capacity link (see :class:`repro.net.links.CapacityLink`).
        """
        if not self._started:
            return -inf
        tick = self._batch.next_tick
        return tick if tick < self._horizon else self._horizon

    @cached_property
    def _geometry_key(self) -> tuple:
        """``(traj_key, offset, cell_key, prop_key)`` of :func:`_tick_geometry`."""
        traj_key, offset = self.trajectory.geometry_key()
        cells = tuple(
            (c.cell_id, c.x, c.y, c.height, c.tx_power_dbm, c.downtilt_deg)
            for c in self.layout.cells
        )
        return traj_key, offset, cells, dataclasses.astuple(self.config.propagation)

    def _altitudes(
        self, anchor: float, n_ticks: int, lo: int, hi: int
    ) -> np.ndarray:
        """UE altitudes at ticks ``lo`` to ``hi - 1`` of ``anchor + k * 0.1``."""
        traj_key = self._geometry_key[0]
        return _tick_positions(traj_key, anchor, n_ticks)[lo:hi, 2]

    def _geometry(
        self, anchor: float, n_ticks: int, lo: int, hi: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(rsrp_det, loss)`` at the ticks :meth:`_altitudes` takes."""
        return _tick_geometry(*self._geometry_key, anchor, n_ticks, lo, hi)

    def start(self) -> None:
        """Begin the 10 Hz measurement/update loop.

        Installs a one-row tick batch over ``[now, horizon]`` unless
        the channel already is a row of one, then runs tick 0. A
        contended channel must be a row of its fleet's batch: only the
        fleet's batch shares the scheduler whose load-balancing offsets
        and admission blocks its members rank cells with.
        """
        if self._started:
            raise RuntimeError("channel already started")
        if self._batch is None:
            if self._contention is not None:
                raise RuntimeError(
                    "a contended channel needs a fleet plan: call "
                    "repro.cellular.batch.install_fleet_plans before start()"
                )
            from repro.cellular.batch import install_fleet_plans

            install_fleet_plans([self], self._horizon)
        self._started = True
        self._batch.start_row(self._row)

    # ------------------------------------------------------------------
    # per-row state the tick kernel calls into
    # ------------------------------------------------------------------
    def _begin_outage(self, now: float, het: float) -> None:
        if self.config.make_before_break:
            # DAPS: both protocol stacks stay active through the
            # handover; the execution gap does not interrupt the link.
            return
        paths = self._paths
        for path in paths:
            path.set_up(False)
        self._post_ho_until = now + het + self.config.post_handover_ramp

        # Closes over the path list, not the channel: a restore still
        # pending at the horizon must not keep a finished run alive.
        def back_up() -> None:
            for path in paths:
                path.set_up(True)

        self._loop.call_later(het, back_up)

    def _close_congestion(self, end: float) -> None:
        if self.obs.enabled:
            self.obs.span_at(
                "cell.congestion",
                self._congestion_t0,
                end,
                cell=self.engine.serving_cell,
                min_share=float(self._congestion_min),
            )
            self.obs.count("channel/congestion_episodes")
        self._congestion_t0 = None
        self._congestion_min = 1.0

    def finish_congestion(self, now: float) -> None:
        """Close a still-open congestion span at session teardown."""
        if self._congestion_t0 is not None:
            self._close_congestion(now)

    def _update_outliers(self, now: float, altitude: float) -> None:
        if self._outlier_until is not None and now >= self._outlier_until:
            self._outlier_until = None
        if self._outlier_until is not None:
            return
        excess = altitude - self.config.outlier_altitude
        if excess <= 0:
            return
        rate = self.config.outlier_rate * min(excess / 20.0, 2.0)
        if self._outlier_rng.random() < rate * MEASUREMENT_PERIOD:
            low, high = self.config.outlier_duration_range
            self._outlier_until = now + float(self._outlier_rng.uniform(low, high))
            if self.obs.enabled:
                self.obs.span_at(
                    "channel.interference_outlier",
                    now,
                    self._outlier_until,
                    altitude=float(altitude),
                )
                self.obs.count("channel/interference_outliers")
