"""Struct-of-arrays batched execution of channel seed sweeps.

A campaign sweep runs the same scenario under N seeds. The scalar
path pays the per-tick Python cost N times: one generator call per
stochastic process per tick, one small-array numpy expression per
tick, one event-loop dispatch per tick — for work that is either
identical across seeds (tick times, trajectory geometry) or trivially
stackable (the AR(1) shadowing/fading/fast-fading recursions, the
measurement-noise scaling, the L3 filter update).

This module restructures a whole sweep into one lockstep batch:

1. :func:`build_tick_plans` precomputes, per seed but with the
   recursions *stacked across seeds* as ``(n_seeds, n_cells)`` state
   matrices, the complete per-tick planes the scalar channel would
   have produced — shadowing dB offsets, aerial fast fading, scalar
   fading, and the assembled per-cell RSRP vector — using one block
   RNG refill per (seed, stream) for the whole horizon.
2. :func:`run_lockstep` then drives all seeds tick by tick through
   the *existing* :class:`~repro.cellular.handover.HandoverEngine`
   and :meth:`CellularChannel._capacity` kernels, so every branchy,
   stateful decision (A3 hysteresis/TTT, HET draws, prohibit timers,
   outlier episodes, pre/post-handover windows) runs the very same
   code the scalar path runs.
3. :func:`install_fleet_plans` applies the same precomputation across
   the *members of one fleet* instead of across seeds — the only way a
   fleet runs: each member's channel keeps ticking through the event
   loop (full sessions need the loop for pacing, GCC, handover
   outages), but every per-tick draw is served from the precomputed
   planes.

Bit-identity contract
---------------------
Every draw comes from the same derived stream in the same order as
the scalar path (block draws consume ``numpy`` bit generators exactly
like the equivalent scalar calls — the RNG-stability tests pin this),
and every floating-point expression replicates the scalar
evaluation order operation for operation. The few spots where the
batched path computes a value by a different-but-IEEE-equal route
(elementwise ops hoisted across a matrix, the slice-based
neighbour-interference sum replacing ``np.delete``) are guarded by
the packet-log fingerprint suite in ``tests/test_fingerprints.py``,
which also pins every fleet to golden digests.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np

from repro.cellular.channel import (
    INTERFERENCE_LOAD,
    MEASUREMENT_PERIOD,
    CellularChannel,
)
from repro.util.rng import BatchedUniform


def probe_tick_times(duration: float, anchor: float = 0.0) -> list[float]:
    """Measurement-tick times exactly as the event loop fires them.

    Replicates the anchored re-arm in ``CellularChannel._tick``
    (``anchor + k * MEASUREMENT_PERIOD``) and the inclusive
    ``run_until(duration)`` cutoff, so the batch executes precisely
    the ticks the scalar run executes — same count, bit-equal times.
    """
    times: list[float] = []
    k = 0
    while True:
        t = anchor + k * MEASUREMENT_PERIOD
        if t > duration:
            break
        times.append(t)
        k += 1
    return times


class TickPlan:
    """Precomputed per-tick stochastic planes for one seed of a batch.

    ``shadow_db``/``fastfade`` are ``(n_ticks, n_cells)`` views into
    the batch-stacked planes, ``fading`` is a list of Python floats
    (the scalar channel keeps ``_fading_db`` as a Python float),
    ``rsrp`` is the fully assembled measurement vector per tick, and
    ``altitudes`` are the per-tick UE altitudes as Python floats.
    """

    __slots__ = ("shadow_db", "fastfade", "fading", "rsrp", "altitudes", "loss")

    def __init__(
        self,
        shadow_db: np.ndarray,
        fastfade: np.ndarray,
        fading: list[float],
        rsrp: np.ndarray,
        altitudes: list[float],
        loss: np.ndarray,
    ) -> None:
        self.shadow_db = shadow_db
        self.fastfade = fastfade
        self.fading = fading
        self.rsrp = rsrp
        self.altitudes = altitudes
        self.loss = loss


def build_tick_plans(
    channels: Sequence[CellularChannel], times: Sequence[float]
) -> tuple[list[TickPlan], np.ndarray]:
    """Precompute the whole-horizon stochastic planes for a seed batch.

    All channels must share layout size and channel config (the batch
    planner groups work units so that only the seed differs). The AR
    recursions run over ``(n_seeds, n_cells)`` state matrices — one
    numpy op per tick for the whole batch instead of one per seed —
    and each stream is refilled with a single block draw covering
    every tick, consuming the per-seed generators in exactly the
    scalar order.

    Returns the per-seed plans plus the batch-stacked
    ``(n_seeds, n_ticks, n_cells)`` RSRP plane (the per-seed ``rsrp``
    arrays are views into it), so the lockstep loop can slice one
    tick across all seeds without restacking.
    """
    n = len(times)
    n_seeds = len(channels)
    n_cells = len(channels[0].layout)
    cfg = channels[0].config
    prop = cfg.propagation
    for ch in channels:
        if len(ch.layout) != n_cells:
            raise ValueError("batched channels must share the layout size")
        # Geometry for the whole horizon (shared positions cache makes
        # this cheap for fixed-trajectory air sweeps).
        ch._extend_geometry(n - 1)

    det = np.empty((n_seeds, n, n_cells))
    alts = np.empty((n_seeds, n))
    for s, ch in enumerate(channels):
        det[s] = ch._det[:n]
        alts[s] = ch._altitudes[:n]

    # --- shadowing: OU recursion with per-tick dt-dependent rho -----
    # Scalar: rho = exp(-dt / corr); V = rho*V + sqrt(1-rho^2)*noise,
    # with no draw on the first sample (dt == 0). dt comes from the
    # exact tick times, so rho is computed per tick with math.exp —
    # never np.exp, whose vectorized libm may differ in the last ulp.
    corr = prop.shadow_corr_time
    rhos = [0.0] * n
    cs = [0.0] * n
    for t in range(1, n):
        dt = max(times[t] - times[t - 1], 0.0)
        rho = math.exp(-dt / corr)
        rhos[t] = rho
        cs[t] = math.sqrt(1 - rho * rho)
    frac_sh = np.clip(alts / prop.air_transition_alt, 0.0, 1.0)
    shadow_std = prop.shadow_std_ground_db + frac_sh * (
        prop.shadow_std_air_db - prop.shadow_std_ground_db
    )
    shadow_noise = np.empty((n_seeds, max(n - 1, 1), n_cells))
    values = np.empty((n_seeds, n_cells))
    for s, ch in enumerate(channels):
        shadowing = ch._shadowing
        values[s] = shadowing._values
        if n > 1:
            shadow_noise[s] = shadowing._rng.normal(
                0.0, 1.0, size=(n - 1, n_cells)
            )
    shadow_db = np.empty((n_seeds, n, n_cells))
    shadow_db[:, 0, :] = values * shadow_std[:, 0][:, None]
    for t in range(1, n):
        values = rhos[t] * values + cs[t] * shadow_noise[:, t - 1, :]
        shadow_db[:, t, :] = values * shadow_std[:, t][:, None]
    del shadow_noise

    # --- aerial fast fading: AR(1) at the fixed tick period ---------
    rho_ff = math.exp(-MEASUREMENT_PERIOD / cfg.air_fastfade_corr_time)
    c_ff = math.sqrt(1 - rho_ff * rho_ff)
    ff_noise = np.empty((n_seeds, n, n_cells))
    for s, ch in enumerate(channels):
        ff_noise[s] = ch._fastfade_rng.normal(0.0, 1.0, size=(n, n_cells))
    fastfade = np.empty((n_seeds, n, n_cells))
    state = np.zeros((n_seeds, n_cells))
    for t in range(n):
        state = rho_ff * state + c_ff * ff_noise[:, t, :]
        fastfade[:, t, :] = state
    del ff_noise

    # --- measurement noise + RSRP assembly --------------------------
    # Scalar draws normal(0, noise_std, size=n_cells) per tick; a
    # standard-normal block scaled by the per-tick std produces the
    # same values (loc=0, and numpy applies loc + scale*z per
    # element), consuming the stream identically.
    frac40 = np.minimum(alts / 40.0, 1.0)
    meas_std = cfg.meas_noise_ground_db + frac40 * (
        cfg.meas_noise_air_db - cfg.meas_noise_ground_db
    )
    rsrp = det + shadow_db
    meas_noise = np.empty((n_seeds, n, n_cells))
    for s, ch in enumerate(channels):
        meas_noise[s] = ch._meas_rng.normal(0.0, 1.0, size=(n, n_cells))
    rsrp += meas_std[:, :, None] * meas_noise
    del meas_noise
    rsrp += (frac40 * cfg.air_fastfade_std_db)[:, :, None] * fastfade

    # --- scalar fading: AR(1) with altitude-scaled innovation -------
    rho_f = math.exp(-MEASUREMENT_PERIOD / cfg.fading_corr_time)
    c_f = math.sqrt(1 - rho_f * rho_f)
    fading_std = cfg.fading_std_ground_db + frac40 * (
        cfg.fading_std_air_db - cfg.fading_std_ground_db
    )
    fading_noise = np.empty((n_seeds, n))
    for s, ch in enumerate(channels):
        fading_noise[s] = ch._fading_rng.normal(0.0, 1.0, size=n)
    fading = np.empty((n_seeds, n))
    fstate = np.zeros(n_seeds)
    for t in range(n):
        fstate = rho_f * fstate + c_f * (fading_noise[:, t] * fading_std[:, t])
        fading[:, t] = fstate

    plans = [
        TickPlan(
            shadow_db=shadow_db[s],
            fastfade=fastfade[s],
            fading=fading[s].tolist(),
            rsrp=rsrp[s],
            altitudes=alts[s].tolist(),
            loss=channels[s]._loss3d,
        )
        for s in range(n_seeds)
    ]
    return plans, rsrp


class FleetTickState:
    """Per-tick state hoisted across the members of one fleet.

    An unplanned channel pays, per tick, one L3-filter EWMA update
    over the cell vector and one ``np.delete`` + ``np.power`` pass for
    the neighbour-interference ratio. Stacked over an
    ``(n_members, n_cells)`` matrix both collapse to one numpy op per
    tick for the whole fleet: the filter recursion is elementwise, so
    the matrix update equals the per-member updates row for row, and
    the power matrix feeds each member a slice-based others-sum
    (value-identical to delete-then-power).

    Only these two planes hoist. Everything that *reads* them — cell
    ranking under load-balancing offsets, admission blocks, the A3
    state machine, PRB contention — stays per member in session order,
    because contention state mutates within a tick as earlier members
    attach (see :meth:`HandoverEngine.measure_prefiltered`).

    Members share one instance and call :meth:`advance` idempotently
    from their own tick callbacks; the first caller per tick does the
    matrix work.
    """

    __slots__ = ("rsrp_planes", "f_matrix", "powered", "_alpha", "_k")

    def __init__(self, rsrp_planes: np.ndarray, alpha: float) -> None:
        self.rsrp_planes = rsrp_planes
        self._alpha = alpha
        self.f_matrix: np.ndarray | None = None
        self.powered: np.ndarray | None = None
        self._k = -1

    def advance(self, k: int) -> None:
        """Advance the hoisted planes to tick ``k`` (idempotent)."""
        if k == self._k:
            return
        if k != self._k + 1:
            raise RuntimeError(
                f"fleet ticks must advance in lockstep: {self._k} -> {k}"
            )
        if self.f_matrix is None:
            # First measurement: the filter initializes to the raw
            # RSRP (scalar: ``rsrp.astype(float).copy()``).
            self.f_matrix = self.rsrp_planes[:, 0, :].copy()
        else:
            alpha = self._alpha
            self.f_matrix = (
                (1 - alpha) * self.f_matrix + alpha * self.rsrp_planes[:, k, :]
            )
        self.powered = np.power(10.0, self.f_matrix / 10.0)
        self._k = k


class FleetTicker:
    """One event-loop callback driving every fleet member's tick.

    Unplanned channels re-arm themselves; N of them would put N
    ``schedule_at``/heap-pop pairs per tick on the loop heap for
    events that all fire at the same anchored instant and run in
    member order anyway. The ticker collapses them into one event per
    tick that calls each member's ``_tick`` in session order.

    Ordering is preserved where it matters: the last member's
    synchronous tick 0 arms the ticker (so the shared tick-1 event
    sits after every member's tick-0 media activity, exactly where
    the last per-channel re-arm would), and each firing re-arms at
    the *end* of the callback, keeping every member's same-instant
    media completions ahead of its own next tick just as per-channel
    re-arms do. Only the relative order of one member's tick against
    *another* member's same-instant media events changes, and no
    same-instant data flows across that edge: channel ticks never
    read media state, media events never read contention state.

    Each firing also precomputes the A3 neighbour ranking for the
    whole fleet — one masked argmax over the shared filtered-RSRP
    matrix instead of one copy + argmax per member — handed to
    :meth:`HandoverEngine.measure_prefiltered` as a ``hint``. The
    hint is stamped with the contention topology version: a member
    whose predecessors attached mid-tick (new offsets/blocks) fails
    the stamp check and falls back to the live per-member ranking.
    The precompute is skipped outright while any cell sits at the
    admission cap, since blocked-cell masks are per member.
    """

    __slots__ = (
        "_channels", "_loop", "_state", "_contention", "_pending",
        "_anchor", "_rows", "_cols", "hint_k", "hint_topo", "hint_best",
        "hint_margin", "sums_k", "tick_serving", "others_mw",
    )

    def __init__(
        self,
        channels: Sequence[CellularChannel],
        state: FleetTickState,
    ) -> None:
        self._channels = list(channels)
        self._loop = channels[0]._loop
        self._state = state
        self._contention = channels[0]._contention
        self._pending = len(channels)
        self._anchor = 0.0
        self._rows = np.arange(len(channels))
        self._cols = np.arange(max(len(channels[0].layout) - 1, 0))
        self.hint_k = -1
        self.hint_topo = -1
        self.hint_best: np.ndarray | None = None
        self.hint_margin: np.ndarray | None = None
        self.sums_k = -1
        self.tick_serving: np.ndarray | None = None
        self.others_mw: np.ndarray | None = None

    def notify_started(self, anchor: float) -> None:
        """Register one member's synchronous tick 0; the last arms
        the shared tick-1 event."""
        self._anchor = anchor
        self._pending -= 1
        if self._pending == 0:
            self._loop.schedule_at(anchor + MEASUREMENT_PERIOD, self._fire)

    def _fire(self) -> None:
        channels = self._channels
        state = self._state
        contention = self._contention
        k = channels[0]._tick_index
        state.advance(k)
        rows = self._rows
        serving = np.fromiter(
            (ch.engine.serving_cell for ch in channels),
            dtype=np.int64,
            count=len(channels),
        )
        # Fleet-wide neighbour-interference sums: drop each member's
        # serving column with one fancy gather and reduce along the
        # row. The reduction runs the same pairwise kernel over the
        # same values in the same order as the per-member slice-based
        # sum, so the results are value-identical; a member that hands
        # over mid-tick fails the serving-cell check in ``_tick`` and
        # falls back to the per-member sum.
        cols = self._cols
        gathered = state.powered[
            rows[:, None], cols + (cols >= serving[:, None])
        ]
        self.others_mw = gathered.sum(axis=1)
        self.tick_serving = serving
        self.sums_k = k
        if contention._at_cap.size == 0:
            # Fleet-wide A3 ranking: mask each member's serving cell
            # and argmax once. Row-wise this is exactly the per-member
            # ``filtered + offsets`` ranking (the serving score is the
            # same two-operand add the per-member path performs), valid
            # until someone attaches.
            neighbours = state.f_matrix + contention.offsets()
            scores = neighbours[rows, serving]
            neighbours[rows, serving] = -np.inf
            best = neighbours.argmax(axis=1)
            self.hint_best = best
            self.hint_margin = neighbours[rows, best] - scores
            self.hint_topo = contention._topo_version
            self.hint_k = k
        else:
            self.hint_k = -1
        for ch in channels:
            ch._tick()
        self._loop.schedule_at(
            self._anchor + channels[0]._tick_index * MEASUREMENT_PERIOD,
            self._fire,
        )


def install_fleet_plans(
    channels: Sequence[CellularChannel],
    duration: float,
) -> FleetTicker:
    """Precompute and install per-member tick plans for a fleet run.

    The same struct-of-arrays pass :func:`build_tick_plans` runs
    across *seeds* for a campaign sweep here runs across the *members*
    of one fleet: all channels share the layout, the channel config
    and one :class:`~repro.cellular.cell.CellContention`, and differ
    only in their derived RNG streams and their translated
    trajectories, so the AR recursions stack over an
    ``(n_members, n_cells)`` state matrix and each member's streams
    refill with one block draw for the whole horizon. Each member
    still runs its own ``_tick`` (full sessions need the loop for
    pacing, GCC, handover outages), driven in session order by one
    shared :class:`FleetTicker` event per tick — but the ticks share a
    :class:`FleetTickState`, so the L3 filter recursion and the
    interference powers advance once per tick for the whole fleet,
    and :meth:`CellularChannel._tick` reads precomputed rows instead
    of drawing per tick. The branchy per-member state (A3, HET,
    outliers, contention) stays per member.

    ``duration`` must be the fleet's ``run_until`` horizon: the plans
    cover exactly the anchored ticks that horizon fires
    (:func:`probe_tick_times`), and a channel that ticks past its plan
    raises rather than falling back. Returns the ticker.
    """
    contention = channels[0]._contention
    for ch in channels:
        if ch._started:
            raise ValueError("fleet plans must be installed before start")
        if contention is None or ch._contention is not contention:
            raise ValueError("fleet members must share one CellContention")
    plans, rsrp_planes = build_tick_plans(channels, probe_tick_times(duration))
    state = FleetTickState(
        rsrp_planes, channels[0].engine.config.l3_filter_alpha
    )
    ticker = FleetTicker(channels, state)
    for row, (ch, plan) in enumerate(zip(channels, plans)):
        ch.install_plan(plan, state, row, ticker)
        # Outlier draws mix random() and uniform() on one stream; the
        # block-refilled wrapper serves both bit-identically.
        ch._outlier_rng = BatchedUniform(ch._outlier_rng)
    return ticker


def run_lockstep(
    channels: Sequence[CellularChannel], duration: float
) -> list[list[float]]:
    """Execute a channel-only seed batch tick by tick, in lockstep.

    Returns the per-seed uplink-capacity series (one value per tick,
    bit-identical to the scalar run's ``CapacitySample.uplink_bps``
    log); handovers, cells seen and ping-pong counts are left on each
    channel's engine, exactly where the scalar run leaves them.

    The channels must be freshly built (never started), share their
    configuration apart from the seed, and run uncontended without a
    recorder — the campaign batch planner only routes such units here.
    """
    for ch in channels:
        if ch._started:
            raise ValueError("batched channels must not be started")
        if ch._contention is not None or ch.obs.enabled:
            raise ValueError("batched channels must be uncontended/untraced")
    times = probe_tick_times(duration)
    n = len(times)
    n_seeds = len(channels)
    plans, rsrp_planes = build_tick_plans(channels, times)
    engines = [ch.engine for ch in channels]
    cfg = channels[0].config
    post_ramp = cfg.post_handover_ramp
    mbb = cfg.make_before_break
    alpha = engines[0].config.l3_filter_alpha
    one_minus_alpha = 1 - alpha
    # Outlier draws mix random() and uniform() on one stream; the
    # block-refilled wrapper serves both bit-identically.
    for ch in channels:
        ch._outlier_rng = BatchedUniform(ch._outlier_rng)
    uplinks: list[list[float]] = [[] for _ in range(n_seeds)]
    rows = np.arange(n_seeds)
    f_matrix: np.ndarray | None = None
    serving = np.zeros(n_seeds, dtype=np.intp)
    seed_range = range(n_seeds)
    for t in range(n):
        now = times[t]
        if f_matrix is None:
            # First measurement initializes the L3 filter and camps on
            # the strongest cell; no A3 evaluation, no draws.
            f_matrix = rsrp_planes[:, 0, :].copy()
            serving = f_matrix.argmax(axis=1)
            best = serving
            margins = None
        else:
            f_matrix = one_minus_alpha * f_matrix + alpha * rsrp_planes[:, t, :]
            neighbours = f_matrix.copy()
            neighbours[rows, serving] = -np.inf
            best = neighbours.argmax(axis=1)
            margins = neighbours[rows, best] - f_matrix[rows, serving]
        # Neighbour interference, hoisted: one matrix power instead of
        # one np.delete + np.power per seed (value-identical; the
        # serving-cell term keeps the scalar path's Python ``**``).
        powered = np.power(10.0, f_matrix / 10.0)
        for s in seed_range:
            ch = channels[s]
            eng = engines[s]
            plan = plans[s]
            altitude = plan.altitudes[t]
            eng._filtered = f_matrix[s]
            if margins is None:
                eng.serving_cell = int(serving[s])
            elif not eng._gate(now):
                event = eng._evaluate(
                    now, int(best[s]), float(margins[s]), altitude
                )
                if event is not None:
                    serving[s] = eng.serving_cell
                    if not mbb:
                        ch._post_ho_until = (
                            now + event.execution_time + post_ramp
                        )
            sc = eng.serving_cell
            ch.cells_seen.add(sc)
            ch._fading_db = plan.fading[t]
            ch._shadow = plan.shadow_db[t]
            ch._fastfade = plan.fastfade[t]
            ch._update_outliers(now, altitude)
            serving_mw = 10.0 ** (float(f_matrix[s, sc]) / 10.0)
            prow = powered[s]
            others = np.empty(len(prow) - 1)
            others[:sc] = prow[:sc]
            others[sc:] = prow[sc + 1:]
            ratio = INTERFERENCE_LOAD * float(others.sum()) / max(
                serving_mw, 1e-30
            )
            uplink, downlink, _ = ch._capacity(
                now, altitude, plan.loss[t], interference_ratio=ratio
            )
            ch._uplink_bps = uplink
            ch._downlink_bps = downlink
            uplinks[s].append(uplink)
    return uplinks
