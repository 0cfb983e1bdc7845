"""One tick kernel for every cellular channel.

Every :class:`~repro.cellular.channel.CellularChannel` ticks as a row
of a batch, ticked by one shared :class:`FleetTickState`:

* a session, a ping, multipath or control run, or a single probe is a
  batch of one row, which ``CellularChannel.start`` installs;
* a fleet is one row per member, the rows sharing its
  :class:`~repro.cellular.cell.CellContention`
  (:func:`install_fleet_plans`);
* a probe sweep is one row per seed on one shared event loop
  (:func:`run_lockstep`).

:func:`build_tick_plans` precomputes, for the whole horizon, every
plane the tick would otherwise draw per tick, stacked over the rows:
the raw per-cell RSRP the L3 filter reads and the per-cell uplink SNR
the capacity reads at the serving cell (path loss, shadowing, scalar
fading and aerial fast fading folded in at install), with the AR
recursions stacked over ``(n_rows, n_cells)`` matrices and one block
RNG refill per (row, stream). The batch then fires one loop event per
tick and moves all its rows through it in four passes:

1. **A3.** The L3 filter and neighbour powers advance for all rows in
   one matrix op each, and one masked argmax ranks every row's best
   neighbour (the *hint*). One loop over the rows then calls the A3
   state machine only where it can act: a row inside its handover or
   prohibit window is gated (:meth:`HandoverEngine._gate`, called only
   while a window is armed), and a row whose margin is at or below the
   hysteresis with no candidate pending would only clear an already
   clear candidate, so it is skipped. A row without a valid hint — its
   first tick, any tick with a cell at the admission cap, and every
   row after an earlier row's move bumped the scheduler's ranking
   version — ranks live, as a lone engine would. A row that moves runs
   the ranking half of its attach here (:meth:`CellContention.count_move`),
   since later rows' live ranking reads it. The outlier stream draws
   only where the UE is above the outlier altitude or an episode is
   open. The only event a tick pushes, a handover's path restore,
   is pushed here in row order.
2. **Capacity.** One gather of the SNR plane and the filtered RSRP at
   every row's serving cell, one gather-sum of the neighbour powers for
   the serving cells after pass 1, and the libm transcendentals per
   element; the pre-/post-handover and outlier factors multiply only
   the rows that have one.
3. **Shares** (fleets). Every row's PRB requests in one array op; only
   the cells where a request changed or a member moved are re-split,
   walking those rows in row order
   (:meth:`CellContention.tick_shares`).
4. **Output.** Each row's rates, :class:`CapacitySample`, 1 Hz
   :class:`RssiReport`, congestion time and spans, and — when its
   recorder is enabled — its gauges and histograms, in row order.

Tick 0 runs row by row from ``CellularChannel.start`` (see
:meth:`FleetTickState.start_row`), the kernel over one row each: a
fleet member's first attach must precede the next member's initial
cell selection, exactly as when each member started alone.

Within one tick, a row's A3 step and its share both see the other
rows in row order: rows before it have handed over and attached, rows
after it have not. Trace records of different rows within one tick
come grouped by pass (A3 and outlier records of all rows, then the
congestion and capacity-dip spans of all rows); each row's own
records keep their order, and metrics are unaffected.

End of the horizon
------------------
The plans cover exactly the ticks ``run_until(horizon)`` fires
(:func:`probe_tick_times`). After its last planned tick the batch
drops its rows and every plane and, instead of re-arming, schedules a
module-level tripwire at the next tick time: a run that goes on past
its horizon fails with "tick plan exhausted" (the block refills
already consumed the streams, so no row can draw on), a finished batch
holds no reference to a channel, and no channel holds a plane, so a
finished run's planes are freed by reference counting even while its
channel sits in the session's reference cycles.

Bit-identity contract
---------------------
Every draw comes from the same derived stream in the same order as a
per-tick draw would (block draws consume ``numpy`` bit generators
exactly like the equivalent scalar calls — the RNG-stability tests pin
this). Every floating-point expression keeps the association of the
per-row scalar formula it replaces; only elementwise ``+ - * /``,
``minimum``/``maximum`` on finite values and ``ceil`` run as numpy
array ops, which round exactly like Python floats. ``10.0 ** x``,
``math.log10`` and ``math.log2`` stay per-element libm calls: numpy's
SIMD kernels for them differ from libm in the last ulp on some inputs
and hosts. Records hold Python scalars only (``.tolist()``), never a
numpy scalar. The golden digests of ``tests/test_fingerprints.py``
guard all of it.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.cellular.channel import (
    EFFECTIVE_UL_BANDWIDTH,
    INTERFERENCE_LOAD,
    MEASUREMENT_PERIOD,
    SINR_BUCKETS,
    UL_BUDGET_DB,
    CapacitySample,
    CellularChannel,
    RssiReport,
)
from repro.util.rng import BatchedUniform


def probe_tick_times(duration: float, anchor: float) -> list[float]:
    """Measurement-tick times ``anchor + k * MEASUREMENT_PERIOD``.

    Every time up to and including ``duration``: exactly the ticks an
    anchored 10 Hz timer fires under ``run_until(duration)``. Each is
    computed from the anchor, never accumulated, so tick times never
    drift and line up with the precomputed geometry rows.
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


@dataclass(slots=True)
class TickPlan:
    """Whole-horizon planes of one batch, stacked over its rows.

    ``rsrp`` is the raw per-cell RSRP (dBm) the L3 filter reads and
    ``snr_db`` the per-cell uplink SNR (dB) the capacity reads at the
    serving cell, both ``(n_rows, n_ticks, n_cells)``;
    ``altitudes[k]`` lists every row's UE altitude at tick ``k`` as
    Python floats.
    """

    rsrp: np.ndarray
    snr_db: np.ndarray
    altitudes: list[list[float]]


def build_tick_plans(
    channels: Sequence[CellularChannel], times: Sequence[float]
) -> TickPlan:
    """Precompute the whole-horizon planes for a batch's rows.

    All channels must share the layout size, one
    :class:`~repro.cellular.channel.ChannelConfig` and one operator
    profile (equal by value): the AR, noise, fading and capacity
    constants are read once for the batch. The AR recursions run over
    ``(n_rows, n_cells)`` state matrices — one numpy op per tick for
    the whole batch instead of one per row — and each stream is
    refilled with a single block draw covering every tick, consuming
    the per-row generators in exactly the per-tick order.
    """
    n = len(times)
    n_seeds = len(channels)
    n_cells = len(channels[0].layout)
    cfg = channels[0].config
    profile = channels[0].profile
    prop = cfg.propagation
    for ch in channels:
        if len(ch.layout) != n_cells:
            raise ValueError("batched channels must share the layout size")
        if ch.config != cfg:
            raise ValueError("batched channels must share one ChannelConfig")
        if ch.profile != profile:
            raise ValueError("batched channels must share one OperatorProfile")

    # Geometry for the whole horizon (the shared positions cache makes
    # this cheap for fixed-trajectory air sweeps).
    det = np.empty((n_seeds, n, n_cells))
    alts = np.empty((n_seeds, n))
    losses = []
    for s, ch in enumerate(channels):
        det[s], loss, alts[s] = ch._geometry(times[0], n)
        losses.append(loss)

    # --- shadowing: OU recursion with per-tick dt-dependent rho -----
    # As ShadowingProcess.sample: rho = exp(-dt / corr) and
    # V = rho*V + sqrt(1-rho^2)*noise, with no draw on the first
    # sample (dt == 0). dt comes from the exact tick times, so rho is
    # computed per tick with math.exp — never np.exp, whose
    # vectorized libm may differ in the last ulp.
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
    # A per-tick normal(0, noise_std, size=n_cells) draw and a
    # standard-normal block scaled by the per-tick std produce the
    # same values (loc=0, and numpy applies loc + scale*z per
    # element), consuming the stream identically.
    frac40 = np.minimum(alts / 40.0, 1.0)
    meas_std = cfg.meas_noise_ground_db + frac40 * (
        cfg.meas_noise_air_db - cfg.meas_noise_ground_db
    )
    rsrp = det + shadow_db
    del det
    meas_noise = np.empty((n_seeds, n, n_cells))
    for s, ch in enumerate(channels):
        meas_noise[s] = ch._meas_rng.normal(0.0, 1.0, size=(n, n_cells))
    rsrp += meas_std[:, :, None] * meas_noise
    del meas_noise
    # (alt_frac * std) * fastfade: one plane for the RSRP here and the
    # uplink SNR below, where the serving cell's aerial fast fading
    # makes capacity dip *before* the A3 event fires (Fig. 8/9).
    fastfade *= (frac40 * cfg.air_fastfade_std_db)[:, :, None]
    rsrp += fastfade

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

    # --- uplink SNR at every cell, in the scalar formula's order ----
    # (((UL - loss) + 0.5 * shadow) + fading) + (alt_frac * std) * ff,
    # in the shadowing plane's buffer (a + b == b + a exactly): the
    # uplink follows the 3-D path loss to the serving site (the BS
    # receive antenna is wide in the uplink), not the down-tilted
    # pattern that drives handovers.
    snr_db = shadow_db
    snr_db *= 0.5
    for s, loss in enumerate(losses):
        snr_db[s] += UL_BUDGET_DB - loss
    snr_db += fading[:, :, None]
    snr_db += fastfade
    return TickPlan(rsrp=rsrp, snr_db=snr_db, altitudes=alts.T.tolist())


class FleetTickState:
    """What ticks one batch: its planes, its rows and one loop event per tick.

    Holds the :class:`TickPlan` and the batch-wide planes the kernel
    reads — the L3-filtered RSRP matrix ``f_matrix`` and its powers,
    which :meth:`advance` moves one tick at a time (the filter
    recursion is elementwise, so the matrix update equals the per-row
    updates row for row) — and runs the tick kernel (see the module
    docstring) over its rows.

    Tick 0 runs row by row from ``CellularChannel.start`` (see
    :meth:`start_row`); the last row to start arms tick 1. Each later
    tick is one loop event, re-armed at the *end* of the callback, so
    every row's same-instant media completions stay ahead of its next
    tick exactly as a per-channel re-arm would keep them. Only the
    relative order of one row's tick against *another* row's
    same-instant media events differs from one event per row, and no
    same-instant data flows across that edge: channel ticks never read
    media state, media events never read contention state.
    """

    __slots__ = (
        "_rows", "_loop", "_contention", "_times", "_pending", "_ids",
        "_id_column", "_slots", "_slot_ids", "_nbr", "_alpha", "_hysteresis",
        "_config", "_profile", "plan", "f_matrix", "powered", "_k",
    )

    def __init__(
        self,
        channels: Sequence[CellularChannel],
        plan: TickPlan,
        times: list[float],
    ) -> None:
        first = channels[0]
        n_cells = len(first.layout)
        self._rows = list(channels)
        self._loop = first._loop
        self._contention = contention = first._contention
        self._times = times
        self._pending = len(channels)
        self._ids = np.arange(len(channels))
        self._id_column = self._ids[:, None]
        if contention is not None:
            self._slots = [contention._slots[ch._ue_id] for ch in channels]
            self._slot_ids = np.array(self._slots)
        #: ``_nbr[c]``: every cell but ``c``, in column order — the
        #: neighbours whose powers interfere with serving cell ``c``.
        self._nbr = np.array(
            [[c for c in range(n_cells) if c != s] for s in range(n_cells)],
            dtype=np.intp,
        ).reshape(n_cells, n_cells - 1)
        self._config = first.config
        self._profile = first.profile
        self._alpha = first.config.a3.l3_filter_alpha
        self._hysteresis = first.config.a3.hysteresis_db
        self.plan: TickPlan | None = plan
        self.f_matrix: np.ndarray | None = None
        self.powered: np.ndarray | None = None
        self._k = -1

    def advance(self, k: int) -> None:
        """Advance the filter and power planes to tick ``k`` (idempotent)."""
        if k == self._k:
            return
        if k != self._k + 1:
            raise RuntimeError(
                f"batch ticks must advance in lockstep: {self._k} -> {k}"
            )
        rsrp = self.plan.rsrp
        if self.f_matrix is None:
            # First measurement: the filter initializes to the raw
            # RSRP (scalar: ``rsrp.astype(float)``).
            self.f_matrix = rsrp[:, 0, :].copy()
        else:
            alpha = self._alpha
            self.f_matrix = (1 - alpha) * self.f_matrix + alpha * rsrp[:, k, :]
        self.powered = np.power(10.0, self.f_matrix / 10.0)
        self._k = k

    def start_row(self, row: int) -> None:
        """Run row ``row``'s tick 0; the last row to start arms tick 1."""
        now = self._times[0]
        if self._loop.now != now:
            raise RuntimeError(
                "a channel must start at the time its tick plan was "
                f"installed ({now}), not at {self._loop.now}"
            )
        self._tick(0, row, row + 1)
        self._pending -= 1
        if self._pending == 0:
            self._arm(1)

    def _arm(self, k: int) -> None:
        times = self._times
        if k < len(times):
            self._loop.schedule_at(times[k], self._fire)
            return
        # Past the last planned tick: release the rows and every
        # plane, and leave a tripwire that holds neither.
        self._rows = []
        self.plan = None
        self.f_matrix = None
        self.powered = None
        self._loop.schedule_at(times[0] + k * MEASUREMENT_PERIOD, _plan_exhausted)

    def _fire(self) -> None:
        k = self._k + 1
        self._tick(k, 0, len(self._ids))
        self._arm(k + 1)

    def _tick(self, k: int, lo: int, hi: int) -> None:
        """Move rows ``lo`` to ``hi - 1`` through tick ``k``.

        Tick 0 runs one row at a time; every later tick runs all rows.
        Per-row lists below are indexed by position ``row - lo``.
        """
        self.advance(k)
        now = self._times[k]
        f = self.f_matrix
        chans = self._rows[lo:hi]
        ids = self._ids[lo:hi]
        altitudes = self.plan.altitudes[k][lo:hi]
        contention = self._contention
        config = self._config

        # --- pass 1: A3 ---------------------------------------------
        hinted = False
        if k:
            serving = [ch.engine.serving_cell for ch in chans]
            if contention is None:
                scores = f.copy()
            elif contention._at_cap.size == 0:
                scores = f + contention.offsets()
                stamp = contention._rank_version
            else:
                # Admission blocks differ per member: everyone ranks live.
                scores = None
            if scores is not None:
                # Mask each row's serving cell and argmax once. Row-wise
                # this is exactly the per-engine ``filtered + offsets``
                # ranking (the serving score is the same two-operand add).
                start = np.array(serving)
                own = scores[ids, start]
                scores[ids, start] = -np.inf
                best = scores.argmax(axis=1)
                margins = (scores[ids, best] - own).tolist()
                bests = best.tolist()
                hinted = True
        else:
            serving = [-1] * (hi - lo)
        hysteresis = self._hysteresis
        outlier_altitude = config.outlier_altitude
        moved: list[int] = []
        factors: dict[int, list[float]] = {}
        for pos, (ch, altitude) in enumerate(zip(chans, altitudes)):
            engine = ch.engine
            if not hinted:
                if contention is None:
                    event = engine.measure_prefiltered(
                        now, f[lo + pos], altitude=altitude
                    )
                else:
                    event = engine.measure_prefiltered(
                        now,
                        f[lo + pos],
                        altitude=altitude,
                        offsets=contention.offsets(),
                        blocked=contention.blocked_cells(ch._ue_id),
                    )
            elif (
                engine._in_handover_until is not None
                or engine._last_handover is not None
            ) and engine._gate(now):
                event = None
            elif engine._a3_candidate is None and margins[pos] <= hysteresis:
                event = None
            else:
                event = engine.measure_prefiltered(
                    now,
                    f[lo + pos],
                    altitude=altitude,
                    hint=(bests[pos], margins[pos]),
                )
            if event is not None or not k:
                cell = engine.serving_cell
                serving[pos] = cell
                ch.cells_seen.add(cell)
                moved.append(pos)
                if event is not None:
                    ch._begin_outage(now, event.execution_time)
                if contention is not None:
                    contention.count_move(
                        contention._cells[self._slots[lo + pos]], cell
                    )
                    if hinted and contention._rank_version != stamp:
                        hinted = False
            if ch._outlier_until is not None or altitude - outlier_altitude > 0:
                ch._update_outliers(now, altitude)
            if (
                engine._a3_since is not None
                or ch._post_ho_until is not None
                or ch._outlier_until is not None
            ):
                factors[pos] = _capacity_factors(ch, now)

        # --- pass 2: capacity ---------------------------------------
        # ``b if b > a else a`` is ``max(a, b)`` and ``b if b < a else
        # a`` is ``min(a, b)``, value for value, without a call.
        cells = np.array(serving)
        snr_10 = (self.plan.snr_db[ids, k, cells] / 10.0).tolist()
        rsrp_row = f[ids, cells]
        rsrp = rsrp_row.tolist()
        rsrp_10 = (rsrp_row / 10.0).tolist()
        # Neighbour interference over the serving cell's power: in the
        # air many neighbours are received nearly as strongly as the
        # serving cell, raising the effective interference floor.
        load = (
            INTERFERENCE_LOAD
            * self.powered[self._id_column[lo:hi], self._nbr[cells]].sum(axis=1)
        ).tolist()
        profile = self._profile
        scale = profile.capacity_scale
        ul_cap = profile.uplink_plan_cap
        dl_cap = profile.downlink_plan_cap
        sinr_db: list[float] = []
        uplink: list[float] = []
        downlink: list[float] = []
        for pos, (s, r, o) in enumerate(zip(snr_10, rsrp_10, load)):
            power = 10.0 ** r
            sinr_lin = 10.0 ** s / (1.0 + o / (1e-30 if 1e-30 > power else power))
            sinr_db.append(
                10.0 * math.log10(1e-6 if 1e-6 > sinr_lin else sinr_lin)
            )
            up = EFFECTIVE_UL_BANDWIDTH * math.log2(1.0 + sinr_lin) * scale
            if ul_cap < up:
                up = ul_cap
            down = 6.0 * up
            if dl_cap < down:
                down = dl_cap
            if pos in factors:
                for factor in factors[pos]:
                    up *= factor
                    down *= factor
            uplink.append(1e4 if 1e4 > up else up)
            downlink.append(1e4 if 1e4 > down else down)

        # --- pass 3: shares -----------------------------------------
        if contention is not None:
            share_ul, share_dl = contention.tick_shares(
                self._slots[lo:hi],
                self._slot_ids[lo:hi],
                serving,
                moved,
                uplink,
                downlink,
            )
            congestion_share = contention.config.congestion_share

        # --- pass 4: output -----------------------------------------
        share = 1.0
        for pos, ch in enumerate(chans):
            up = uplink[pos]
            down = downlink[pos]
            if contention is not None:
                share = share_ul[pos]
                if share != 1.0:
                    up *= share
                    if 1e4 > up:
                        up = 1e4
                share_down = share_dl[pos]
                if share_down != 1.0:
                    down *= share_down
                    if 1e4 > down:
                        down = 1e4
                if share < congestion_share:
                    ch.congestion_time += MEASUREMENT_PERIOD
                    if ch._congestion_t0 is None:
                        ch._congestion_t0 = now
                        ch._congestion_min = share
                    elif share < ch._congestion_min:
                        ch._congestion_min = share
                elif ch._congestion_t0 is not None:
                    ch._close_congestion(now)
            ch._uplink_bps = up
            ch._downlink_bps = down
            obs = ch.obs
            if obs.enabled:
                obs.gauge("channel/uplink_bps", up)
                obs.gauge("channel/downlink_bps", down)
                obs.observe("channel/sinr_db", sinr_db[pos], buckets=SINR_BUCKETS)
                ch.capacity_dip.update(now, up)
            cell = serving[pos]
            ch.samples.append(
                CapacitySample(
                    now,
                    up,
                    down,
                    cell,
                    rsrp[pos],
                    sinr_db[pos],
                    altitudes[pos],
                    ch.engine._in_handover_until is not None,
                    share,
                )
            )
            if now - ch._last_rssi_time >= 1.0:
                ch._last_rssi_time = now
                ch.rssi_log.append(RssiReport(now, rsrp[pos], cell))


def _capacity_factors(ch: CellularChannel, now: float) -> list[float]:
    """The capacity multipliers a row's tick applies, in order.

    Applied one by one to both directions, after the plan caps and
    before the 10 kbps floor. Ends an elapsed post-handover window.
    """
    config = ch.config
    factors = []
    # The radio link about to hand over is already poor while the A3
    # timer runs (interference from the overtaking cell).
    since = ch.engine._a3_since
    if since is not None:
        age = max(0.0, now - since)
        if age > 0.0:
            depth = min(age / config.a3.time_to_trigger, 1.0)
            factors.append(1.0 - (1.0 - config.pre_handover_factor) * depth)
    if ch._post_ho_until is not None:
        if now < ch._post_ho_until:
            factors.append(config.post_handover_factor)
        else:
            ch._post_ho_until = None
    if ch._outlier_until is not None:
        factors.append(config.outlier_capacity_factor)
    return factors


def _plan_exhausted() -> None:
    raise RuntimeError(
        "tick plan exhausted: a channel ticked past the horizon its plan "
        "was built for (the block refills already consumed its RNG "
        "streams, so it cannot draw on)"
    )


def install_fleet_plans(
    channels: Sequence[CellularChannel],
    duration: float,
) -> FleetTickState:
    """Precompute and install the tick plans of one batch.

    ``channels`` become the batch's rows, in order. They must share
    one event loop and either one
    :class:`~repro.cellular.cell.CellContention` or none, and must not
    be started. The plans cover the anchored ticks from the loop's
    current time up to ``duration`` inclusive
    (:func:`probe_tick_times`), so ``duration`` must be the
    ``run_until`` horizon: a channel that ticks past it raises. Each
    row's outlier stream is wrapped in a block-refilled
    :class:`~repro.util.rng.BatchedUniform` (its draws mix
    ``random()`` and ``uniform()`` on one stream; the wrapper serves
    both bit-identically). Returns the batch.
    """
    loop = channels[0]._loop
    contention = channels[0]._contention
    for ch in channels:
        if ch._batch is not None:
            raise ValueError("tick plans are installed once, before start")
        if ch._loop is not loop:
            raise ValueError("batched channels must share one event loop")
        if ch._contention is not contention:
            raise ValueError(
                "batched channels must share one CellContention or none"
            )
    times = probe_tick_times(duration, loop.now)
    if not times:
        raise ValueError(f"horizon {duration} ends before {loop.now}")
    state = FleetTickState(channels, build_tick_plans(channels, times), times)
    for row, ch in enumerate(channels):
        ch._batch = state
        ch._row = row
        ch._outlier_rng = BatchedUniform(ch._outlier_rng)
    return state


def run_lockstep(
    channels: Sequence[CellularChannel], duration: float
) -> list[list[float]]:
    """Run a channel-only batch to ``duration`` on its rows' shared loop.

    Installs one batch over ``channels`` (see
    :func:`install_fleet_plans`), starts each row, runs the loop and
    returns the per-row uplink-capacity series (one value per tick).
    Handovers, samples and cells seen are left on each channel.
    """
    install_fleet_plans(channels, duration)
    for ch in channels:
        ch.start()
    channels[0]._loop.run_until(duration)
    return [[sample.uplink_bps for sample in ch.samples] for ch in channels]
