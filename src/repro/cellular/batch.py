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

:func:`build_tick_plans` precomputes, one block of ticks at a time,
every plane the tick would otherwise draw per tick, stacked over the
rows: the raw per-cell RSRP the L3 filter reads and the per-cell
uplink SNR the capacity reads at the serving cell (path loss,
shadowing, scalar fading and aerial fast fading folded in), with the
AR recursions stacked over ``(n_rows, n_cells)`` matrices and one
block draw per (row, stream) and block. A block holds at most
:data:`BLOCK_ELEMENTS` elements per plane, so a session or a probe
sweep plans its whole horizon as one block while a long or wide
batch streams it: the batch builds the next block when its ticks
leave the current one (:meth:`TickPlan.next_block`), and its plan
memory does not grow with the horizon. The batch fires one loop event
per tick and moves all its rows through it in four passes:

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
The plan's blocks cover exactly the ticks ``run_until(horizon)`` fires
(:func:`probe_tick_times`). After its last planned tick the batch
drops its rows and its plan, whose two block buffers are the only
planes it allocates, and, instead of re-arming, schedules a
module-level tripwire at the next tick time: a run that goes on past
its horizon fails with "tick plan exhausted" (the last block drew the
streams to the horizon, so no row can draw on), a finished batch
holds no reference to a channel, and no channel holds a plane, so a
finished run's buffers are freed by reference counting even while its
channel sits in the session's reference cycles.

Bit-identity contract
---------------------
Every draw comes from the same derived stream in the same order as a
per-tick draw would (block draws consume ``numpy`` bit generators
exactly like the equivalent scalar calls — the RNG-stability tests pin
this — and each (row, stream) draws its blocks in tick order, so where
the blocks split the horizon changes no value; the shadowing,
fast-fading and scalar-fading states carry across blocks). Every
floating-point expression keeps the association of the
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


#: Most plane elements (rows x ticks x cells) one block of a tick plan
#: holds: 8 MiB per float64 plane. A session or the 8-probe urban sweep
#: (8 x 3001 x 32 = 768,256) plans its whole horizon as one block; a
#: 64-member fleet streams its 120 s (1201 ticks x 32 cells) in three.
BLOCK_ELEMENTS = 1 << 20


class TickPlan:
    """One block of ticks of a batch's planes, stacked over its rows.

    ``rsrp`` is the raw per-cell RSRP (dBm) the L3 filter reads and
    ``snr_db`` the per-cell uplink SNR (dB) the capacity reads at the
    serving cell, both ``(n_rows, hi - lo, n_cells)`` over the ticks
    ``lo`` to ``hi - 1``; ``altitudes[k - lo]`` lists every row's UE
    altitude at tick ``k`` as Python floats. The two planes are views
    of ``buffers``, which the plan allocates once, at most
    :data:`BLOCK_ELEMENTS` elements each, and :meth:`next_block`
    overwrites with the following block, carrying the shadowing,
    fast-fading and scalar-fading states across blocks.
    """

    __slots__ = (
        "rsrp", "snr_db", "altitudes", "lo", "hi", "buffers",
        "_channels", "_times", "_shadow", "_fastfade", "_fading",
    )

    def __init__(
        self, channels: Sequence[CellularChannel], times: Sequence[float]
    ) -> None:
        n_rows = len(channels)
        n_cells = len(channels[0].layout)
        ticks = min(len(times), max(1, BLOCK_ELEMENTS // (n_rows * n_cells)))
        self.buffers = (
            np.empty((n_rows, ticks, n_cells)),
            np.empty((n_rows, ticks, n_cells)),
        )
        self._channels = channels
        self._times = times
        self._shadow = np.array([ch._shadowing._values for ch in channels])
        self._fastfade = np.zeros((n_rows, n_cells))
        self._fading = np.zeros(n_rows)
        self.hi = 0
        self.next_block()

    def next_block(self) -> None:
        """Draw and write the block of ticks that follows the current one.

        Each (row, stream) draws its block of ticks in one call, in
        tick order, and the AR recursions run over ``(n_rows,
        n_cells)`` state matrices, one numpy op per tick for the whole
        batch. The shadowing and fast-fading states are staged in the
        RSRP and SNR buffers, then each row's geometry and measurement
        noise are folded in, in the order of the per-tick formula.
        """
        channels = self._channels
        times = self._times
        n_ticks = len(times)
        lo = self.hi
        rsrp, snr_db = self.buffers
        hi = min(lo + rsrp.shape[1], n_ticks)
        m = hi - lo
        rsrp = rsrp[:, :m]
        snr_db = snr_db[:, :m]
        n_cells = rsrp.shape[2]
        cfg = channels[0].config
        prop = cfg.propagation
        alts = np.array(
            [ch._altitudes(times[0], n_ticks, lo, hi) for ch in channels]
        )

        # --- shadowing: OU recursion with per-tick dt-dependent rho -----
        # As ShadowingProcess.sample: rho = exp(-dt / corr) and
        # V = rho*V + sqrt(1-rho^2)*noise, with no draw on the first
        # sample (dt == 0). dt comes from the exact tick times, so rho is
        # computed per tick with math.exp — never np.exp, whose
        # vectorized libm may differ in the last ulp. The noise is drawn
        # into the RSRP buffer, and the recursion overwrites it with the
        # shadowing in dB.
        frac_sh = np.clip(alts / prop.air_transition_alt, 0.0, 1.0)
        shadow_std = prop.shadow_std_ground_db + frac_sh * (
            prop.shadow_std_air_db - prop.shadow_std_ground_db
        )
        first = 1 if lo == 0 else 0
        if m > first:
            for s, ch in enumerate(channels):
                rsrp[s, first:] = ch._shadowing._rng.normal(
                    0.0, 1.0, size=(m - first, n_cells)
                )
        corr = prop.shadow_corr_time
        values = self._shadow
        for t in range(m):
            k = lo + t
            if k:
                rho = math.exp(-max(times[k] - times[k - 1], 0.0) / corr)
                values = rho * values + math.sqrt(1 - rho * rho) * rsrp[:, t]
            np.multiply(values, shadow_std[:, t, None], out=rsrp[:, t])
        self._shadow = values

        # --- aerial fast fading: AR(1) at the fixed tick period ---------
        # Staged in the SNR buffer, scaled by alt_frac * std: one plane
        # for the RSRP and the uplink SNR, where the serving cell's
        # aerial fast fading makes capacity dip *before* the A3 event
        # fires (Fig. 8/9).
        rho_ff = math.exp(-MEASUREMENT_PERIOD / cfg.air_fastfade_corr_time)
        c_ff = math.sqrt(1 - rho_ff * rho_ff)
        frac40 = np.minimum(alts / 40.0, 1.0)
        ff_scale = frac40 * cfg.air_fastfade_std_db
        for s, ch in enumerate(channels):
            snr_db[s] = ch._fastfade_rng.normal(0.0, 1.0, size=(m, n_cells))
        state = self._fastfade
        for t in range(m):
            state = rho_ff * state + c_ff * snr_db[:, t]
            np.multiply(state, ff_scale[:, t, None], out=snr_db[:, t])
        self._fastfade = state

        # --- scalar fading: AR(1) with altitude-scaled innovation -------
        rho_f = math.exp(-MEASUREMENT_PERIOD / cfg.fading_corr_time)
        c_f = math.sqrt(1 - rho_f * rho_f)
        fading = np.array(
            [ch._fading_rng.normal(0.0, 1.0, size=m) for ch in channels]
        )
        fading *= cfg.fading_std_ground_db + frac40 * (
            cfg.fading_std_air_db - cfg.fading_std_ground_db
        )
        fstate = self._fading
        for t in range(m):
            fstate = rho_f * fstate + c_f * fading[:, t]
            fading[:, t] = fstate
        self._fading = fstate

        # --- per row: geometry and measurement noise --------------------
        # A per-tick normal(0, noise_std, size=n_cells) draw and a
        # standard-normal block scaled by the per-tick std produce the
        # same values (loc=0, and numpy applies loc + scale*z per
        # element), consuming the stream identically. In the scalar
        # formulas' order (a + b == b + a exactly):
        #   RSRP = ((det + shadow) + meas_std * noise) + fastfade
        #   SNR = (((0.5 * shadow + (UL - loss)) + fading) + fastfade)
        # The uplink follows the 3-D path loss to the serving site (the
        # BS receive antenna is wide in the uplink), not the
        # down-tilted pattern that drives handovers.
        meas_std = cfg.meas_noise_ground_db + frac40 * (
            cfg.meas_noise_air_db - cfg.meas_noise_ground_db
        )
        for s, ch in enumerate(channels):
            det, loss = ch._geometry(times[0], n_ticks, lo, hi)
            uplink = rsrp[s] * 0.5
            uplink += UL_BUDGET_DB - loss
            uplink += fading[s, :, None]
            rsrp[s] += det
            rsrp[s] += meas_std[s, :, None] * ch._meas_rng.normal(
                0.0, 1.0, size=(m, n_cells)
            )
            rsrp[s] += snr_db[s]
            snr_db[s] += uplink
        self.rsrp = rsrp
        self.snr_db = snr_db
        self.altitudes = alts.T.tolist()
        self.lo = lo
        self.hi = hi


def build_tick_plans(
    channels: Sequence[CellularChannel], times: Sequence[float]
) -> TickPlan:
    """Build a batch's tick plan over ``times``, holding its first block.

    All channels must share the layout size, one
    :class:`~repro.cellular.channel.ChannelConfig` and one operator
    profile (equal by value): the AR, noise, fading and capacity
    constants are read once for the batch. The plan holds at most
    :data:`BLOCK_ELEMENTS` ticks-by-cells elements over all rows per
    plane; :meth:`TickPlan.next_block` draws the next block when the
    batch's ticks leave the current one, consuming the per-row
    generators in exactly the per-tick order.
    """
    n_cells = len(channels[0].layout)
    cfg = channels[0].config
    profile = channels[0].profile
    for ch in channels:
        if len(ch.layout) != n_cells:
            raise ValueError("batched channels must share the layout size")
        if ch.config != cfg:
            raise ValueError("batched channels must share one ChannelConfig")
        if ch.profile != profile:
            raise ValueError("batched channels must share one OperatorProfile")
    return TickPlan(channels, times)


class FleetTickState:
    """What ticks one batch: its planes, its rows and one loop event per tick.

    Holds the :class:`TickPlan` and the batch-wide planes the kernel
    reads — the L3-filtered RSRP matrix ``f_matrix`` and its powers,
    which :meth:`advance` moves one tick at a time (the filter
    recursion is elementwise, so the matrix update equals the per-row
    updates row for row), building the plan's next block when the
    tick leaves the current one — and runs the tick kernel (see the
    module docstring) over its rows.

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
        "next_tick",
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
        #: Time of the tick after the last one run (``inf`` past the
        #: last planned tick): until then no row's rates change.
        self.next_tick = times[0]

    def advance(self, k: int) -> None:
        """Advance the filter and power planes to tick ``k`` (idempotent).

        Builds the plan's next block first when ``k`` is past its
        current one.
        """
        if k == self._k:
            return
        if k != self._k + 1:
            raise RuntimeError(
                f"batch ticks must advance in lockstep: {self._k} -> {k}"
            )
        plan = self.plan
        if k == plan.hi:
            plan.next_block()
        rsrp = plan.rsrp[:, k - plan.lo, :]
        if self.f_matrix is None:
            # First measurement: the filter initializes to the raw
            # RSRP (scalar: ``rsrp.astype(float)``).
            self.f_matrix = rsrp.copy()
        else:
            alpha = self._alpha
            self.f_matrix = (1 - alpha) * self.f_matrix + alpha * rsrp
        self.powered = np.power(10.0, self.f_matrix / 10.0)
        self._k = k
        times = self._times
        self.next_tick = times[k + 1] if k + 1 < len(times) else math.inf

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
        plan = self.plan
        j = k - plan.lo
        chans = self._rows[lo:hi]
        ids = self._ids[lo:hi]
        altitudes = plan.altitudes[j][lo:hi]
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
        snr_10 = (plan.snr_db[ids, j, cells] / 10.0).tolist()
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
        "was built for (its last block drew the RNG streams to that "
        "horizon, so it cannot draw on)"
    )


def install_fleet_plans(
    channels: Sequence[CellularChannel],
    duration: float,
) -> FleetTickState:
    """Install the tick plan of one batch, its first block built.

    ``channels`` become the batch's rows, in order. They must share
    one event loop and either one
    :class:`~repro.cellular.cell.CellContention` or none, and must not
    be started. The plan covers the anchored ticks from the loop's
    current time up to ``duration`` inclusive
    (:func:`probe_tick_times`), one block of at most
    :data:`BLOCK_ELEMENTS` elements per plane at a time, so
    ``duration`` must be the ``run_until`` horizon: a channel that
    ticks past it raises. Each
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
