"""One tick batch for every cellular channel.

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
plane the tick would otherwise draw per tick — shadowing dB offsets,
aerial fast fading, scalar fading and the assembled per-cell RSRP —
with the AR recursions stacked over ``(n_rows, n_cells)`` matrices and
one block RNG refill per (row, stream). The batch then fires one loop
event per tick. It advances the L3 filter and the neighbour powers for
all rows in one matrix op each, publishes each row's serving cell,
neighbour-interference sum and A3 ranking hint, and calls each row's
``_tick`` in row order. Everything branchy and stateful (A3
hysteresis/TTT, HET draws, prohibit timers, outlier episodes, pre/
post-handover windows, PRB contention) stays per row.

Hints and their stamps
----------------------
The published sums and ranking are exact for a row only while what
they read is unchanged. A row whose serving cell moved during its own
tick sums its own neighbours. An uncontended row always takes the
hint: nothing but its own tick moves its serving cell. A fleet
member takes it only while the scheduler's ranking version equals the
hint's stamp — an attach that changed the load-balancing offsets or
the set of cells at the admission cap bumps it, and later members in
that tick rank against the live scheduler instead. While any cell sits
at the cap the batch publishes no hint, since admission blocks differ
per member.

End of the horizon
------------------
The plans cover exactly the ticks ``run_until(horizon)`` fires
(:func:`probe_tick_times`). After its last planned tick the batch
drops its rows and, instead of re-arming, schedules a module-level
tripwire at the next tick time: a run that goes on past its horizon
fails with "tick plan exhausted" (the block refills already consumed
the streams, so no row can draw on), and a finished batch holds no
reference to a channel, so it is freed by reference counting.

Bit-identity contract
---------------------
Every draw comes from the same derived stream in the same order as a
per-tick draw would (block draws consume ``numpy`` bit generators
exactly like the equivalent scalar calls — the RNG-stability tests pin
this), and every floating-point expression replicates the per-row
evaluation order operation for operation. The spots where the batch
computes a value by a different-but-IEEE-equal route (elementwise ops
hoisted across a matrix, the gathered neighbour sums) are guarded by
the golden digests of ``tests/test_fingerprints.py``.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.cellular.channel import MEASUREMENT_PERIOD, CellularChannel
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
    """Precomputed per-tick planes for one row of a batch.

    ``shadow_db``/``fastfade`` are ``(n_ticks, n_cells)`` views into
    the batch-stacked planes, ``fading`` is a list of Python floats,
    ``altitudes`` are the per-tick UE altitudes as Python floats and
    ``loss`` is the row's ``(n_ticks, n_cells)`` 3-D path loss. The
    assembled RSRP lives in the batch's stacked plane, which the L3
    filter reads once per tick for all rows.
    """

    shadow_db: np.ndarray
    fastfade: np.ndarray
    fading: list[float]
    altitudes: list[float]
    loss: np.ndarray


def build_tick_plans(
    channels: Sequence[CellularChannel], times: Sequence[float]
) -> tuple[list[TickPlan], np.ndarray]:
    """Precompute the whole-horizon planes for a batch's rows.

    All channels must share the layout size and one
    :class:`~repro.cellular.channel.ChannelConfig` (equal by value):
    the AR, noise and fading constants are read once for the batch.
    The AR recursions run over ``(n_rows, n_cells)`` state matrices —
    one numpy op per tick for the whole batch instead of one per row —
    and each stream is refilled with a single block draw covering
    every tick, consuming the per-row generators in exactly the
    per-tick order.

    Returns the per-row plans plus the batch-stacked
    ``(n_rows, n_ticks, n_cells)`` RSRP plane.
    """
    n = len(times)
    n_seeds = len(channels)
    n_cells = len(channels[0].layout)
    cfg = channels[0].config
    prop = cfg.propagation
    for ch in channels:
        if len(ch.layout) != n_cells:
            raise ValueError("batched channels must share the layout size")
        if ch.config != cfg:
            raise ValueError("batched channels must share one ChannelConfig")

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
            altitudes=alts[s].tolist(),
            loss=losses[s],
        )
        for s in range(n_seeds)
    ]
    return plans, rsrp


class FleetTickState:
    """What ticks one batch: shared state plus one loop event per tick.

    Holds the batch-wide planes the rows read — the L3-filtered RSRP
    matrix ``f_matrix`` and its powers, which :meth:`advance` moves one
    tick at a time (the filter recursion is elementwise, so the matrix
    update equals the per-row updates row for row) — and the per-tick
    lists it publishes (see the module docstring): the serving cells
    the tick started with, each row's neighbour-interference sum and,
    when valid, its A3 ``(best, margin)`` hint. Rows index those
    Python lists; they never see a numpy scalar.

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
        "_rows", "_loop", "_contention", "_times", "_alpha", "_pending",
        "_row_ids", "_cols", "rsrp_planes", "f_matrix", "powered", "_k",
        "tick_serving", "others_mw", "hint_k", "hint_stamp", "hint_best",
        "hint_margin",
    )

    def __init__(
        self,
        channels: Sequence[CellularChannel],
        rsrp_planes: np.ndarray,
        times: list[float],
    ) -> None:
        self._rows = list(channels)
        self._loop = channels[0]._loop
        self._contention = channels[0]._contention
        self._times = times
        self._alpha = channels[0].config.a3.l3_filter_alpha
        self._pending = len(channels)
        self._row_ids = np.arange(len(channels))
        self._cols = np.arange(len(channels[0].layout) - 1)
        self.rsrp_planes = rsrp_planes
        self.f_matrix: np.ndarray | None = None
        self.powered: np.ndarray | None = None
        self._k = -1
        self.tick_serving: list[int] | None = None
        self.others_mw: list[float] | None = None
        self.hint_k = -1
        self.hint_stamp = -1
        self.hint_best: list[int] | None = None
        self.hint_margin: list[float] | None = None

    def advance(self, k: int) -> None:
        """Advance the filter and power planes to tick ``k`` (idempotent)."""
        if k == self._k:
            return
        if k != self._k + 1:
            raise RuntimeError(
                f"batch ticks must advance in lockstep: {self._k} -> {k}"
            )
        if self.f_matrix is None:
            # First measurement: the filter initializes to the raw
            # RSRP (scalar: ``rsrp.astype(float)``).
            self.f_matrix = self.rsrp_planes[:, 0, :].copy()
        else:
            alpha = self._alpha
            self.f_matrix = (
                (1 - alpha) * self.f_matrix + alpha * self.rsrp_planes[:, k, :]
            )
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
        self.advance(0)
        self._rows[row]._tick(0, now)
        self._pending -= 1
        if self._pending == 0:
            self._arm(1)

    def _arm(self, k: int) -> None:
        times = self._times
        if k < len(times):
            self._loop.schedule_at(times[k], self._fire)
            return
        # Past the last planned tick: release the rows and the planes,
        # and leave a tripwire that holds neither.
        self._rows = []
        self.rsrp_planes = None
        self._loop.schedule_at(times[0] + k * MEASUREMENT_PERIOD, _plan_exhausted)

    def _fire(self) -> None:
        k = self._k + 1
        self.advance(k)
        rows = self._rows
        row_ids = self._row_ids
        serving = [ch.engine.serving_cell for ch in rows]
        serving_ids = np.array(serving)
        # Neighbour-interference sums: drop each row's serving column
        # with one fancy gather and reduce along the row — the same
        # pairwise kernel over the same values in the same order as a
        # row's own slice-based sum, so the results are value-identical.
        cols = self._cols
        gathered = self.powered[
            row_ids[:, None], cols + (cols >= serving_ids[:, None])
        ]
        self.others_mw = gathered.sum(axis=1).tolist()
        self.tick_serving = serving
        contention = self._contention
        if contention is None:
            neighbours = self.f_matrix.copy()
        elif contention._at_cap.size == 0:
            neighbours = self.f_matrix + contention.offsets()
            self.hint_stamp = contention._rank_version
        else:
            neighbours = None
        if neighbours is not None:
            # Mask each row's serving cell and argmax once. Row-wise
            # this is exactly the per-row ``filtered + offsets``
            # ranking (the serving score is the same two-operand add).
            scores = neighbours[row_ids, serving_ids]
            neighbours[row_ids, serving_ids] = -np.inf
            best = neighbours.argmax(axis=1)
            self.hint_margin = (neighbours[row_ids, best] - scores).tolist()
            self.hint_best = best.tolist()
            self.hint_k = k
        now = self._times[k]
        for ch in rows:
            ch._tick(k, now)
        self._arm(k + 1)


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
    plans, rsrp_planes = build_tick_plans(channels, times)
    state = FleetTickState(channels, rsrp_planes, times)
    for row, (ch, plan) in enumerate(zip(channels, plans)):
        ch.install_plan(plan, state, row)
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
