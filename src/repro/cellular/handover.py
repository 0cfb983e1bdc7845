"""Handover decision (A3 event) and execution-time model.

LTE mobility: the UE reports when a neighbour cell's filtered RSRP
exceeds the serving cell's by a *hysteresis* margin for the duration
of *time-to-trigger* (the A3 event); the network then executes the
handover. The execution gap — from RRCConnectionReconfiguration to
RRCConnectionReconfigurationComplete — is the paper's Handover
Execution Time (HET): mostly below the 3GPP 49.5 ms success
threshold, but with heavy outliers in the air ranging up to 4 s
(Fig. 4b), which the paper attributes to RSSI fluctuations and the
elevated noise floor aloft.

:class:`HetSampler` draws from a lognormal body plus an outlier
mixture whose weight is higher in the air; :class:`HandoverEngine`
runs the A3 state machine over per-cell RSRP vectors and emits
:class:`HandoverEvent` records equivalent to the paper's parsed RRC
logs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.obs import NULL_RECORDER
from repro.util.units import to_ms

#: 3GPP success threshold for handover execution (TR 36.881).
HET_SUCCESS_THRESHOLD = 0.0495


@dataclass
class HandoverEvent:
    """One executed handover (equivalent of a parsed RRC log entry)."""

    time: float
    source_cell: int
    target_cell: int
    execution_time: float
    altitude: float = 0.0

    @property
    def successful(self) -> bool:
        """Whether the HET met the 3GPP 49.5 ms threshold."""
        return self.execution_time <= HET_SUCCESS_THRESHOLD


@dataclass
class HetSampler:
    """HET distribution: lognormal body + heavy outlier mixture.

    Parameters are calibrated against Fig. 4(b): the body median sits
    around 30 ms; air outliers stretch to ~4 s, ground outliers stay
    an order of magnitude smaller.
    """

    body_median: float = 0.030
    body_sigma: float = 0.45
    outlier_prob_ground: float = 0.015
    outlier_prob_air: float = 0.05
    outlier_median: float = 0.20
    outlier_sigma: float = 1.1
    max_het: float = 4.0

    def sample(self, rng: np.random.Generator, *, airborne: bool) -> float:
        """Draw one execution time in seconds."""
        p_outlier = self.outlier_prob_air if airborne else self.outlier_prob_ground
        if rng.random() < p_outlier:
            value = self.outlier_median * float(
                np.exp(rng.normal(0.0, self.outlier_sigma))
            )
        else:
            value = self.body_median * float(
                np.exp(rng.normal(0.0, self.body_sigma))
            )
        return float(min(max(value, 0.005), self.max_het))


@dataclass
class A3Config:
    """A3 measurement-event parameters (paper Section 5 discusses
    tuning these for aerial use; the ablation bench sweeps them)."""

    hysteresis_db: float = 3.0
    time_to_trigger: float = 0.256
    l3_filter_alpha: float = 0.5  # EWMA weight of the new sample
    #: Minimum quiet time after a handover before a new A3 evaluation
    #: may begin (the network-side HO prohibit timer). Limits the
    #: ping-pong bursts that would otherwise dominate aerial runs.
    prohibit_time: float = 2.0


class HandoverEngine:
    """A3-event state machine over per-cell RSRP measurements.

    Call :meth:`measure` at the measurement period (100 ms, like a
    real UE) with the raw RSRP vector; it returns a pending
    :class:`HandoverEvent` when the A3 condition has held for
    time-to-trigger, or ``None``.
    """

    def __init__(
        self,
        num_cells: int,
        rng: np.random.Generator,
        *,
        config: A3Config | None = None,
        het_sampler: HetSampler | None = None,
        initial_serving: int | None = None,
    ) -> None:
        if num_cells < 1:
            raise ValueError("num_cells must be >= 1")
        self.config = config if config is not None else A3Config()
        self.het_sampler = het_sampler if het_sampler is not None else HetSampler()
        self._rng = rng
        self._filtered: np.ndarray | None = None
        self.serving_cell = initial_serving if initial_serving is not None else 0
        self._a3_candidate: int | None = None
        self._a3_since: float | None = None
        self._in_handover_until: float | None = None
        #: The last handover while its prohibit window may still be
        #: open; :meth:`_gate` clears it once the window has passed.
        self._last_handover: HandoverEvent | None = None
        self.events: list[HandoverEvent] = []
        #: Observability recorder (wired by the owning channel).
        self.obs = NULL_RECORDER

    @property
    def in_handover(self) -> bool:
        """Whether a handover execution is currently in progress."""
        return self._in_handover_until is not None

    def measure(
        self, now: float, rsrp: np.ndarray, *, altitude: float = 0.0
    ) -> HandoverEvent | None:
        """Process one raw RSRP measurement; maybe trigger a handover.

        Applies the L3 filter to ``rsrp`` and hands the filtered vector
        to :meth:`measure_prefiltered`, ranking cells without offsets.
        The channel's tick batch filters every row at once and calls
        :meth:`measure_prefiltered` directly.
        """
        if self._filtered is None:
            filtered = rsrp.astype(float)
        else:
            alpha = self.config.l3_filter_alpha
            filtered = (1 - alpha) * self._filtered + alpha * rsrp
        return self.measure_prefiltered(now, filtered, altitude=altitude)

    def measure_prefiltered(
        self,
        now: float,
        filtered: np.ndarray,
        *,
        altitude: float,
        offsets: np.ndarray | None = None,
        blocked: tuple[int, ...] = (),
        hint: tuple[int, float] | None = None,
    ) -> HandoverEvent | None:
        """One A3 step, with the L3 filter already applied.

        A tick batch advances the EWMA filter for *all* its rows in one
        ``(n_rows, n_cells)`` matrix op per tick (see
        :class:`repro.cellular.batch.FleetTickState`), elementwise-
        identical to :meth:`measure`'s per-UE recursion, and hands an
        engine its row here only on a tick where this step can change
        something: its first measurement, a tick without a valid hint,
        or a hinted tick whose windows are closed and whose margin is
        above the hysteresis (or NaN) or whose A3 condition is already
        building. On every other tick the step would only clear an
        already clear candidate, so the batch skips the call and
        ``_filtered`` keeps an older row (it is read again only by
        :meth:`measure`, which a batched engine never runs).
        ``offsets`` is the per-cell load-balancing bias in dB (the
        cell-individual offsets of
        :class:`repro.cellular.cell.CellContention`) added to the
        filtered RSRP on both sides of the A3 margin, or ``None`` to
        rank without offsets; ``blocked`` lists cells that must not be
        selected (admission control). Everything after the filter
        update (first-measurement camping, the gate, the neighbour
        ranking, the A3 state machine) runs per engine against live
        contention state, since offsets and admission blocks mutate
        *within* a tick as earlier fleet members attach.

        ``hint`` short-circuits the neighbour ranking with a
        ``(best, margin)`` pair the tick batch precomputed for all its
        rows in one masked argmax. It is value-identical to the ranking
        below while nothing the ranking reads has changed since the
        precompute: always for an uncontended row, and for a fleet
        member while the scheduler's ranking version still matches the
        hint's stamp.
        """
        if self._filtered is None:
            self._filtered = filtered
            self.serving_cell = self._select_initial(offsets, blocked)
            return None
        self._filtered = filtered
        if self._gate(now):
            return None
        if hint is not None:
            best, margin = hint
            return self._evaluate(now, best, margin, altitude)
        serving = self.serving_cell
        if offsets is None:
            neighbours = filtered.copy()
            serving_score = filtered[serving]
        else:
            neighbours = filtered + offsets
            serving_score = filtered[serving] + offsets[serving]
        for cell in blocked:
            neighbours[cell] = -np.inf
        neighbours[serving] = -np.inf
        best = int(np.argmax(neighbours))
        margin = neighbours[best] - serving_score
        return self._evaluate(now, best, float(margin), altitude)

    def _gate(self, now: float) -> bool:
        """Advance the execution/prohibit windows; ``True`` = no A3
        evaluation this tick.

        :meth:`measure_prefiltered` runs it before it ranks cells or
        takes a hint, so a hinted tick skips exactly the ticks an
        unhinted one skips. It can only return ``True`` while
        ``_in_handover_until`` or ``_last_handover`` is set, which is
        how a tick batch skips the call for every other row.
        """
        if self._in_handover_until is not None:
            if now >= self._in_handover_until:
                self._in_handover_until = None
            else:
                return True
        last = self._last_handover
        if last is not None:
            if now - last.time < last.execution_time + self.config.prohibit_time:
                self._a3_candidate = None
                self._a3_since = None
                return True
            # Time only moves forward: the window stays passed.
            self._last_handover = None
        return False

    def _evaluate(
        self, now: float, best: int, margin: float, altitude: float
    ) -> HandoverEvent | None:
        """A3 hysteresis/TTT state machine on a precomputed margin.

        ``best``/``margin`` must be the strongest-neighbour index and
        its dB margin (a Python float) over the serving score, computed
        exactly as :meth:`measure_prefiltered` does (the tick batch
        reproduces that computation row-wise over its stacked
        filtered-RSRP matrix).
        """
        if not math.isfinite(margin):
            # Every neighbour blocked (or single-cell layout): stay.
            self._a3_candidate = None
            self._a3_since = None
            return None
        if margin > self.config.hysteresis_db:
            if self._a3_candidate != best:
                self._a3_candidate = best
                self._a3_since = now
                if self.obs.enabled:
                    self.obs.event(
                        "handover.a3_enter",
                        t=now,
                        serving=self.serving_cell,
                        candidate=best,
                        margin_db=float(margin),
                    )
            elif now - (self._a3_since or now) >= self.config.time_to_trigger:
                return self._execute(now, best, altitude)
        else:
            self._a3_candidate = None
            self._a3_since = None
        return None

    def _select_initial(
        self, offsets: np.ndarray | None, blocked: tuple[int, ...] | None
    ) -> int:
        """Initial cell selection under load bias and admission caps.

        Falls back to the unbiased strongest cell when admission
        control has blocked every cell (the UE has to camp somewhere).
        """
        scores = self._filtered.copy()
        if offsets is not None:
            scores = scores + offsets
        if blocked:
            for cell in blocked:
                scores[cell] = -np.inf
        if not np.isfinite(scores.max()):
            return int(np.argmax(self._filtered))
        return int(np.argmax(scores))

    def _execute(
        self, now: float, target: int, altitude: float
    ) -> HandoverEvent:
        het = self.het_sampler.sample(self._rng, airborne=altitude > 10.0)
        event = HandoverEvent(
            time=now,
            source_cell=self.serving_cell,
            target_cell=target,
            execution_time=het,
            altitude=altitude,
        )
        self.events.append(event)
        self._last_handover = event
        if self.obs.enabled:
            self.obs.span_at(
                "handover.execution",
                now,
                now + het,
                source=self.serving_cell,
                target=target,
                het_ms=to_ms(het),
            )
            self.obs.count("handover/executed")
            if not event.successful:
                self.obs.count("handover/het_over_threshold")
            self.obs.observe("handover/het_ms", to_ms(het))
        self.serving_cell = target
        self._a3_candidate = None
        self._a3_since = None
        self._in_handover_until = now + het
        return event

    def ping_pong_count(self, window: float = 5.0) -> int:
        """Handovers that return to the previous cell within ``window`` s.

        The paper observed such ping-pong handovers in the rural area
        (Section 5, "Mitigating influence of HOs on RP"). The window
        is measured from the *completion* of the previous handover
        (trigger time plus execution time): a multi-second HET outage
        must not eat into the ping-pong window, or long-HET returns
        would be undercounted.
        """
        count = 0
        for previous, current in zip(self.events, self.events[1:]):
            completed = previous.time + previous.execution_time
            if (
                current.target_cell == previous.source_cell
                and current.time - completed <= window
            ):
                count += 1
        return count
