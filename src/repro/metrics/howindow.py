"""Handover latency-window analysis (Fig. 8 / Fig. 9).

The paper quantifies how handovers perturb the one-way network
latency: for every handover it takes the 1-second windows immediately
before and after the event and computes the maximum-to-minimum
latency ratio within each window. Before a handover the maximum is on
average ~8x the minimum (outliers up to 37x); after, ~5x — evidence
that degrading radio conditions build queues *before* the HO fires.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cellular.handover import HandoverEvent
from repro.core.packet_log import PacketLog, PacketLogEntry, as_packet_log
from repro.metrics.stats import BoxplotSummary


@dataclass
class HoWindowRatio:
    """Latency max/min ratios around one handover."""

    handover_time: float
    before_ratio: float | None
    after_ratio: float | None


def latency_ratio_in_window(
    times: np.ndarray,
    delays: np.ndarray,
    start: float,
    end: float,
    *,
    min_samples: int = 5,
) -> float | None:
    """Max/min one-way delay within ``[start, end)``.

    Returns ``None`` when fewer than ``min_samples`` packets fall in
    the window (e.g. during the HO outage itself).
    """
    mask = (times >= start) & (times < end)
    window = delays[mask]
    if window.size < min_samples:
        return None
    smallest = float(window.min())
    if smallest <= 0:
        return None
    return float(window.max()) / smallest


def handover_latency_ratios(
    packet_log: PacketLog | list[PacketLogEntry],
    handovers: list[HandoverEvent],
    *,
    window: float = 1.0,
) -> list[HoWindowRatio]:
    """Compute per-handover before/after latency ratios (Fig. 9).

    Windows are indexed by packet *send* time: a packet transmitted
    just before the handover and delayed through the execution gap
    contributes its (large) delay to the *before* window — which is
    why the paper finds the bigger spikes before handovers.
    """
    log = as_packet_log(packet_log)
    if not log:
        return []
    times = log.array("sent_at")
    delays = log.array("received_at") - times
    ratios: list[HoWindowRatio] = []
    for event in handovers:
        t_start = event.time
        t_end = event.time + event.execution_time
        ratios.append(
            HoWindowRatio(
                handover_time=event.time,
                before_ratio=latency_ratio_in_window(
                    times, delays, t_start - window, t_start
                ),
                after_ratio=latency_ratio_in_window(
                    times, delays, t_end, t_end + window
                ),
            )
        )
    return ratios


@dataclass
class HoRatioSummary:
    """Aggregated before/after ratios across all handovers (Fig. 9)."""

    before: BoxplotSummary | None
    after: BoxplotSummary | None

    @classmethod
    def from_ratios(cls, ratios: list[HoWindowRatio]) -> "HoRatioSummary":
        """Aggregate a list of per-handover ratios."""
        before = [r.before_ratio for r in ratios if r.before_ratio is not None]
        after = [r.after_ratio for r in ratios if r.after_ratio is not None]
        return cls(
            before=BoxplotSummary.from_samples(before) if before else None,
            after=BoxplotSummary.from_samples(after) if after else None,
        )
