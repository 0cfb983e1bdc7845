"""Extension experiments for the paper's Section 5 proposals.

* **DAPS / make-before-break handover** — the 3GPP Rel-16 mechanism
  the paper expects to "avoid link disruptions in the air and hence
  remove the observed latency spikes";
* **multipath over two operators** — the MPTCP/MP-QUIC direction the
  paper motivates for reliability.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.render import format_table
from repro.core.config import ScenarioConfig
from repro.core.session import run_session
from repro.experiments.settings import ExperimentSettings
from repro.metrics.stats import Cdf
from repro.metrics.network import one_way_delays
from repro.metrics.video import RP_LATENCY_THRESHOLD, StallMetrics
from repro.multipath import run_multipath_session
from repro.util.units import to_ms


@dataclass
class DapsPoint:
    """One handover-mechanism variant's outcome."""

    make_before_break: bool
    owd_p99_ms: float
    latency_below_threshold: float
    stalls_per_minute: float
    handovers: int


@dataclass
class DapsExperiment:
    """Break-before-make vs make-before-break comparison."""

    points: list[DapsPoint]

    def render(self) -> str:
        """Text table of the comparison."""
        return format_table(
            ["mechanism", "OWD p99 ms", "lat<300", "stalls/min", "handovers"],
            [
                [
                    "DAPS (make-before-break)" if p.make_before_break else "legacy",
                    f"{p.owd_p99_ms:.0f}",
                    f"{p.latency_below_threshold:.2f}",
                    f"{p.stalls_per_minute:.2f}",
                    str(p.handovers),
                ]
                for p in self.points
            ],
            title="Handover mechanism (urban, air, static bitrate)",
        )


def daps_experiment(settings: ExperimentSettings) -> DapsExperiment:
    """Compare legacy break-before-make against DAPS handovers."""
    points = []
    for make_before_break in (False, True):
        delays: list[float] = []
        playback_vals: list[float] = []
        stalls = 0.0
        handovers = 0
        for seed in settings.seeds:
            config = ScenarioConfig(
                environment="urban",
                platform="air",
                cc="static",
                seed=seed,
                duration=settings.duration,
                extra={"make_before_break": make_before_break},
            )
            result = run_session(config)
            delays.extend(one_way_delays(result.packet_log))
            playback = [
                r for r in result.playback if r.play_time >= settings.warmup
            ]
            playback_vals.extend(r.playback_latency for r in playback)
            stalls += StallMetrics.from_playback(
                playback, duration=settings.duration - settings.warmup
            ).stall_count
            handovers += len(result.handovers)
        minutes = (settings.duration - settings.warmup) * len(settings.seeds) / 60.0
        cdf = Cdf.from_samples(playback_vals)
        points.append(
            DapsPoint(
                make_before_break=make_before_break,
                owd_p99_ms=to_ms(float(np.percentile(delays, 99))),
                latency_below_threshold=cdf.fraction_below(RP_LATENCY_THRESHOLD),
                stalls_per_minute=stalls / minutes,
                handovers=handovers,
            )
        )
    return DapsExperiment(points=points)


@dataclass
class MultipathPoint:
    """One transmission strategy's outcome."""

    strategy: str  # "single", "roundrobin", "duplicate"
    owd_p99_ms: float
    latency_below_threshold: float
    stalls_per_minute: float
    radio_cost: float  # packets transmitted per media packet


@dataclass
class MultipathExperiment:
    """Single-path vs multipath reliability comparison."""

    points: list[MultipathPoint]

    def by_strategy(self, strategy: str) -> MultipathPoint:
        """Look up one strategy's row."""
        for point in self.points:
            if point.strategy == strategy:
                return point
        raise KeyError(strategy)

    def render(self) -> str:
        """Text table of the comparison."""
        return format_table(
            ["strategy", "OWD p99 ms", "lat<300", "stalls/min", "radio cost"],
            [
                [
                    p.strategy,
                    f"{p.owd_p99_ms:.0f}",
                    f"{p.latency_below_threshold:.2f}",
                    f"{p.stalls_per_minute:.2f}",
                    f"{p.radio_cost:.2f}x",
                ]
                for p in self.points
            ],
            title="Multipath over two operators (rural, air, static bitrate)",
        )


def multipath_experiment(
    settings: ExperimentSettings, *, environment: str = "rural"
) -> MultipathExperiment:
    """Compare single-path, round-robin and duplicate transmission."""
    points = []

    def summarize(strategy, packet_logs, playbacks, radio_cost):
        delays: list[float] = []
        for log in packet_logs:
            delays.extend(one_way_delays(log))
        playback_vals = []
        stalls = 0.0
        for playback in playbacks:
            kept = [r for r in playback if r.play_time >= settings.warmup]
            playback_vals.extend(r.playback_latency for r in kept)
            stalls += StallMetrics.from_playback(
                kept, duration=settings.duration - settings.warmup
            ).stall_count
        minutes = (settings.duration - settings.warmup) * len(settings.seeds) / 60.0
        cdf = Cdf.from_samples(playback_vals)
        points.append(
            MultipathPoint(
                strategy=strategy,
                owd_p99_ms=to_ms(float(np.percentile(delays, 99))),
                latency_below_threshold=cdf.fraction_below(RP_LATENCY_THRESHOLD),
                stalls_per_minute=stalls / minutes,
                radio_cost=radio_cost,
            )
        )

    # Single path (P1), the paper's baseline setup.
    logs, plays = [], []
    for seed in settings.seeds:
        config = ScenarioConfig(
            environment=environment, platform="air", cc="static",
            seed=seed, duration=settings.duration,
        )
        result = run_session(config)
        logs.append(result.packet_log)
        plays.append(result.playback)
    summarize("single", logs, plays, 1.0)

    for mode in ("roundrobin", "duplicate"):
        logs, plays = [], []
        for seed in settings.seeds:
            config = ScenarioConfig(
                environment=environment, platform="air", cc="static",
                seed=seed, duration=settings.duration,
            )
            result = run_multipath_session(config, mode=mode)
            logs.append(result.packet_log)
            plays.append(result.playback)
        summarize(mode, logs, plays, 2.0 if mode == "duplicate" else 1.0)
    return MultipathExperiment(points=points)
