"""Campaign drivers: run scenario matrices and lightweight probes.

Three run modes with very different costs:

* :func:`run_matrix` — full video-pipeline sessions (expensive; used
  by the video-performance figures);
* :func:`run_channel_probe` — cellular channel only, no video
  (cheap; used by Fig. 4's handover statistics, which in the paper
  come from RRC logs independent of the video workload);
* :func:`run_ping_probe` — small ICMP-like probes over the channel
  (cheap; used by Fig. 13's altitude-vs-RTT analysis, which the paper
  measured with pings "without cross traffic").

All three decompose their (config x seed) matrix into independent
work units and execute them through a :class:`CampaignRunner`. The
``runner=`` argument is the only execution knob: pass a runner to
parallelize over a process pool, read and fill a result cache or
report progress (it stays open for the next campaign). Without one, a
driver runs its units in-process on a ``CampaignRunner(1,
batch=True)`` of its own, closed when the campaign ends. Results are
grouped in submission order, so the grouped output is identical for
every worker count.

A batching runner executes each scenario's seed sweep as one
struct-of-arrays batch (:mod:`repro.runner.batch`): channel probes run
as one tick batch with a row per seed (:mod:`repro.cellular.batch`,
the one tick path every channel takes) and sessions share one
:class:`~repro.util.rng.SweepDrawPlan` refill per stream. Batched
results equal per-unit execution (pinned by
``tests/test_fingerprints.py``), and the units the planner leaves out
— ping probes, fleets, ``obs=True`` sessions — run one by one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.cellular.handover import HandoverEvent
from repro.core.config import ScenarioConfig
from repro.core.session import SessionResult
from repro.experiments.probes import ChannelProbeSeed, PingSample
from repro.experiments.settings import ExperimentSettings
from repro.runner import (
    WORK_CHANNEL_PROBE,
    WORK_PING_PROBE,
    WORK_SESSION,
    CampaignRunner,
    WorkUnit,
)
from repro.runner.work import make_unit


def _run_units(runner: CampaignRunner | None, units: list[WorkUnit]) -> list[Any]:
    """Run ``units`` on the caller's runner, left open, or else on an
    owned ``CampaignRunner(1, batch=True)`` closed on exit.

    The scenario matrices built here repeat configs across seeds,
    which is exactly the shape :mod:`repro.runner.batch` turns into
    struct-of-arrays sweeps, so the owned runner batches. A
    caller-supplied runner keeps whatever ``batch`` setting it was
    constructed with.
    """
    if runner is not None:
        return runner.run(units)
    with CampaignRunner(1, batch=True) as owned:
        return owned.run(units)


def run_matrix(
    base_configs: list[ScenarioConfig],
    settings: ExperimentSettings,
    *,
    runner: CampaignRunner | None = None,
    obs: bool = False,
) -> dict[str, list[SessionResult]]:
    """Run every config across the settings' seeds.

    Returns results grouped by the config's label (seed excluded), one
    entry per seed. Pass a preconfigured ``runner`` to parallelize and
    cache the underlying sessions; the grouped result is identical for
    any worker count. With
    ``obs=True`` every session runs instrumented and ships its metric
    snapshot in ``result.extra["metrics"]`` plus its SLO diagnosis in
    ``result.extra["diagnosis"]``; the runner additionally merges them
    into ``runner.metrics`` and ``runner.diagnosis``, so campaign-wide
    violation counts and primary-cause tallies (e.g. the fraction of
    latency violations attributable to handover, Fig. 9) are available
    without reprocessing individual sessions.
    """
    units = [
        make_unit(
            WORK_SESSION,
            base.with_overrides(seed=seed, duration=settings.duration),
            **({"obs": True} if obs else {}),
        )
        for base in base_configs
        for seed in settings.seeds
    ]
    results = _run_units(runner, units)
    grouped: dict[str, list[SessionResult]] = {}
    for unit, result in zip(units, results):
        key = _series_label(unit.config)
        grouped.setdefault(key, []).append(result)
    return grouped


def _series_label(config: ScenarioConfig) -> str:
    return f"{config.cc.value}-{config.environment.value}-{config.platform.value}-{config.operator}"


@dataclass
class ChannelProbeResult:
    """Channel-only observation of one scenario across seeds."""

    label: str
    handovers: list[HandoverEvent]
    duration_total: float
    uplink_samples: list[float]
    altitudes: list[float]
    cells_seen: int
    ping_pong: int

    @property
    def ho_frequency(self) -> float:
        """Handovers per second across all seeds (0.0 if no probe time).

        A zero-duration probe (empty seed list, ``duration=0``) has no
        observation window, so its frequency is defined as 0 rather
        than raising ``ZeroDivisionError`` deep inside figure code.
        """
        if self.duration_total <= 0.0:
            return 0.0
        return len(self.handovers) / self.duration_total

    @property
    def het_values(self) -> list[float]:
        """All handover execution times, seconds."""
        return [event.execution_time for event in self.handovers]


def run_channel_probe(
    config: ScenarioConfig,
    settings: ExperimentSettings,
    *,
    runner: CampaignRunner | None = None,
) -> ChannelProbeResult:
    """Run the cellular channel alone (no video) across seeds."""
    units = [
        make_unit(
            WORK_CHANNEL_PROBE,
            config.with_overrides(seed=seed, duration=settings.duration),
        )
        for seed in settings.seeds
    ]
    seed_results: list[ChannelProbeSeed] = _run_units(runner, units)
    handovers: list[HandoverEvent] = []
    uplink: list[float] = []
    altitudes: list[float] = []
    cells_seen = 0
    ping_pong = 0
    for seed_result in seed_results:
        handovers.extend(seed_result.handovers)
        uplink.extend(seed_result.uplink_samples)
        altitudes.extend(seed_result.altitudes)
        cells_seen += seed_result.cells_seen
        ping_pong += seed_result.ping_pong
    return ChannelProbeResult(
        label=_series_label(config),
        handovers=handovers,
        duration_total=settings.duration * len(settings.seeds),
        uplink_samples=uplink,
        altitudes=altitudes,
        cells_seen=cells_seen,
        ping_pong=ping_pong,
    )


def run_ping_probe(
    config: ScenarioConfig,
    settings: ExperimentSettings,
    *,
    rate_hz: float = 20.0,
    ping_bytes: int = 92,  # 64-byte ICMP payload + headers
    runner: CampaignRunner | None = None,
) -> list[PingSample]:
    """Measure echo RTTs over the cellular channel (Fig. 13 workload)."""
    units = [
        make_unit(
            WORK_PING_PROBE,
            config.with_overrides(seed=seed, duration=settings.duration),
            rate_hz=rate_hz,
            ping_bytes=ping_bytes,
        )
        for seed in settings.seeds
    ]
    seed_results = _run_units(runner, units)
    samples: list[PingSample] = []
    for seed_samples in seed_results:
        samples.extend(seed_samples)
    return samples
