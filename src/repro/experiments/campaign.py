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
work units and execute them through a :class:`CampaignRunner`, so any
campaign parallelizes over a process pool (``workers=N``) and repeats
for free from the on-disk result cache. ``workers=1`` without a cache
preserves the classic serial in-process path. Results are grouped in
submission order, so the grouped output is identical for every worker
count.

Campaign-owned runners additionally execute each scenario's seed sweep
as one struct-of-arrays batch (:mod:`repro.runner.batch`): channel
probes run as one tick batch with a row per seed
(:mod:`repro.cellular.batch`, the one tick path every channel takes)
and sessions share one
:class:`~repro.util.rng.SweepDrawPlan` refill per stream. Batched
results are packet-for-packet identical to scalar execution (pinned by
``tests/test_fingerprints.py``), and non-batchable units — ping
probes, fleets, ``obs=True`` sessions — transparently fall back to
the scalar path.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    ResultCache,
)
from repro.runner.engine import ProgressFn
from repro.runner.work import make_unit


def _resolve_runner(
    runner: CampaignRunner | None,
    workers: int | None,
    cache: ResultCache | None,
    progress: ProgressFn | None,
) -> tuple[CampaignRunner, bool]:
    """Return ``(engine, owned)`` — the runner to use and whether this
    call created it.

    Internally-created runners must be closed by the caller when the
    campaign ends (their pools are persistent since PR 3, so leaving
    them open leaks worker processes); caller-supplied runners stay
    open for reuse across campaigns.

    Owned runners enable seed-sweep batching (``batch=True``): the
    scenario matrices built here repeat configs across seeds, which is
    exactly the shape :mod:`repro.runner.batch` turns into
    struct-of-arrays sweeps — bit-identical to scalar execution, so it
    is safe as a default. A caller-supplied runner keeps whatever
    ``batch`` setting it was constructed with.
    """
    if runner is not None:
        return runner, False
    return (
        CampaignRunner(
            workers if workers is not None else 1,
            cache=cache,
            progress=progress,
            batch=True,
        ),
        True,
    )


def run_matrix(
    base_configs: list[ScenarioConfig],
    settings: ExperimentSettings,
    *,
    workers: int | None = None,
    cache: ResultCache | None = None,
    runner: CampaignRunner | None = None,
    progress: ProgressFn | None = None,
    obs: bool = False,
) -> dict[str, list[SessionResult]]:
    """Run every config across the settings' seeds.

    Returns results grouped by the config's label (seed excluded), one
    entry per seed. Pass ``workers``/``cache`` (or a preconfigured
    ``runner``) to parallelize and cache the underlying sessions; the
    grouped result is identical for any worker count. With
    ``obs=True`` every session runs instrumented and ships its metric
    snapshot in ``result.extra["metrics"]`` plus its SLO diagnosis in
    ``result.extra["diagnosis"]``; the runner additionally merges them
    into ``runner.metrics`` and ``runner.diagnosis``, so campaign-wide
    violation counts and primary-cause tallies (e.g. the fraction of
    latency violations attributable to handover, Fig. 9) are available
    without reprocessing individual sessions.
    """
    engine, owned = _resolve_runner(runner, workers, cache, progress)
    units = [
        make_unit(
            WORK_SESSION,
            base.with_overrides(seed=seed, duration=settings.duration),
            **({"obs": True} if obs else {}),
        )
        for base in base_configs
        for seed in settings.seeds
    ]
    try:
        results = engine.run(units)
    finally:
        if owned:
            engine.close()
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
    workers: int | None = None,
    cache: ResultCache | None = None,
    runner: CampaignRunner | None = None,
    progress: ProgressFn | None = None,
) -> ChannelProbeResult:
    """Run the cellular channel alone (no video) across seeds."""
    engine, owned = _resolve_runner(runner, workers, cache, progress)
    units = [
        make_unit(
            WORK_CHANNEL_PROBE,
            config.with_overrides(seed=seed, duration=settings.duration),
        )
        for seed in settings.seeds
    ]
    try:
        seed_results: list[ChannelProbeSeed] = engine.run(units)
    finally:
        if owned:
            engine.close()
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
    workers: int | None = None,
    cache: ResultCache | None = None,
    runner: CampaignRunner | None = None,
    progress: ProgressFn | None = None,
) -> list[PingSample]:
    """Measure echo RTTs over the cellular channel (Fig. 13 workload)."""
    engine, owned = _resolve_runner(runner, workers, cache, progress)
    units = [
        make_unit(
            WORK_PING_PROBE,
            config.with_overrides(seed=seed, duration=settings.duration),
            rate_hz=rate_hz,
            ping_bytes=ping_bytes,
        )
        for seed in settings.seeds
    ]
    try:
        seed_results = engine.run(units)
    finally:
        if owned:
            engine.close()
    samples: list[PingSample] = []
    for seed_samples in seed_results:
        samples.extend(seed_samples)
    return samples
