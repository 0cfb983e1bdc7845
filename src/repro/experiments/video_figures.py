"""Experiment runners for the video-performance figures (Section 4.2).

* Fig. 6 — goodput boxplots for GCC/SCReAM/static in urban and rural;
* Fig. 7 — FPS, SSIM and playback-latency CDFs for the six
  method-x-environment combinations;
* Fig. 8 — the time-series view of one GCC flight (network latency,
  playback latency, losses, handovers);
* the Section 4.2.1 headline stats: stalls/minute per method and the
  ramp-up times of GCC and SCReAM.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.render import (
    format_table,
    render_boxplots,
    render_cdf,
    render_sparkline,
)
from repro.core.config import ScenarioConfig
from repro.core.packet_log import as_packet_log
from repro.core.session import (
    SessionResult,
    build_controller,
    build_receiver,
    build_sender,
    run_session,
)
from repro.experiments.campaign import run_matrix
from repro.experiments.settings import ExperimentSettings
from repro.runner import WORK_SESSION, CampaignRunner
from repro.runner.work import make_unit
from repro.metrics.stats import BoxplotSummary, Cdf
from repro.metrics.network import goodput_series, sequence_gaps
from repro.util.units import to_mbps
from repro.metrics.video import (
    RP_LATENCY_THRESHOLD,
    SSIM_THRESHOLD,
    StallMetrics,
    fps_series,
    playback_latencies,
    ssim_samples,
)
from repro.net.packet import reset_datagram_ids
from repro.net.path import NetworkPath
from repro.net.simulator import EventLoop
from repro.util.rng import RngStreams

CC_METHODS = ("static", "scream", "gcc")


def _video_matrix() -> list[ScenarioConfig]:
    return [
        ScenarioConfig(environment=env, platform="air", cc=cc)
        for env in ("urban", "rural")
        for cc in CC_METHODS
    ]


@dataclass
class Fig6Result:
    """Fig. 6: per-second goodput distribution per method/environment."""

    goodput: dict[str, BoxplotSummary]  # label -> summary over Mbps samples

    def mean_mbps(self, cc: str, environment: str) -> float:
        """Mean goodput of one series in Mbit/s."""
        return self.goodput[f"{cc}-{environment}-air-P1"].mean

    def render(self) -> str:
        """Text rendering of the goodput boxplots."""
        return render_boxplots(
            self.goodput,
            title="Fig 6: goodput (Mbps) per bitrate-control method",
            unit="Mbps",
        )


def fig6_goodput(
    settings: ExperimentSettings, *, runner: CampaignRunner | None = None
) -> Fig6Result:
    """Run the six-way video matrix and summarize goodput."""
    grouped = run_matrix(_video_matrix(), settings, runner=runner)
    summaries = {}
    for label, results in grouped.items():
        samples: list[float] = []
        for result in results:
            samples.extend(
                to_mbps(rate)
                for t, rate in goodput_series(
                    result.packet_log, duration=result.duration
                )
                if t >= settings.warmup
            )
        summaries[label] = BoxplotSummary.from_samples(samples)
    return Fig6Result(goodput=summaries)


@dataclass
class Fig7Result:
    """Fig. 7: FPS (a), SSIM (b) and playback latency (c) CDFs."""

    fps: dict[str, Cdf]
    ssim: dict[str, Cdf]
    latency: dict[str, Cdf]
    stalls: dict[str, StallMetrics]

    def latency_below_threshold(self, cc: str, environment: str) -> float:
        """Fraction of frames within the 300 ms RP threshold."""
        return self.latency[f"{cc}-{environment}-air-P1"].fraction_below(
            RP_LATENCY_THRESHOLD
        )

    def ssim_above_threshold(self, cc: str, environment: str) -> float:
        """Fraction of frames meeting the 0.5 SSIM requirement."""
        return self.ssim[f"{cc}-{environment}-air-P1"].fraction_above(
            SSIM_THRESHOLD
        )

    def stalls_per_minute(self, cc: str, environment: str) -> float:
        """Stall rate of one series."""
        return self.stalls[f"{cc}-{environment}-air-P1"].stalls_per_minute

    def render(self) -> str:
        """Text rendering of all three panels plus the stall table."""
        blocks = [
            render_cdf(
                self.fps,
                [1, 5, 10, 15, 20, 25, 28, 30],
                title="Fig 7(a): frames-per-second CDF",
                fmt="{:.0f}",
            ),
            render_cdf(
                self.ssim,
                [0.1, 0.25, 0.5, 0.75, 0.9, 0.95],
                title="Fig 7(b): SSIM CDF (unplayed frames count as 0)",
            ),
            render_cdf(
                self.latency,
                [0.1, 0.15, 0.2, 0.3, 0.5, 1.0],
                title="Fig 7(c): playback latency CDF (s)",
                unit="s",
            ),
            format_table(
                ["series", "stalls/min", "longest stall (s)"],
                [
                    [label, f"{m.stalls_per_minute:.2f}", f"{m.longest_stall:.2f}"]
                    for label, m in self.stalls.items()
                ],
                title="Video stalls (inter-frame gap > 300 ms)",
            ),
        ]
        return "\n\n".join(blocks)


def fig7_video(
    settings: ExperimentSettings, *, runner: CampaignRunner | None = None
) -> Fig7Result:
    """Run the six-way matrix and compute the Fig. 7 panels."""
    grouped = run_matrix(_video_matrix(), settings, runner=runner)
    fps: dict[str, Cdf] = {}
    ssim: dict[str, Cdf] = {}
    latency: dict[str, Cdf] = {}
    stalls: dict[str, StallMetrics] = {}
    for label, results in grouped.items():
        fps_samples: list[float] = []
        ssim_vals: list[float] = []
        lat_vals: list[float] = []
        stall_count = 0.0
        longest = 0.0
        minutes = 0.0
        for result in results:
            playback = [
                r for r in result.playback if r.play_time >= settings.warmup
            ]
            fps_samples.extend(
                value
                for t, value in fps_series(playback, duration=result.duration)
                if t >= settings.warmup
            )
            frames_encoded = max(
                result.sender_stats.frames_encoded
                - int(settings.warmup * result.config.fps),
                1,
            )
            ssim_vals.extend(
                ssim_samples(playback, frames_encoded=frames_encoded)
            )
            lat_vals.extend(playback_latencies(playback))
            metrics = StallMetrics.from_playback(
                playback, duration=result.duration - settings.warmup
            )
            stall_count += metrics.stall_count
            longest = max(longest, metrics.longest_stall)
            minutes += (result.duration - settings.warmup) / 60.0
        fps[label] = Cdf.from_samples(fps_samples)
        ssim[label] = Cdf.from_samples(ssim_vals)
        latency[label] = Cdf.from_samples(lat_vals)
        stalls[label] = StallMetrics(
            stall_count=int(stall_count),
            stalls_per_minute=stall_count / max(minutes, 1e-9),
            total_stall_time=0.0,
            longest_stall=longest,
        )
    return Fig7Result(fps=fps, ssim=ssim, latency=latency, stalls=stalls)


@dataclass
class Fig8Result:
    """Fig. 8: one GCC flight's latency/loss/handover time series."""

    network_latency: list[tuple[float, float]]  # (t, seconds), per 0.5 s
    playback_latency: list[tuple[float, float]]
    handover_times: list[float]
    loss_times: list[float]

    def render(self) -> str:
        """Sparkline rendering of the flight."""
        lines = [
            "Fig 8: GCC flight time series",
            render_sparkline(
                [v for _, v in self.network_latency], label="network latency "
            ),
            render_sparkline(
                [v for _, v in self.playback_latency], label="playback latency"
            ),
            f"handovers at t = {[round(t, 1) for t in self.handover_times]}",
            f"loss bursts    = {len(self.loss_times)}",
        ]
        return "\n".join(lines)

    def latency_spike_near_handover(self, window: float = 2.0) -> bool:
        """Whether a network-latency spike occurs near some handover."""
        if not self.network_latency or not self.handover_times:
            return False
        times = np.array([t for t, _ in self.network_latency])
        values = np.array([v for _, v in self.network_latency])
        baseline = float(np.median(values))
        for ho_time in self.handover_times:
            mask = (times >= ho_time - window) & (times <= ho_time + window)
            if mask.any() and values[mask].max() > 2.0 * baseline:
                return True
        return False


def fig8_timeseries(
    settings: ExperimentSettings,
    *,
    environment: str = "rural",
    seed: int | None = None,
    runner: CampaignRunner | None = None,
) -> Fig8Result:
    """Run one GCC flight and extract the Fig. 8 series."""
    config = ScenarioConfig(
        environment=environment,
        platform="air",
        cc="gcc",
        seed=seed if seed is not None else settings.seeds[0],
        duration=settings.duration,
    )
    if runner is not None:
        result = runner.run([make_unit(WORK_SESSION, config)])[0]
    else:
        result = run_session(config)
    return fig8_series(result)


def fig8_series(result: SessionResult) -> Fig8Result:
    """The Fig. 8 series of one session: peak OWD per 0.5 s of send time."""
    bucket = 0.5
    log = as_packet_log(result.packet_log)
    sent = log.array("sent_at")
    received = log.array("received_at")
    # Index by send time so a delay spike lines up with the radio
    # degradation that caused it (as in the paper's Fig. 8).
    buckets, slots = np.unique(
        (sent / bucket).astype(np.int64), return_inverse=True
    )
    peaks = np.full(buckets.size, -np.inf)
    np.maximum.at(peaks, slots, received - sent)
    network = [
        (index * bucket, peak)
        for index, peak in zip(buckets.tolist(), peaks.tolist())
    ]
    playback = [
        (record.play_time, record.playback_latency) for record in result.playback
    ]
    # The arrival of the first packet after each run of losses.
    loss_times = received[1:][sequence_gaps(log) > 1].tolist()
    return Fig8Result(
        network_latency=network,
        playback_latency=playback,
        handover_times=[event.time for event in result.handovers],
        loss_times=loss_times,
    )


@dataclass
class RampupResult:
    """Section 4.2.1: time to first reach a near-max bitrate."""

    gcc_seconds: float
    scream_seconds: float

    def render(self) -> str:
        """One-line summary next to the paper's 12 s / 25 s."""
        return (
            f"Ramp-up to 25 Mbps target: GCC {self.gcc_seconds:.1f} s "
            f"(paper ~12 s), SCReAM {self.scream_seconds:.1f} s (paper ~25 s)"
        )


def rampup_experiment(
    settings: ExperimentSettings, *, threshold: float = 22e6
) -> RampupResult:
    """Measure each CC's intrinsic ramp-up time on an unconstrained link.

    The paper's ramp-up numbers (Section 4.2.1: GCC ~12 s, SCReAM
    ~25 s to reach the 25 Mbps target) characterize the algorithms'
    start-up phase in the well-provisioned urban area, so this runs on
    a clean 40 Mbps link rather than a fluctuating flight channel.
    """
    duration = min(settings.duration, 90.0)
    times = {}
    for cc in ("gcc", "scream"):
        reach: list[float] = []
        for seed in settings.seeds:
            config = ScenarioConfig(cc=cc, seed=seed, duration=duration)
            reset_datagram_ids()
            loop = EventLoop()
            streams = RngStreams(seed)
            controller = build_controller(config)
            receiver = build_receiver(loop, config, controller)
            uplink = NetworkPath(
                loop,
                lambda t: 40e6,
                receiver.on_datagram,
                base_delay=config.base_owd,
                jitter_std=config.owd_jitter_std,
                rng=streams.derive("j1"),
            )
            receiver.downlink = NetworkPath(
                loop,
                lambda t: 40e6,
                receiver.on_feedback_delivered,
                base_delay=config.base_owd,
                jitter_std=config.owd_jitter_std,
                rng=streams.derive("j2"),
            )
            sender = build_sender(loop, config, streams, controller, uplink)
            sender.start()
            receiver.start()
            loop.run_until(duration)
            hit = [e.time for e in controller.log if e.target_bitrate >= threshold]
            reach.append(hit[0] if hit else duration)
        times[cc] = float(np.median(reach))
    return RampupResult(gcc_seconds=times["gcc"], scream_seconds=times["scream"])
