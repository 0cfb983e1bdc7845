"""Per-seed probe work units (channel-only and ping campaigns).

These are the single-seed building blocks behind
:func:`repro.experiments.campaign.run_channel_probe` and
:func:`run_ping_probe`. They live at module level — not as closures
inside the per-seed loops — so that

* the captured simulation state (``loop``, ``uplink``, ``trajectory``)
  is scoped to exactly one run instead of late-binding to whatever the
  enclosing loop last assigned, and
* the campaign runner can pickle them into worker processes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cellular.handover import HandoverEvent
from repro.core.config import ScenarioConfig
from repro.core.session import build_channel
from repro.net.packet import Datagram, reset_datagram_ids
from repro.net.path import NetworkPath
from repro.net.simulator import EventLoop, PeriodicTimer
from repro.util.rng import RngStreams


@dataclass
class ChannelProbeSeed:
    """Channel-only observation of one (config, seed) run."""

    handovers: list[HandoverEvent] = field(default_factory=list)
    uplink_samples: list[float] = field(default_factory=list)
    altitudes: list[float] = field(default_factory=list)
    cells_seen: int = 0
    ping_pong: int = 0


@dataclass
class PingSample:
    """One echo measurement: send time, RTT and altitude at send."""

    time: float
    rtt: float
    altitude: float


def channel_probe_seed(config: ScenarioConfig) -> ChannelProbeSeed:
    """Run the cellular channel alone (no video) for one seed.

    ``config`` must already carry the run's seed and duration (use
    :meth:`ScenarioConfig.with_overrides`). A batch of one row.
    """
    return channel_probe_batch([config])[0]


def channel_probe_batch(
    configs: "list[ScenarioConfig]",
) -> list[ChannelProbeSeed]:
    """Run a channel-probe seed sweep as one tick batch.

    ``configs`` must differ only in their seed (the batch planner
    groups work units that way). One row per seed on one event loop:
    the stochastic planes are precomputed struct-of-arrays across
    seeds and only the branchy A3/capacity state machines run per
    row (see :mod:`repro.cellular.batch`). Each row's result is
    bit-identical to running it alone, which the fingerprint suite
    checks.
    """
    from repro.cellular.batch import run_lockstep

    loop = EventLoop()
    channels = [
        build_channel(loop, config, RngStreams(config.seed))
        for config in configs
    ]
    uplinks = run_lockstep(channels, configs[0].duration)
    return [
        ChannelProbeSeed(
            handovers=list(channel.engine.events),
            uplink_samples=uplink_samples,
            altitudes=[sample.altitude for sample in channel.samples],
            cells_seen=len(channel.cells_seen),
            ping_pong=channel.engine.ping_pong_count(),
        )
        for channel, uplink_samples in zip(channels, uplinks)
    ]


class _PingProbe:
    """One seed's ping workload: periodic echo requests over the channel.

    Holds the loop/uplink/downlink/trajectory references that used to
    be captured by ad-hoc closures, so every callback is bound to this
    run's objects explicitly.
    """

    def __init__(
        self, config: ScenarioConfig, *, rate_hz: float, ping_bytes: int
    ) -> None:
        self.samples: list[PingSample] = []
        self._ping_bytes = ping_bytes
        reset_datagram_ids()
        self._loop = EventLoop()
        streams = RngStreams(config.seed)
        self._channel = build_channel(self._loop, config, streams)
        self._trajectory = self._channel.trajectory
        self._uplink = NetworkPath(
            self._loop,
            self._channel.uplink_rate,
            self._on_uplink_delivery,
            base_delay=config.base_owd,
            jitter_std=config.owd_jitter_std,
            rng=streams.derive("jitter-up"),
            horizon=self._channel.rate_horizon,
        )
        self._downlink = NetworkPath(
            self._loop,
            self._channel.downlink_rate,
            self._on_echo,
            base_delay=config.base_owd,
            jitter_std=config.owd_jitter_std,
            rng=streams.derive("jitter-down"),
            horizon=self._channel.rate_horizon,
        )
        self._channel.attach_path(self._uplink)
        self._channel.attach_path(self._downlink)
        self._duration = config.duration
        self._rate_hz = rate_hz

    def _on_echo(self, datagram: Datagram) -> None:
        sent_time, altitude = datagram.payload
        self.samples.append(
            PingSample(
                time=sent_time,
                rtt=self._loop.now - sent_time,
                altitude=altitude,
            )
        )

    def _on_uplink_delivery(self, datagram: Datagram) -> None:
        echo = Datagram(size_bytes=datagram.size_bytes, payload=datagram.payload)
        self._downlink.send(echo)

    def _send_ping(self) -> None:
        position = self._trajectory.position(self._loop.now)
        self._uplink.send(
            Datagram(
                size_bytes=self._ping_bytes,
                payload=(self._loop.now, position.altitude),
            )
        )

    def run(self) -> list[PingSample]:
        self._channel.start()
        PeriodicTimer(self._loop, 1.0 / self._rate_hz, self._send_ping)
        self._loop.run_until(self._duration)
        return self.samples


def ping_probe_seed(
    config: ScenarioConfig, *, rate_hz: float = 20.0, ping_bytes: int = 92
) -> list[PingSample]:
    """Measure echo RTTs over the cellular channel for one seed."""
    return _PingProbe(config, rate_hz=rate_hz, ping_bytes=ping_bytes).run()
