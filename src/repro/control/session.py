"""Command-and-control (C2) traffic alongside the video stream.

The remote-piloting loop of the paper's Fig. 1 is bidirectional: "the
pilots send command packets to the UAVs and receive video and
telemetry streams in return". The measurement campaign focuses on the
video uplink; the related work it cites (Jin et al.) reports command
latencies of ~30 ms against video latencies of seconds — a gap this
module reproduces: small command datagrams ride the downlink and
telemetry rides the uplink *through the same cellular channel* as the
video, so handover outages and bufferbloat hit all three flows
coherently.

``run_control_session`` builds a standard video session with
:func:`~repro.core.session.build_session`, injects the C2 traffic on
its paths and reports per-flow latency; with ``with_video=False`` the
media pipeline is built but never started, which isolates the C2
flows (an idle-link baseline).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.analysis.render import format_table
from repro.core.config import ScenarioConfig
from repro.core.session import build_session
from repro.net.packet import Datagram, reset_datagram_ids
from repro.net.path import NetworkPath
from repro.net.simulator import EventLoop, PeriodicTimer
from repro.util.units import to_ms
from repro.video.player import PlaybackRecord

#: Command rate from pilot to UAV (joystick updates).
COMMAND_RATE_HZ = 50.0
#: Command datagram size: stick positions + sequence + auth.
COMMAND_BYTES = 96
#: Telemetry rate from UAV to pilot (attitude, GPS, battery).
TELEMETRY_RATE_HZ = 10.0
TELEMETRY_BYTES = 220


@dataclass
class C2Sample:
    """One delivered C2 datagram's latency."""

    sent_at: float
    latency: float


@dataclass
class ControlResult:
    """Latency results of one C2(+video) run."""

    config: ScenarioConfig
    with_video: bool
    command_samples: list[C2Sample]
    telemetry_samples: list[C2Sample]
    commands_sent: int
    telemetry_sent: int
    playback: list[PlaybackRecord] = field(default_factory=list)

    @property
    def command_loss_rate(self) -> float:
        """Fraction of command packets that never arrived."""
        if self.commands_sent == 0:
            return 0.0
        return 1.0 - len(self.command_samples) / self.commands_sent

    def command_latency_ms(self, percentile: float = 50.0) -> float:
        """Command one-way latency percentile in milliseconds."""
        values = [s.latency for s in self.command_samples]
        return to_ms(float(np.percentile(values, percentile))) if values else float("nan")

    def telemetry_latency_ms(self, percentile: float = 50.0) -> float:
        """Telemetry one-way latency percentile in milliseconds."""
        values = [s.latency for s in self.telemetry_samples]
        return to_ms(float(np.percentile(values, percentile))) if values else float("nan")

    def video_latency_ms(self, percentile: float = 50.0) -> float:
        """Video playback latency percentile in milliseconds."""
        values = [r.playback_latency for r in self.playback]
        return to_ms(float(np.percentile(values, percentile))) if values else float("nan")

    def render(self) -> str:
        """Per-flow latency table (cf. the related-work comparison)."""
        rows = [
            [
                "command (pilot->UAV)",
                f"{self.command_latency_ms(50):.0f}",
                f"{self.command_latency_ms(99):.0f}",
                f"{self.command_loss_rate * 100:.2f}%",
            ],
            [
                "telemetry (UAV->pilot)",
                f"{self.telemetry_latency_ms(50):.0f}",
                f"{self.telemetry_latency_ms(99):.0f}",
                "-",
            ],
        ]
        if self.playback:
            rows.append(
                [
                    "video playback",
                    f"{self.video_latency_ms(50):.0f}",
                    f"{self.video_latency_ms(99):.0f}",
                    "-",
                ]
            )
        return format_table(
            ["flow", "median ms", "p99 ms", "loss"],
            rows,
            title=f"C2 + video latency ({self.config.label()})",
        )


def run_control_session(
    config: ScenarioConfig, *, with_video: bool = True
) -> ControlResult:
    """Run commands + telemetry (and optionally video) over one channel.

    The channel, paths and media pipeline are ``build_session``'s.
    Each path's ``receive`` is wrapped: command datagrams on the
    downlink and telemetry datagrams on the uplink are recorded, and
    every other datagram reaches the video pipeline.
    """
    reset_datagram_ids()
    loop = EventLoop()
    session = build_session(loop, config)
    uplink, downlink = session.uplink, session.downlink
    command_samples: list[C2Sample] = []
    telemetry_samples: list[C2Sample] = []
    counters = {"commands": 0, "telemetry": 0}

    def record(path: NetworkPath, kind: str, samples: list[C2Sample]) -> None:
        deliver = path.receive

        def receive(datagram: Datagram) -> None:
            payload = datagram.payload
            if isinstance(payload, tuple) and payload[0] == kind:
                samples.append(
                    C2Sample(sent_at=payload[1], latency=loop.now - payload[1])
                )
            else:
                deliver(datagram)

        path.receive = receive

    record(uplink, "telemetry", telemetry_samples)
    record(downlink, "command", command_samples)

    def send_command() -> None:
        counters["commands"] += 1
        downlink.send(
            Datagram(size_bytes=COMMAND_BYTES, payload=("command", loop.now))
        )

    def send_telemetry() -> None:
        counters["telemetry"] += 1
        uplink.send(
            Datagram(size_bytes=TELEMETRY_BYTES, payload=("telemetry", loop.now))
        )

    session.channel.start()
    PeriodicTimer(loop, 1.0 / COMMAND_RATE_HZ, send_command)
    PeriodicTimer(loop, 1.0 / TELEMETRY_RATE_HZ, send_telemetry)
    if with_video:
        session.sender.start()
        session.receiver.start()
    loop.run_until(config.duration)
    playback: list[PlaybackRecord] = []
    if with_video:
        session.stop()
        playback = session.receiver.player.records

    return ControlResult(
        config=config,
        with_video=with_video,
        command_samples=command_samples,
        telemetry_samples=telemetry_samples,
        commands_sent=counters["commands"],
        telemetry_sent=counters["telemetry"],
        playback=playback,
    )
