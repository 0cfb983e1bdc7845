"""Multipath video delivery over two operators (Section 5 extension).

The paper's discussion and conclusion repeatedly point at multipath
transport over parallel cellular links (multiple MNOs, MPTCP/MP-QUIC)
as the way to buy reliability: "utilizing multiple access links
towards the ground station [...] can help improve the reliability of
transmissions when one of the underlying networks is experiencing
deteriorations". This module implements that future-work experiment:
one video sender feeding **two independent LTE channels** (operator
P1 and P2, independent cells, shadowing, handovers) with either

* ``duplicate`` — every RTP packet is sent on both links; the
  receiver deduplicates and keeps whichever copy arrives first
  (maximum reliability, 2x the radio cost), or
* ``roundrobin`` — packets alternate between the links (aggregated
  capacity, partial protection).

Handovers and fades on the two networks are uncorrelated, so the
duplicate mode removes almost every outage-induced latency spike —
the quantitative version of the paper's multipath argument.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cellular.handover import HandoverEvent
from repro.core.config import CcAlgorithm, ScenarioConfig
from repro.core.packet_log import PacketLog
from repro.core.receiver import VideoReceiver
from repro.core.sender import SenderStats
from repro.core.session import (
    build_channel,
    build_controller,
    build_receiver,
    build_sender,
    build_trajectory,
)
from repro.net.loss import GilbertElliottLoss
from repro.net.packet import Datagram, reset_datagram_ids
from repro.net.path import NetworkPath
from repro.net.simulator import EventLoop
from repro.rtp.packets import RtpPacket, seq_distance
from repro.util.rng import RngStreams
from repro.video.player import PlaybackRecord

MODES = ("duplicate", "roundrobin")


class MultipathUplink:
    """Fans datagrams out over several uplink paths.

    Looks like a single :class:`repro.net.path.NetworkPath` to the
    sender; scheduling is either full duplication or per-packet
    round-robin.
    """

    def __init__(self, paths: list[NetworkPath], mode: str = "duplicate") -> None:
        if not paths:
            raise ValueError("need at least one path")
        if mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
        self.paths = paths
        self.mode = mode
        self._next = 0
        self.sent_per_path = [0] * len(paths)

    def send(self, datagram: Datagram) -> None:
        """Schedule ``datagram`` onto the member paths."""
        if self.mode == "duplicate":
            for index, path in enumerate(self.paths):
                copy = Datagram(
                    size_bytes=datagram.size_bytes, payload=datagram.payload
                )
                self.sent_per_path[index] += 1
                path.send(copy)
        else:
            index = self._next
            self._next = (self._next + 1) % len(self.paths)
            self.sent_per_path[index] += 1
            self.paths[index].send(datagram)

    def set_up(self, up: bool) -> None:
        """No-op: outages are driven per member path by its channel."""


class DedupReceiver:
    """Drops duplicate RTP sequence numbers before the receiver.

    Keeps whichever copy of a packet arrives first — exactly what an
    MPTCP/MP-QUIC receive queue would deliver upward.
    """

    def __init__(self, receiver: VideoReceiver, *, window: int = 4096) -> None:
        self._receiver = receiver
        self._window = window
        self._seen: set[int] = set()
        self._highest: int | None = None
        self.duplicates = 0

    def on_datagram(self, datagram: Datagram) -> None:
        """Forward first copies; count and drop duplicates."""
        if not isinstance(datagram.payload, RtpPacket):
            # RTCP (sender reports) pass straight through; receiving
            # a duplicated SR is harmless.
            self._receiver.on_datagram(datagram)
            return
        sequence = datagram.payload.sequence
        if sequence in self._seen:
            self.duplicates += 1
            return
        self._seen.add(sequence)
        if self._highest is None or seq_distance(self._highest, sequence) > 0:
            self._highest = sequence
        # Expire entries far below the highest sequence seen.
        if len(self._seen) > 2 * self._window:
            horizon = self._highest
            self._seen = {
                seq
                for seq in self._seen
                if seq_distance(seq, horizon) < self._window
            }
        self._receiver.on_datagram(datagram)


@dataclass
class MultipathResult:
    """Artifacts of one multipath run."""

    config: ScenarioConfig
    mode: str
    duration: float
    packet_log: PacketLog
    playback: list[PlaybackRecord]
    handovers_per_path: list[list[HandoverEvent]]
    sender_stats: SenderStats
    duplicates_dropped: int
    sent_per_path: list[int] = field(default_factory=list)


def run_multipath_session(
    config: ScenarioConfig,
    *,
    mode: str = "duplicate",
    operators: tuple[str, str] = ("P1", "P2"),
) -> MultipathResult:
    """Run a static-bitrate flight over two parallel operators.

    Multipath scheduling of *adaptive* streams requires per-path
    congestion control (MPTCP-style coupling) that neither GCC nor
    SCReAM defines; like the paper's discussion, this experiment uses
    the constant-bitrate workload to isolate the reliability effect.
    """
    if config.cc is not CcAlgorithm.STATIC:
        raise ValueError("multipath sessions support the static workload only")
    reset_datagram_ids()
    loop = EventLoop()
    streams = RngStreams(config.seed)
    trajectory = build_trajectory(config, streams)
    controller = build_controller(config)
    # The receiver is never started (a static stream takes no
    # feedback), so it needs no downlink.
    receiver = build_receiver(loop, config, controller)
    dedup = DedupReceiver(receiver)

    paths: list[NetworkPath] = []
    channels = []
    for index, operator in enumerate(operators):
        substreams = streams.child(f"op-{operator}-{index}")
        channel = build_channel(
            loop,
            config.with_overrides(operator=operator),
            substreams,
            trajectory=trajectory,
        )
        path = NetworkPath(
            loop,
            channel.uplink_rate,
            dedup.on_datagram,
            base_delay=config.base_owd,
            jitter_std=config.owd_jitter_std,
            loss_model=GilbertElliottLoss.from_rate_and_burst(
                config.loss_rate,
                config.loss_mean_burst,
                substreams.derive("loss"),
            ),
            buffer_bytes=config.uplink_buffer_bytes,
            rng=substreams.derive("jitter"),
            horizon=channel.rate_horizon,
        )
        channel.attach_path(path)
        channels.append(channel)
        paths.append(path)

    uplink = MultipathUplink(paths, mode=mode)
    sender = build_sender(loop, config, streams, controller, uplink)

    for channel in channels:
        channel.start()
    sender.start()
    loop.run_until(config.duration)
    sender.stop()

    return MultipathResult(
        config=config,
        mode=mode,
        duration=config.duration,
        packet_log=receiver.packet_log,
        playback=receiver.player.records,
        handovers_per_path=[list(c.engine.events) for c in channels],
        sender_stats=sender.stats,
        duplicates_dropped=dedup.duplicates,
        sent_per_path=list(uplink.sent_per_path),
    )
