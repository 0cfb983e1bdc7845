#!/usr/bin/env python3
"""Replay a recorded channel trace under two pipeline configurations.

The point of the paper's released traces: hold the network fixed and
vary one pipeline knob. This example records one urban flight's
channel (capacity series + handover outages), then replays the *exact
same channel* twice — once with the default jitter buffer and once
with the ``drop-on-latency`` strategy of Appendix A.4 — and compares
playback latency.

Usage::

    python examples/trace_replay.py [--duration SECONDS]
"""

from __future__ import annotations

import argparse

import numpy as np

from repro import ScenarioConfig, run_session
from repro.analysis import format_table
from repro.core.session import build_controller, build_receiver, build_sender
from repro.net.loss import GilbertElliottLoss
from repro.net.path import NetworkPath
from repro.net.simulator import EventLoop
from repro.traces import TraceReplayChannel
from repro.traces.schema import ChannelRecord, HandoverRecord
from repro.util.rng import RngStreams
from repro.util.units import to_ms


def replay(
    channel_trace: list[ChannelRecord],
    handovers: list[HandoverRecord],
    *,
    duration: float,
    drop_on_latency: bool,
) -> list[float]:
    """Replay the trace with one jitter-buffer setting; return latencies."""
    config = ScenarioConfig(
        cc="static", static_bitrate=25e6,
        jitter_buffer_drop_on_latency=drop_on_latency,
    )
    loop = EventLoop()
    streams = RngStreams(99)
    replay_channel = TraceReplayChannel(loop, channel_trace, handovers)
    controller = build_controller(config)
    receiver = build_receiver(loop, config, controller)
    uplink = NetworkPath(
        loop,
        replay_channel.uplink_rate,
        receiver.on_datagram,
        base_delay=0.018,
        jitter_std=0.0005,
        loss_model=GilbertElliottLoss.from_rate_and_burst(
            0.00065, 3.0, streams.derive("loss")
        ),
        rng=streams.derive("jitter"),
    )
    receiver.downlink = NetworkPath(
        loop,
        replay_channel.downlink_rate,
        receiver.on_feedback_delivered,
        base_delay=0.018,
        jitter_std=0.0005,
        rng=streams.derive("jitter2"),
    )
    replay_channel.attach_path(uplink)
    replay_channel.attach_path(receiver.downlink)
    sender = build_sender(loop, config, streams, controller, uplink)
    replay_channel.start()
    sender.start()
    receiver.start()
    loop.run_until(duration)
    return [record.playback_latency for record in receiver.player.records]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--duration", type=float, default=90.0)
    args = parser.parse_args()

    print("Recording one urban flight's channel...")
    recording = run_session(
        ScenarioConfig(
            environment="urban", platform="air", cc="static",
            duration=args.duration, seed=11,
        )
    )
    channel_trace = [
        ChannelRecord(
            time=s.time,
            uplink_bps=s.uplink_bps,
            downlink_bps=s.downlink_bps,
            serving_cell=s.serving_cell,
            rsrp_dbm=s.rsrp_dbm,
            sinr_db=s.sinr_db,
            altitude=s.altitude,
        )
        for s in recording.capacity_samples
    ]
    handovers = [
        HandoverRecord(
            time=e.time,
            source_cell=e.source_cell,
            target_cell=e.target_cell,
            execution_time=e.execution_time,
            altitude=e.altitude,
        )
        for e in recording.handovers
    ]
    print(
        f"  captured {len(channel_trace)} channel samples, "
        f"{len(handovers)} handovers"
    )

    rows = []
    for drop in (False, True):
        latencies = np.array(
            replay(
                channel_trace, handovers, duration=args.duration, drop_on_latency=drop
            )
        )
        rows.append(
            [
                "drop-on-latency" if drop else "default",
                f"{to_ms(np.median(latencies)):.0f}",
                f"{to_ms(np.percentile(latencies, 95)):.0f}",
                f"{np.mean(latencies < 0.3) * 100:.0f}%",
            ]
        )
    print()
    print(
        format_table(
            ["jitter buffer", "median ms", "p95 ms", "lat<300ms"],
            rows,
            title="Same channel, two playout strategies (App. A.4)",
        )
    )


if __name__ == "__main__":
    main()
