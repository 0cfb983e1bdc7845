"""Deterministic per-packet cost of the media path (pacer to player).

A congestion-controlled flight pays mostly per media packet, so the
number of Python calls a sent packet costs is the session's speed in
a unit that does not depend on the host. Calls are counted with
``sys.setprofile`` while one obs-off session runs, and only frames
whose code lives inside the ``repro`` package count: numpy, the
standard library and dataclass-generated ``__init__`` methods stay
out, so the figure does not move between Python versions.

No wall-clock assertion. Each ceiling sits a few calls above what the
media path makes (about 34, 51 and 53); a path that recomputes
``wire_size`` on every read and pays ``max`` and helper hops on every
packet makes about 70, 86 and 100, SCReAM feedback built as one object
per report position and walked position by position makes 68, and a
link finish event per packet and a zero-delay pacer event per unpaced
packet make about 43, 55 and 57.

Event-loop pushes per sent packet are gated the same way (about 1.05,
2.27 and 2.50): links serialize ahead to the channel's next tick and
an unpaced frame leaves in one pacer callback, so a packet costs one
push for its arrival plus its pacer re-arm when paced. A link finish
event per packet and a zero-delay pacer event per unpaced packet make
3.05, 3.29 and 3.52.

The metrics tier is gated the same way, as the calls it adds per sent
packet over obs off. Its per-packet metrics are folds of the run's
logs at teardown, so what is left is the per-frame, per-feedback and
per-tick records (about 0.3, 1.7 and 1.1); recording them live, one
instrument update per packet and site, adds about 15-17.
"""

from __future__ import annotations

import os
import sys

import pytest

import repro
from repro.core.config import ScenarioConfig
from repro.core.receiver import PacketLogEntry
from repro.core.session import run_session
from repro.net.simulator import EventLoop
from repro.rtp.ccfb import CcfbPacketReport

_REPRO_DIR = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep


def repro_calls_per_packet(config: ScenarioConfig, obs: str = "off") -> float:
    """``repro`` function calls made per sent packet by one session."""
    counts: dict = {}

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            counts[code] = counts.get(code, 0) + 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        result = run_session(config, obs=obs)
    finally:
        sys.setprofile(previous)
    calls = sum(
        count for code, count in counts.items()
        if os.path.abspath(code.co_filename).startswith(_REPRO_DIR)
    )
    assert result.packets_sent > 0
    return calls / result.packets_sent


@pytest.mark.parametrize(
    ("cc", "duration", "ceiling"),
    [("static", 5.0, 36.0), ("gcc", 10.0, 54.0), ("scream", 10.0, 56.0)],
)
def test_repro_calls_per_sent_packet(cc, duration, ceiling):
    config = ScenarioConfig(
        cc=cc, environment="urban", platform="air", duration=duration, seed=3
    )
    assert repro_calls_per_packet(config) <= ceiling


@pytest.mark.parametrize(
    ("cc", "duration", "ceiling"),
    [("static", 5.0, 1.1), ("gcc", 10.0, 2.35), ("scream", 10.0, 2.6)],
)
def test_heap_pushes_per_sent_packet(cc, duration, ceiling, monkeypatch):
    pushes = []
    for name in ("call_at", "schedule_at"):
        push = getattr(EventLoop, name)

        def counting(loop, when, callback, push=push):
            pushes.append(1)
            return push(loop, when, callback)

        monkeypatch.setattr(EventLoop, name, counting)
    config = ScenarioConfig(
        cc=cc, environment="urban", platform="air", duration=duration, seed=3
    )
    result = run_session(config)
    assert result.packets_sent > 0
    assert len(pushes) / result.packets_sent <= ceiling


def test_scream_session_builds_no_per_packet_reports(monkeypatch):
    """RFC 8888 reports travel as columns: the media path builds no
    :class:`CcfbPacketReport` (one per window position would be 256 per
    report at the default ack window)."""
    built = []
    original = CcfbPacketReport.__init__

    def counting_init(self, *args, **kwargs):
        built.append(1)
        original(self, *args, **kwargs)

    monkeypatch.setattr(CcfbPacketReport, "__init__", counting_init)
    config = ScenarioConfig(
        cc="scream", environment="urban", platform="air", duration=10.0, seed=3
    )
    result = run_session(config)
    assert result.packets_sent > 0 and result.cc_log
    assert built == []


def test_session_builds_no_packet_log_entries(monkeypatch):
    """The packet log is columns: neither the receive path nor the
    metrics tier's teardown folds build a :class:`PacketLogEntry`
    (a log kept as a list of records builds one per delivered packet)."""
    built = []
    original = PacketLogEntry.__init__

    def counting_init(self, *args, **kwargs):
        built.append(1)
        original(self, *args, **kwargs)

    monkeypatch.setattr(PacketLogEntry, "__init__", counting_init)
    config = ScenarioConfig(
        cc="gcc", environment="urban", platform="air", duration=10.0, seed=3
    )
    result = run_session(config, obs="metrics")
    assert len(result.packet_log) > 1000
    assert built == []


@pytest.mark.parametrize(
    ("cc", "duration", "ceiling"),
    [("static", 5.0, 1.5), ("gcc", 10.0, 3.0), ("scream", 10.0, 2.5)],
)
def test_metrics_tier_calls_per_sent_packet(cc, duration, ceiling):
    config = ScenarioConfig(
        cc=cc, environment="urban", platform="air", duration=duration, seed=3
    )
    added = repro_calls_per_packet(config, "metrics") - repro_calls_per_packet(
        config
    )
    assert added <= ceiling
