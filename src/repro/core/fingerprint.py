"""Canonical run fingerprints for bit-identity gates.

The batched execution paths (:mod:`repro.cellular.batch`,
:mod:`repro.runner.batch`) promise *packet-for-packet* reproduction of
the scalar simulator — not statistical agreement, equality of every
logged float. These helpers reduce a run to a hashable tuple of
exactly the artifacts that promise covers, so equivalence tests and
CI gates compare one value instead of re-deriving field lists:

* :func:`session_fingerprint` — the full measurement dataset of a
  :class:`~repro.core.session.SessionResult` (per-packet transport
  log, playback records, handovers, capacity samples, counters);
* :func:`probe_fingerprint` — the channel-only dataset of a
  :class:`~repro.experiments.probes.ChannelProbeSeed`;
* :func:`fleet_fingerprint` — every member's session fingerprint of a
  :class:`~repro.core.fleet.FleetResult` plus its shared-cell
  occupancy, peak occupancy and congestion time.

:func:`packet_log_tuples`, :func:`playback_tuples` and
:func:`handover_tuples` are the parts these share, for fingerprints of
the other run kinds (control, multipath).

Floats are compared exactly (no tolerance): two runs either consumed
identical random draws through identical arithmetic or they did not.
:func:`digest` reduces a fingerprint to the sha256 that the golden
files under ``tests/golden/`` pin.
"""

from __future__ import annotations

import hashlib
from typing import Any

from repro.core.packet_log import as_packet_log

#: The packet-log columns a fingerprint covers, in its order.
_PACKET_COLUMNS = ("sequence", "sent_at", "received_at", "size_bytes")


def packet_log_tuples(log: Any) -> tuple:
    """One tuple of the fingerprinted columns per logged packet."""
    return tuple(zip(*map(as_packet_log(log).column, _PACKET_COLUMNS)))


def playback_tuples(playback: "list[Any]") -> tuple:
    return tuple(
        (
            record.frame_id,
            record.play_time,
            record.encode_time,
            record.ssim,
            record.complete,
        )
        for record in playback
    )


def handover_tuples(handovers: "list[Any]") -> tuple:
    return tuple(
        (
            event.time,
            event.source_cell,
            event.target_cell,
            event.execution_time,
            event.altitude,
        )
        for event in handovers
    )


def session_fingerprint(result: Any) -> tuple:
    """Exact-equality digest of one :class:`SessionResult`."""
    return (
        result.packets_sent,
        result.frames_decoded,
        result.cells_seen,
        result.packets_lost_radio,
        result.packets_dropped_buffer,
        packet_log_tuples(result.packet_log),
        playback_tuples(result.playback),
        handover_tuples(result.handovers),
        tuple(
            (sample.time, sample.uplink_bps, sample.downlink_bps)
            for sample in result.capacity_samples
        ),
        result.extra.get("ping_pong_handovers"),
    )


def probe_fingerprint(probe: Any) -> tuple:
    """Exact-equality digest of one :class:`ChannelProbeSeed`."""
    return (
        tuple(probe.uplink_samples),
        tuple(probe.altitudes),
        handover_tuples(probe.handovers),
        probe.cells_seen,
        probe.ping_pong,
    )


def fleet_fingerprint(result: Any) -> tuple:
    """Exact-equality digest of one :class:`FleetResult`."""
    return (
        tuple(session_fingerprint(session) for session in result.sessions),
        tuple(sorted(result.occupancy.items())),
        tuple(sorted(result.peak_occupancy.items())),
        tuple(result.congestion_time),
    )


def digest(fingerprint: Any) -> str:
    """sha256 hex digest of ``repr(fingerprint)``.

    ``repr`` writes every float as its shortest round-tripping string,
    so the digest changes with any last-ulp drift in the fingerprint.
    """
    return hashlib.sha256(repr(fingerprint).encode("utf-8")).hexdigest()
