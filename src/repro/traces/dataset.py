"""Dataset export/import: one directory per measurement run.

Mirrors the layout of the paper's released dataset: a directory per
run holding the per-packet log, the handover log, the channel samples
and a small metadata file. ``export_session`` turns a
:class:`repro.core.session.SessionResult` into such a directory;
``load_run`` reads one back for offline analysis — the same round
trip the paper's parsing scripts perform on the real captures.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from pathlib import Path

from repro.core.packet_log import as_packet_log
from repro.core.session import SessionResult
from repro.traces.schema import (
    ChannelRecord,
    HandoverRecord,
    PacketRecord,
    read_csv,
    write_csv,
    write_rows,
)

PACKETS_FILE = "packets.csv"
HANDOVERS_FILE = "handovers.csv"
CHANNEL_FILE = "channel.csv"
META_FILE = "meta.json"


@dataclass
class TraceRun:
    """One measurement run loaded from disk."""

    meta: dict
    packets: list[PacketRecord]
    handovers: list[HandoverRecord]
    channel: list[ChannelRecord]

    @property
    def duration(self) -> float:
        """Run duration recorded in the metadata."""
        return float(self.meta["duration"])


def export_session(result: SessionResult, directory: Path | str) -> Path:
    """Write ``result`` as a dataset run directory; returns the path."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    log = as_packet_log(result.packet_log)
    names = [f.name for f in fields(PacketRecord)]
    write_rows(directory / PACKETS_FILE, names, zip(*map(log.column, names)))
    write_csv(
        directory / HANDOVERS_FILE,
        [
            HandoverRecord(
                time=event.time,
                source_cell=event.source_cell,
                target_cell=event.target_cell,
                execution_time=event.execution_time,
                altitude=event.altitude,
            )
            for event in result.handovers
        ],
    )
    write_csv(
        directory / CHANNEL_FILE,
        [
            ChannelRecord(
                time=sample.time,
                uplink_bps=sample.uplink_bps,
                downlink_bps=sample.downlink_bps,
                serving_cell=sample.serving_cell,
                rsrp_dbm=sample.rsrp_dbm,
                sinr_db=sample.sinr_db,
                altitude=sample.altitude,
            )
            for sample in result.capacity_samples
        ],
    )
    meta = {
        "environment": result.config.environment.value,
        "platform": result.config.platform.value,
        "operator": result.config.operator,
        "cc": result.config.cc.value,
        "seed": result.config.seed,
        "duration": result.duration,
        "packets_sent": result.packets_sent,
        "cells_seen": result.cells_seen,
        "label": result.config.label(),
    }
    (directory / META_FILE).write_text(json.dumps(meta, indent=2))
    return directory


def load_run(directory: Path | str) -> TraceRun:
    """Load one run directory written by :func:`export_session`."""
    directory = Path(directory)
    meta = json.loads((directory / META_FILE).read_text())
    return TraceRun(
        meta=meta,
        packets=read_csv(directory / PACKETS_FILE, PacketRecord),
        handovers=read_csv(directory / HANDOVERS_FILE, HandoverRecord),
        channel=read_csv(directory / CHANNEL_FILE, ChannelRecord),
    )


def list_runs(root: Path | str) -> list[Path]:
    """Run directories (those containing a metadata file) under ``root``."""
    root = Path(root)
    if not root.exists():
        return []
    return sorted(
        path.parent for path in root.glob(f"*/{META_FILE}")
    )
