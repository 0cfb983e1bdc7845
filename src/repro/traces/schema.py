"""Trace schema mirroring the paper's released dataset.

The authors publish ~7 GB of per-packet logs, RRC (handover) event
logs and signal reports per measurement run. Offline we cannot ship
their data, so :mod:`repro.traces` defines an equivalent schema and
generates synthetic traces from the cellular model; the analysis code
consumes either. Three record types per run:

* ``packets.csv`` — one row per delivered RTP packet (sequence, send
  time, receive time, size, frame id) — the tcpdump-derived log;
* ``handovers.csv`` — one row per RRC handover (time, source cell,
  target cell, execution time, altitude) — the QCSuper-derived log;
* ``channel.csv`` — the 100 ms channel samples (capacity, serving
  cell, RSRP, SINR, altitude) — the ground truth a testbed lacks but
  an emulator can expose, enabling trace replay.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Iterable, Sequence, Type, TypeVar

T = TypeVar("T")


@dataclass
class PacketRecord:
    """One delivered RTP packet (schema of ``packets.csv``)."""

    sequence: int
    sent_at: float
    received_at: float
    size_bytes: int
    frame_id: int

    @property
    def one_way_delay(self) -> float:
        """Transport one-way delay in seconds."""
        return self.received_at - self.sent_at


@dataclass
class HandoverRecord:
    """One RRC handover event (schema of ``handovers.csv``)."""

    time: float
    source_cell: int
    target_cell: int
    execution_time: float
    altitude: float


@dataclass
class ChannelRecord:
    """One 100 ms channel snapshot (schema of ``channel.csv``)."""

    time: float
    uplink_bps: float
    downlink_bps: float
    serving_cell: int
    rsrp_dbm: float
    sinr_db: float
    altitude: float


_CASTS = {int: int, float: float, str: str}


def write_csv(path: Path | str, records: Iterable[object]) -> int:
    """Write dataclass records to ``path`` as CSV; returns row count."""
    records = list(records)
    names = [f.name for f in fields(records[0])] if records else []
    return write_rows(
        path,
        names,
        ([getattr(record, name) for name in names] for record in records),
    )


def write_rows(
    path: Path | str, names: Sequence[str], rows: Iterable[Sequence[object]]
) -> int:
    """Write ``rows`` under the header ``names`` as CSV; returns row count.

    No rows write an empty file, without a header.
    """
    rows = list(rows)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    if not rows:
        path.write_text("")
        return 0
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(names)
        writer.writerows(rows)
    return len(rows)


def read_csv(path: Path | str, record_type: Type[T]) -> list[T]:
    """Read dataclass records of ``record_type`` from a CSV file."""
    path = Path(path)
    text = path.read_text()
    return parse_csv(text, record_type)


def parse_csv(text: str, record_type: Type[T]) -> list[T]:
    """Parse CSV text into dataclass records (inverse of write_csv)."""
    if not text.strip():
        return []
    reader = csv.reader(io.StringIO(text))
    header = next(reader)
    field_types = {f.name: f.type for f in fields(record_type)}
    casts = []
    for name in header:
        if name not in field_types:
            raise ValueError(
                f"unknown column {name!r} for {record_type.__name__}"
            )
        type_name = field_types[name]
        cast = float if type_name in ("float", float) else int
        casts.append(cast)
    records = []
    for row in reader:
        if not row:
            continue
        kwargs = {
            name: cast(value) for name, cast, value in zip(header, casts, row)
        }
        records.append(record_type(**kwargs))
    return records
