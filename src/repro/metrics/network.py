"""Network-level metrics derived from a session's packet/RRC logs.

Computes the Section 4.1 quantities: handover frequency (events/s),
HET distributions, one-way latency, goodput and packet error rate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cellular.handover import HET_SUCCESS_THRESHOLD, HandoverEvent
from repro.core.packet_log import PacketLog, PacketLogEntry, as_packet_log
from repro.core.session import SessionResult
from repro.metrics.stats import BoxplotSummary, Cdf, windowed_rate
from repro.rtp.packets import SEQ_MOD
from repro.util.units import bytes_to_bits, to_mbps, to_ms


@dataclass
class HandoverMetrics:
    """Handover statistics of one run (Fig. 4)."""

    frequency_per_s: float
    het_seconds: list[float]
    successful_fraction: float
    count: int

    @classmethod
    def from_events(
        cls, events: list[HandoverEvent], duration: float
    ) -> "HandoverMetrics":
        """Reduce RRC handover events over a run of ``duration`` seconds."""
        if duration <= 0:
            raise ValueError(f"duration must be positive, got {duration}")
        hets = [event.execution_time for event in events]
        successful = (
            sum(1 for h in hets if h <= HET_SUCCESS_THRESHOLD) / len(hets)
            if hets
            else 1.0
        )
        return cls(
            frequency_per_s=len(events) / duration,
            het_seconds=hets,
            successful_fraction=successful,
            count=len(events),
        )

    def het_summary(self) -> BoxplotSummary | None:
        """Boxplot summary of HET values, or ``None`` without events."""
        if not self.het_seconds:
            return None
        return BoxplotSummary.from_samples(self.het_seconds)


def _delays(packet_log: PacketLog | list[PacketLogEntry]) -> np.ndarray:
    log = as_packet_log(packet_log)
    return log.array("received_at") - log.array("sent_at")


def one_way_delays(packet_log: PacketLog | list[PacketLogEntry]) -> list[float]:
    """Per-packet one-way delay samples (seconds), as Python floats."""
    return _delays(packet_log).tolist()


def owd_cdf(packet_log: PacketLog | list[PacketLogEntry]) -> Cdf:
    """Empirical one-way-delay CDF (Fig. 5)."""
    return Cdf.from_samples(_delays(packet_log))


def goodput_series(
    packet_log: PacketLog | list[PacketLogEntry],
    *,
    window: float = 1.0,
    duration: float | None = None,
) -> list[tuple[float, float]]:
    """Received-rate time series in bits/s per ``window`` seconds."""
    log = as_packet_log(packet_log)
    return windowed_rate(
        log.array("received_at"),
        log.array("size_bytes"),
        window=window,
        t_start=0.0,
        t_end=duration,
    )


def goodput_summary(
    packet_log: PacketLog | list[PacketLogEntry],
    *,
    duration: float,
    warmup: float = 0.0,
) -> BoxplotSummary:
    """Boxplot summary of per-second goodput (Fig. 6), in bits/s.

    ``warmup`` seconds are excluded so CC ramp-up does not dominate the
    lower tail when that is not the object of study.
    """
    series = [
        rate
        for t, rate in goodput_series(packet_log, duration=duration)
        if t >= warmup
    ]
    return BoxplotSummary.from_samples(series)


def delivered_bytes(
    packet_log: PacketLog | list[PacketLogEntry], *, since: float = 0.0
) -> int:
    """Bytes of the packets received at or after ``since`` seconds."""
    log = as_packet_log(packet_log)
    sizes = log.array("size_bytes")
    return int(sizes[log.array("received_at") >= since].sum())


def average_goodput(
    packet_log: PacketLog | list[PacketLogEntry],
    *,
    duration: float,
    warmup: float = 0.0,
) -> float:
    """Mean received rate in bits/s over the run (after ``warmup``)."""
    total = delivered_bytes(packet_log, since=warmup)
    span = max(duration - warmup, 1e-9)
    return bytes_to_bits(total) / span


def sequence_gaps(packet_log: PacketLog | list[PacketLogEntry]) -> np.ndarray:
    """Sequence-number step from each received packet to the next.

    The receive path is FIFO, so arrival order equals send order and a
    step of ``k`` between consecutive received sequence numbers (mod
    2^16) means ``k - 1`` packets were dropped back to back.
    """
    return np.diff(as_packet_log(packet_log).array("sequence")) % SEQ_MOD


@dataclass
class LossMetrics:
    """Packet error rate and burstiness (Section 4.1)."""

    sent: int
    delivered: int
    loss_rate: float
    mean_burst_length: float

    @classmethod
    def from_result(cls, result: SessionResult) -> "LossMetrics":
        """Compute end-to-end loss stats for one run."""
        sent = result.packets_sent
        delivered = len(result.packet_log)
        loss_rate = max(0.0, 1.0 - delivered / sent) if sent else 0.0
        bursts = _loss_burst_lengths(result.packet_log)
        mean_burst = float(np.mean(bursts)) if bursts.size else 0.0
        return cls(
            sent=sent,
            delivered=delivered,
            loss_rate=loss_rate,
            mean_burst_length=mean_burst,
        )


def _loss_burst_lengths(packet_log: PacketLog | list[PacketLogEntry]) -> np.ndarray:
    """Lengths of the runs of packets lost back to back."""
    gaps = sequence_gaps(packet_log)
    return gaps[gaps > 1] - 1


def network_summary(result: SessionResult) -> dict[str, float]:
    """One-line network summary for reports."""
    handovers = HandoverMetrics.from_events(result.handovers, result.duration)
    loss = LossMetrics.from_result(result)
    owds = _delays(result.packet_log)
    return {
        "ho_per_s": handovers.frequency_per_s,
        "het_median_ms": to_ms(float(np.median(handovers.het_seconds)))
        if handovers.het_seconds
        else 0.0,
        "owd_median_ms": to_ms(float(np.median(owds))) if owds.size else 0.0,
        "owd_p99_ms": to_ms(float(np.percentile(owds, 99))) if owds.size else 0.0,
        "goodput_mbps": to_mbps(
            average_goodput(result.packet_log, duration=result.duration)
        ),
        "loss_rate": loss.loss_rate,
        "cells_seen": float(result.cells_seen),
    }
