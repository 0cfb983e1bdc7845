"""Trace/metric name registry — GENERATED, do not edit by hand.

Regenerate with ``python -m repro.lint --write-trace-schema`` whenever
an instrumentation site is added, renamed or removed; RPL008 fails the
lint when this file and the emit sites disagree. The
:class:`repro.obs.recorder.Recorder` can cross-check names against
this registry at runtime (``warn_unregistered=True``), keeping the
static and dynamic views of the schema in sync.
"""

from __future__ import annotations

#: Every statically-known trace record name (events + spans).
TRACE_NAMES = frozenset({
    "cell.congestion",
    "channel.capacity_dip",
    "channel.interference_outlier",
    "fleet.member_sample",
    "gcc.overuse",
    "gcc.rate_decrease",
    "handover.a3_enter",
    "handover.execution",
    "jitter.gap",
    "loss.burst",
    "player.underrun",
    "player.window",
    "receiver.owd_anomaly",
    "receiver.window",
    "scream.false_loss",
    "scream.loss",
    "scream.rate_decrease",
    "sender.queue_anomaly",
    "sender.queue_discard",
    "session.config",
})

#: Every statically-known metric name (counters/gauges/histograms).
METRIC_NAMES = frozenset({
    "channel/capacity_dip_episodes",
    "channel/congestion_episodes",
    "channel/downlink_bps",
    "channel/interference_outliers",
    "channel/sinr_db",
    "channel/uplink_bps",
    "fleet/congestion_time",
    "fleet/occupancy",
    "fleet/peak_occupancy",
    "fleet/sinr_db",
    "fleet/ticks",
    "fleet/uplink_bps",
    "fleet/uplink_share",
    "gcc/overuse_events",
    "gcc/packets_acked",
    "gcc/packets_lost",
    "gcc/rtt_ms",
    "gcc/target_bitrate",
    "handover/executed",
    "handover/het_ms",
    "handover/het_over_threshold",
    "jitter/dropped_late",
    "jitter/gap_events",
    "jitter/gap_packets",
    "jitter/released",
    "net/loss_bursts",
    "player/underruns",
    "receiver/bytes",
    "receiver/feedback_sent",
    "receiver/owd_anomaly_episodes",
    "receiver/owd_ms",
    "receiver/packets",
    "scream/cwnd_bytes",
    "scream/false_loss_candidates",
    "scream/loss_events",
    "scream/qdelay_ms",
    "scream/target_bitrate",
    "sender/bytes_sent",
    "sender/encoder_target_bps",
    "sender/frames_encoded",
    "sender/packets_discarded",
    "sender/packets_sent",
    "sender/queue_anomaly_episodes",
    "sender/queue_delay_ms",
    "sender/queue_discards",
})

#: Union view used by the runtime registry check.
ALL_NAMES = TRACE_NAMES | METRIC_NAMES
