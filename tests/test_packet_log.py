"""The packet log as columns: views, codec and readers against records.

A :class:`PacketLog` holds a run's per-packet transport log as one
column per :class:`PacketLogEntry` field. Each property here builds the
same log as a plain list of records (the form the log had before) and
requires equal results:

* a log filled through its five appenders and one coerced from the
  record list against the list itself: length, iteration, indexing,
  slices, ``==``, ``repr``, pickle round trips (exact types and bits)
  and the session fingerprint;
* every figure reader that reads columns, on a scalar GCC session and a
  batched SCReAM pair, fresh and loaded from a pickle, against the
  record loop it replaced.
"""

from __future__ import annotations

import pickle
import struct
from dataclasses import fields
from operator import attrgetter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import ScenarioConfig
from repro.core.fingerprint import digest, session_fingerprint
from repro.core.packet_log import FIELDS, PacketLog, as_packet_log
from repro.core.receiver import PacketLogEntry
from repro.core.sender import SenderStats
from repro.core.session import SessionResult, run_session
from repro.experiments.fleet import _session_goodput
from repro.experiments.video_figures import fig8_series
from repro.metrics.howindow import (
    HoWindowRatio,
    handover_latency_ratios,
    latency_ratio_in_window,
)
from repro.metrics.network import (
    LossMetrics,
    _loss_burst_lengths,
    average_goodput,
    goodput_series,
    goodput_summary,
    network_summary,
    one_way_delays,
    owd_cdf,
)
from repro.metrics.stats import BoxplotSummary, Cdf, windowed_rate
from repro.obs import MetricsRecorder
from repro.runner import WORK_SESSION, execute_batch, plan_batches
from repro.runner.work import make_unit
from repro.traces.dataset import PACKETS_FILE, export_session
from repro.traces.schema import PacketRecord, write_csv
from repro.util.units import bytes_to_bits, to_mbps, to_ms

PROTOCOLS = sorted({4, 5, pickle.DEFAULT_PROTOCOL, pickle.HIGHEST_PROTOCOL})
_INT64_MAX = 2**63 - 1


def _exact(value):
    """A value's type plus, for floats, its bit pattern."""
    if isinstance(value, float):  # numpy.float64 included
        return type(value), struct.pack("<d", value)
    return type(value), value


def _rows_exactly(records) -> list:
    return [
        tuple(_exact(getattr(record, name)) for name in FIELDS) for record in records
    ]


# ----------------------------------------------------------------------
# (a) views, equality, repr, pickling and the fingerprint
# ----------------------------------------------------------------------
def _nan_with_payload(payload: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", 0x7FF8_0000_0000_0000 | payload))[0]


_floats = st.one_of(
    st.floats(allow_nan=False),
    st.sampled_from([0.0, -0.0, 1e-300, 0.1]),
    st.integers(1, 0xFFFF).map(_nan_with_payload),
)
_ints = st.integers(-(2**31), 2**31)
_COLUMN_KINDS = {
    "float": _floats,
    "numpy.float64": _floats.map(np.float64),
    "float or numpy.float64": st.one_of(_floats, _floats.map(np.float64)),
    "int": _ints,
    "int beyond int64": st.one_of(_ints, st.integers(_INT64_MAX + 1, 2**70)),
    "int or bool": st.one_of(_ints, st.booleans()),
    "bool": st.booleans(),
}


@st.composite
def record_lists(draw):
    """Records whose columns each draw from one kind of value."""
    kinds = [draw(st.sampled_from(sorted(_COLUMN_KINDS))) for _ in FIELDS]
    rows = draw(st.integers(0, 12))
    return [
        PacketLogEntry(*(draw(_COLUMN_KINDS[kind]) for kind in kinds))
        for _ in range(rows)
    ]


def _appended(records) -> PacketLog:
    log = PacketLog()
    appends = log.appenders()
    for record in records:
        for append, name in zip(appends, FIELDS):
            append(getattr(record, name))
    return log


def _has_nan(records) -> bool:
    return any(
        isinstance(value, float) and value != value
        for record in records
        for value in attrgetter(*FIELDS)(record)
    )


def _reference_packet_rows(records) -> tuple:
    """The packet-log part of a session fingerprint, record by record."""
    return tuple(
        (entry.sequence, entry.sent_at, entry.received_at, entry.size_bytes)
        for entry in records
    )


def _result(packet_log) -> SessionResult:
    return SessionResult(
        config=ScenarioConfig(),
        duration=1.0,
        packet_log=packet_log,
        playback=[],
        handovers=[],
        capacity_samples=[],
        rssi_log=[],
        sender_stats=SenderStats(),
    )


@settings(max_examples=200, deadline=None)
@given(record_lists())
def test_column_log_matches_the_record_list(records):
    exact = _rows_exactly(records)
    for log in (_appended(records), PacketLog.from_records(records)):
        assert len(log) == len(records)
        assert bool(log) == bool(records)
        assert _rows_exactly(log) == exact
        assert _rows_exactly(log[i] for i in range(len(records))) == exact
        assert _rows_exactly(log[-i - 1] for i in range(len(records))) == exact[::-1]
        for window in (slice(None), slice(1, None), slice(None, -1, 2), slice(3, 1)):
            assert _rows_exactly(log[window]) == exact[window]
        with pytest.raises(IndexError):
            log[len(records)]
        # The live columns hold the records' own objects, so even a NaN
        # compares equal (list equality checks identity first).
        assert log == records
        assert log == _appended(records)
        assert repr(log) == repr(records)
        if records:
            assert log != records[1:]
            assert log != PacketLog.from_records(records[1:])
        for protocol in PROTOCOLS:
            back = pickle.loads(pickle.dumps(log, protocol=protocol))
            assert type(back) is PacketLog
            assert _rows_exactly(back) == exact
            assert _rows_exactly(back[i] for i in range(len(records))) == exact
            assert repr(back) == repr(records)
            if not _has_nan(records):
                assert back == log and back == records
            # Re-pickling a loaded log writes the bytes it was read from.
            data = pickle.dumps(log, protocol=protocol)
            assert pickle.dumps(pickle.loads(data), protocol=protocol) == data
        assert digest(session_fingerprint(_result(log))[5]) == digest(
            _reference_packet_rows(records)
        )


@settings(max_examples=100, deadline=None)
@given(record_lists())
def test_session_result_coerces_a_record_list(records):
    result = _result(list(records))
    assert type(result.packet_log) is PacketLog
    assert result.packet_log == records
    assert repr(result.packet_log) == repr(records)
    for protocol in PROTOCOLS:
        back = pickle.loads(pickle.dumps(result, protocol=protocol))
        assert type(back.packet_log) is PacketLog
        assert _rows_exactly(back.packet_log) == _rows_exactly(records)
        assert repr(back) == repr(result)
        assert digest(session_fingerprint(back)) == digest(session_fingerprint(result))


def test_loaded_columns_stay_buffers():
    records = [PacketLogEntry(i, 0.5 * i, 0.5 * i + 0.01, 1200, i // 3) for i in range(9)]
    back = pickle.loads(pickle.dumps(_appended(records)))
    assert back.array("sent_at") is back.array("sent_at")
    assert back.array("sequence").dtype == np.int64
    assert back.column("sent_at") == [record.sent_at for record in records]


def test_stale_field_names_raise():
    log = _appended([PacketLogEntry(1, 0.0, 0.1, 1200, 0)])
    rebuild, (cls, names, columns) = log.__reduce__()
    with pytest.raises(ValueError, match="stale"):
        rebuild(cls, names[::-1], columns[::-1])


def test_columns_must_match_in_length():
    with pytest.raises(ValueError):
        PacketLog([[1, 2], [0.0], [0.1], [1200], [0]])


# ----------------------------------------------------------------------
# (b) the figure readers against the record loops they replaced
# ----------------------------------------------------------------------
def reference_delays(records) -> list:
    return [entry.received_at - entry.sent_at for entry in records]


def reference_goodput_series(records, duration) -> list:
    return windowed_rate(
        [entry.received_at for entry in records],
        [entry.size_bytes for entry in records],
        window=1.0,
        t_start=0.0,
        t_end=duration,
    )


def reference_delivered_bytes(records, warmup) -> int:
    return sum(entry.size_bytes for entry in records if entry.received_at >= warmup)


def reference_bursts(records) -> list:
    bursts: list[int] = []
    previous = None
    for entry in records:
        if previous is not None:
            gap = (entry.sequence - previous) % (1 << 16)
            if gap > 1:
                bursts.append(gap - 1)
        previous = entry.sequence
    return bursts


def reference_ratios(records, handovers) -> list:
    times = np.asarray([entry.sent_at for entry in records])
    delays = np.asarray(reference_delays(records))
    return [
        HoWindowRatio(
            handover_time=event.time,
            before_ratio=latency_ratio_in_window(
                times, delays, event.time - 1.0, event.time
            ),
            after_ratio=latency_ratio_in_window(
                times,
                delays,
                event.time + event.execution_time,
                event.time + event.execution_time + 1.0,
            ),
        )
        for event in handovers
    ]


def reference_fig8(records) -> tuple:
    bucket = 0.5
    buckets: dict[int, list] = {}
    for entry in records:
        buckets.setdefault(int(entry.sent_at / bucket), []).append(
            entry.received_at - entry.sent_at
        )
    network = [
        (index * bucket, float(np.max(values)))
        for index, values in sorted(buckets.items())
    ]
    loss_times = []
    previous = None
    for entry in records:
        if previous is not None and (entry.sequence - previous) % (1 << 16) > 1:
            loss_times.append(entry.received_at)
        previous = entry.sequence
    return network, loss_times


def reference_folds(records) -> list:
    """The receiver's teardown folds of the packet log, record by record."""
    obs = MetricsRecorder()
    n = len(records)
    obs.count("receiver/packets", n)
    obs.count("receiver/bytes", sum(map(attrgetter("size_bytes"), records)))
    owd = np.fromiter(map(attrgetter("received_at"), records), np.float64, n)
    owd -= np.fromiter(map(attrgetter("sent_at"), records), np.float64, n)
    obs.observe_many("receiver/owd_ms", to_ms(owd))
    return _packet_folds(obs.registry.snapshot())


def _packet_folds(snapshot) -> list:
    names = ("receiver/packets", "receiver/bytes", "receiver/owd_ms")
    return [record for record in snapshot if record["name"] in names]


def _bits(values) -> list:
    return [struct.pack("<d", value) for value in values]


@pytest.fixture(scope="module")
def sessions():
    """A scalar GCC session and a batched SCReAM pair (metrics tier, each
    with a handover), fresh and loaded from a pickle."""
    scalar = run_session(
        ScenarioConfig(cc="gcc", environment="urban", duration=10.0, seed=2),
        obs="metrics",
    )
    units = [
        make_unit(
            WORK_SESSION,
            ScenarioConfig(cc="scream", environment="rural", duration=6.0, seed=seed),
            obs="metrics",
        )
        for seed in (1, 2)
    ]
    plans, leftovers = plan_batches(list(enumerate(units)))
    assert leftovers == [] and len(plans) == 1
    batched = execute_batch(plans[0])
    assert type(batched[0].packet_log[0].sent_at) is np.float64
    fresh = [scalar, *batched]
    return fresh + [pickle.loads(pickle.dumps(result)) for result in fresh]


def test_readers_match_record_loops(sessions, tmp_path):
    for index, result in enumerate(sessions):
        records = list(result.packet_log)
        duration = result.duration
        assert records and result.handovers

        delays = one_way_delays(result.packet_log)
        assert all(type(delay) is float for delay in delays)
        assert _bits(delays) == _bits(reference_delays(records))
        assert _bits(owd_cdf(result.packet_log).values) == _bits(
            Cdf.from_samples(reference_delays(records)).values
        )
        assert goodput_series(result.packet_log, duration=duration) == (
            reference_goodput_series(records, duration)
        )
        assert goodput_summary(
            result.packet_log, duration=duration, warmup=2.0
        ) == BoxplotSummary.from_samples(
            [r for t, r in reference_goodput_series(records, duration) if t >= 2.0]
        )
        for warmup in (0.0, 2.0):
            expected = bytes_to_bits(reference_delivered_bytes(records, warmup))
            assert average_goodput(
                result.packet_log, duration=duration, warmup=warmup
            ) == expected / max(duration - warmup, 1e-9)
            assert _session_goodput(result, warmup) == expected / (duration - warmup)
        bursts = reference_bursts(records)
        assert _loss_burst_lengths(result.packet_log).tolist() == bursts
        loss = LossMetrics.from_result(result)
        assert loss.mean_burst_length == (float(np.mean(bursts)) if bursts else 0.0)
        summary = network_summary(result)
        owds = reference_delays(records)
        assert summary["owd_median_ms"] == to_ms(float(np.median(owds)))
        assert summary["owd_p99_ms"] == to_ms(float(np.percentile(owds, 99)))
        assert summary["goodput_mbps"] == to_mbps(
            bytes_to_bits(reference_delivered_bytes(records, 0.0)) / duration
        )
        assert handover_latency_ratios(
            result.packet_log, result.handovers
        ) == reference_ratios(records, result.handovers)
        series = fig8_series(result)
        network, loss_times = reference_fig8(records)
        assert series.network_latency == network
        assert _bits(series.loss_times) == _bits(loss_times)
        assert _packet_folds(result.extra["metrics"]) == reference_folds(records)
        exported = export_session(result, tmp_path / f"new{index}")
        write_csv(
            tmp_path / f"ref{index}.csv",
            [PacketRecord(*(getattr(e, f.name) for f in fields(e))) for e in records],
        )
        assert (exported / PACKETS_FILE).read_bytes() == (
            tmp_path / f"ref{index}.csv"
        ).read_bytes()
        assert digest(session_fingerprint(result)[5]) == digest(
            _reference_packet_rows(records)
        )


def test_readers_take_a_record_list(sessions):
    result = sessions[0]
    records = list(result.packet_log)
    assert one_way_delays(records) == one_way_delays(result.packet_log)
    assert handover_latency_ratios(records, result.handovers) == (
        handover_latency_ratios(result.packet_log, result.handovers)
    )
    assert as_packet_log(records) == result.packet_log
