"""Tests for the observability layer: metrics, tracing, export, CLI."""

import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.config import ScenarioConfig
from repro.core.session import run_session
from repro.experiments import ExperimentSettings, run_matrix
from repro.obs import (
    NULL_RECORDER,
    CampaignStatusWriter,
    Counter,
    FleetMetricsPlane,
    Gauge,
    Histogram,
    MetricsRecorder,
    MetricsRegistry,
    NullRecorder,
    ObsLevel,
    Recorder,
    TraceEvent,
    TraceFollower,
    TraceSpan,
    WindowedStats,
    component_of,
    filter_records,
    format_key,
    merge_traces,
    read_jsonl,
    read_status,
    render_status,
    render_timeline,
    write_jsonl,
)
from repro.runner import CampaignRunner


class FakeClock:
    """Stand-in for the event loop: just an advanceable ``.now``."""

    def __init__(self, now: float = 0.0) -> None:
        self.now = now


# ----------------------------------------------------------------------
# metrics registry
# ----------------------------------------------------------------------
class TestInstruments:
    def test_counter_accumulates_and_rejects_negative(self):
        counter = Counter("gcc/overuse_events")
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_gauge_tracks_value_max_updates(self):
        gauge = Gauge("gcc/target_bitrate")
        gauge.set(5.0)
        gauge.set(9.0)
        gauge.set(2.0)
        assert gauge.value == 2.0
        assert gauge.maximum == 9.0
        assert gauge.updates == 3

    def test_histogram_rejects_bad_buckets(self):
        with pytest.raises(ValueError):
            Histogram("x", buckets=())
        with pytest.raises(ValueError):
            Histogram("x", buckets=(1.0, 1.0, 2.0))
        with pytest.raises(ValueError):
            Histogram("x", buckets=(2.0, 1.0))

    def test_format_key(self):
        assert format_key("gcc/rtt_ms", {}) == "gcc/rtt_ms"
        assert (
            format_key("gcc/rtt_ms", {"env": "urban", "cc": "gcc"})
            == "gcc/rtt_ms{cc=gcc,env=urban}"
        )

    def test_registry_get_or_create_and_type_conflict(self):
        registry = MetricsRegistry()
        assert registry.counter("a/b") is registry.counter("a/b")
        assert registry.counter("a/b", env="x") is not registry.counter("a/b")
        with pytest.raises(TypeError):
            registry.gauge("a/b")
        with pytest.raises(TypeError):
            registry.histogram("a/b")
        assert registry.get("a/b").value == 0.0
        assert registry.get("missing/metric") is None


class TestHistogramQuantiles:
    def test_empty_histogram_is_nan(self):
        histogram = Histogram("h", buckets=(1.0, 10.0))
        assert math.isnan(histogram.quantile(0.5))
        assert math.isnan(histogram.mean)

    def test_edges_are_exact_min_and_max(self):
        histogram = Histogram("h", buckets=(1.0, 10.0, 100.0))
        for value in (0.3, 4.0, 7.0, 42.0):
            histogram.observe(value)
        assert histogram.quantile(0.0) == 0.3
        assert histogram.quantile(1.0) == 42.0

    def test_out_of_range_rejected(self):
        histogram = Histogram("h", buckets=(1.0,))
        with pytest.raises(ValueError):
            histogram.quantile(-0.1)
        with pytest.raises(ValueError):
            histogram.quantile(1.1)

    def test_interpolated_quantile_stays_in_data_range(self):
        histogram = Histogram("h", buckets=(1.0, 10.0, 100.0))
        for value in (2.0, 3.0, 4.0, 5.0):
            histogram.observe(value)
        # All mass sits in the (1, 10] bucket, so the raw interpolation
        # (1 + 9 * 0.5 = 5.5) exceeds the observed max and is clamped.
        assert histogram.quantile(0.5) == 5.0
        assert 2.0 <= histogram.quantile(0.25) <= 5.0

    def test_overflow_bucket_uses_observed_max(self):
        histogram = Histogram("h", buckets=(1.0,))
        histogram.observe(500.0)
        histogram.observe(700.0)
        assert histogram.quantile(0.99) <= 700.0
        assert histogram.quantile(0.5) >= 1.0

    def test_single_observation_all_quantiles_equal(self):
        histogram = Histogram("h", buckets=(1.0, 10.0))
        histogram.observe(3.0)
        for q in (0.0, 0.25, 0.5, 0.99, 1.0):
            assert histogram.quantile(q) == 3.0


class TestSnapshotMerge:
    def _populated(self):
        registry = MetricsRegistry()
        registry.counter("sender/packets_sent").inc(10)
        registry.gauge("gcc/target_bitrate").set(8e6)
        histogram = registry.histogram("receiver/owd_ms", buckets=(10.0, 100.0))
        histogram.observe(5.0)
        histogram.observe(50.0)
        return registry

    def test_snapshot_roundtrip(self):
        registry = self._populated()
        rebuilt = MetricsRegistry.from_snapshot(registry.snapshot())
        assert rebuilt.snapshot() == registry.snapshot()

    def test_merge_is_order_independent(self):
        a = self._populated()
        b = MetricsRegistry()
        b.counter("sender/packets_sent").inc(7)
        b.gauge("gcc/target_bitrate").set(6e6)
        b.histogram("receiver/owd_ms", buckets=(10.0, 100.0)).observe(150.0)

        ab = MetricsRegistry()
        ab.merge_snapshot(a.snapshot())
        ab.merge_snapshot(b.snapshot())
        ba = MetricsRegistry()
        ba.merge_snapshot(b.snapshot())
        ba.merge_snapshot(a.snapshot())
        assert ab.snapshot() == ba.snapshot()

        assert ab.get("sender/packets_sent").value == 17
        assert ab.get("gcc/target_bitrate").value == 8e6  # merged gauge = max
        merged = ab.get("receiver/owd_ms")
        assert merged.count == 3
        assert merged.minimum == 5.0 and merged.maximum == 150.0

    def test_merge_rejects_bucket_mismatch(self):
        a = MetricsRegistry()
        a.histogram("h", buckets=(1.0, 2.0)).observe(1.0)
        snapshot = a.snapshot()
        b = MetricsRegistry()
        b.histogram("h", buckets=(1.0, 3.0))
        with pytest.raises(ValueError):
            b.merge_snapshot(snapshot)

    def test_render_mentions_every_metric(self):
        text = self._populated().render()
        assert "sender/packets_sent = 10" in text
        assert "gcc/target_bitrate" in text
        assert "receiver/owd_ms: n=2" in text


class TestHistogramMerge:
    def test_merge_sums_counts_and_tracks_extrema(self):
        a = Histogram("h", buckets=(1.0, 10.0))
        for value in (0.5, 5.0):
            a.observe(value)
        b = Histogram("h", buckets=(1.0, 10.0))
        b.observe(50.0)
        a.merge(b)
        assert a.count == 3
        assert a.minimum == 0.5 and a.maximum == 50.0
        assert a.total == pytest.approx(55.5)

    def test_mismatched_edges_raise_with_both_edge_sets(self):
        a = Histogram("h", buckets=(1.0, 10.0))
        b = Histogram("h", buckets=(1.0, 20.0))
        with pytest.raises(ValueError) as excinfo:
            a.merge(b)
        message = str(excinfo.value)
        assert "bucket edges differ" in message
        assert "10.0" in message and "20.0" in message

    def test_from_record_rejects_wrong_counts_length(self):
        record = {
            "name": "h", "labels": {}, "buckets": [1.0, 10.0],
            "counts": [1, 2],  # needs len(buckets) + 1 entries
            "count": 3, "total": 4.0, "min": 1.0, "max": 3.0,
        }
        with pytest.raises(ValueError, match="counts"):
            Histogram.from_record(record)


# ----------------------------------------------------------------------
# recorders
# ----------------------------------------------------------------------
class TestNullRecorder:
    def test_disabled_and_shared(self):
        assert NullRecorder.enabled is False
        assert NULL_RECORDER.enabled is False
        assert isinstance(NULL_RECORDER, NullRecorder)

    def test_all_record_calls_are_noops(self):
        null = NullRecorder()
        null.event("gcc.overuse", offset_ms=1.0)
        null.span_at("handover.execution", 1.0, 2.0)
        with null.span("outer.block") as span:
            assert span is None
        null.count("a/b")
        null.gauge("a/b", 1.0)
        null.observe("a/b", 1.0)
        null.observe_many("a/b", [1.0, 2.0])
        assert not hasattr(null, "trace")
        assert not hasattr(null, "registry")

    def test_recorder_is_a_null_recorder(self):
        # Components annotate their slot as NullRecorder; the live
        # recorder must satisfy the same interface by inheritance.
        assert isinstance(Recorder(), NullRecorder)
        assert Recorder.enabled is True


class TestObsLevel:
    def test_coerce_accepts_the_legacy_bool_spellings(self):
        assert ObsLevel.coerce(None) is ObsLevel.OFF
        assert ObsLevel.coerce(False) is ObsLevel.OFF
        assert ObsLevel.coerce(True) is ObsLevel.TRACE

    def test_coerce_accepts_strings_case_insensitively(self):
        assert ObsLevel.coerce("off") is ObsLevel.OFF
        assert ObsLevel.coerce("metrics") is ObsLevel.METRICS
        assert ObsLevel.coerce("TRACE") is ObsLevel.TRACE

    def test_coerce_passes_levels_through(self):
        for level in ObsLevel:
            assert ObsLevel.coerce(level) is level

    def test_coerce_rejects_unknown_values(self):
        with pytest.raises(ValueError):
            ObsLevel.coerce("loud")
        with pytest.raises(TypeError):
            ObsLevel.coerce(3)

    def test_recorder_tiers_carry_their_level(self):
        assert NullRecorder.level is ObsLevel.OFF
        assert MetricsRecorder.level is ObsLevel.METRICS
        assert Recorder.level is ObsLevel.TRACE


class TestMetricsRecorder:
    def test_trace_calls_are_noops_but_metrics_are_live(self):
        recorder = MetricsRecorder()
        recorder.event("gcc.overuse", offset_ms=1.0)
        recorder.span_at("handover.execution", 1.0, 2.0)
        with recorder.span("handover.execution"):
            recorder.count("handover/executed")
        recorder.gauge("gcc/target_bitrate", 5e6)
        recorder.observe("receiver/owd_ms", 42.0)
        assert recorder.trace == []
        assert recorder.registry.get("handover/executed").value == 1
        assert recorder.registry.get("gcc/target_bitrate").value == 5e6
        assert recorder.registry.get("receiver/owd_ms").count == 1


#: Bucket edges for the fold properties; drawn values hit them exactly.
FOLD_EDGES = (-1.0, 0.0, 1.0, 2.5, 1e3)
FOLD_VALUES = st.one_of(
    st.sampled_from(FOLD_EDGES + (-0.0, math.inf, -math.inf)),
    st.floats(allow_nan=False),
)


def _bits(histogram: Histogram) -> tuple:
    """Every field of a histogram, floats as hex (``-0.0`` != ``0.0``)."""
    return (
        histogram.name, histogram.labels, histogram.buckets,
        histogram.counts, histogram.count, histogram.total.hex(),
        histogram.minimum.hex(), histogram.maximum.hex(),
    )


class TestObserveMany:
    """A column fold records exactly what repeated ``observe`` does."""

    @given(
        prior=st.lists(FOLD_VALUES, min_size=1, max_size=20),
        column=st.lists(FOLD_VALUES, max_size=60),
    )
    # Signed-zero extremes: np.min/np.max keep the last tied zero.
    @example(prior=[1.0], column=[0.0, -0.0])
    @example(prior=[-1.0], column=[-0.0, 0.0])
    @settings(max_examples=300, deadline=None)
    def test_fold_equals_repeated_observe(self, prior, column):
        looped = Histogram("x/y", buckets=FOLD_EDGES)
        folded = Histogram("x/y", buckets=FOLD_EDGES)
        for histogram in (looped, folded):
            for value in prior:
                histogram.observe(value)
        for value in column:
            looped.observe(value)
        folded.observe_many(column)
        assert _bits(folded) == _bits(looped)

    @given(column=st.lists(FOLD_VALUES, max_size=30))
    @settings(max_examples=100, deadline=None)
    def test_recorder_fold_matches_name_keyed_records(self, column):
        keyed, folded = Recorder(), Recorder()
        for value in column:
            keyed.observe("receiver/owd_ms", value, path="up")
        folded.observe_many("receiver/owd_ms", column, path="up")
        # An empty column leaves no record, like no observe at all.
        assert [_bits(h) for h in folded.registry] == [
            _bits(h) for h in keyed.registry
        ]

    def test_total_is_the_sequential_sum_not_pairwise(self):
        column = [1e16] + [1.0] * 15
        running = 3.0
        for value in column:
            running += value
        # np.sum adds pairwise, so it rounds differently here.
        assert float(np.sum([3.0] + column)) != running
        histogram = Histogram("x/y")
        histogram.observe(3.0)
        histogram.observe_many(column)
        assert histogram.total == running


class TestMetricsTierCost:
    """Deterministic per-packet cost of a metrics-tier session.

    Calls are counted, not timed: wall-clock ratios of the same code
    spread too widely on shared hosts to gate a session on. The static
    urban session sends ~2.6k packets/s. Its per-packet metrics are
    folds of the run's logs at teardown, one registry lookup each; the
    per-frame, per-feedback and per-tick sites stay name-keyed by
    design and add about 100-200 lookups per simulated second whatever
    the packet rate.
    """

    CONFIG = ScenarioConfig(
        cc="static", environment="urban", duration=5.0, seed=3
    )
    PER_PACKET_NAMES = (
        "sender/packets_sent", "sender/bytes_sent", "sender/queue_delay_ms",
        "receiver/packets", "receiver/bytes", "receiver/owd_ms",
        "jitter/released",
    )

    @staticmethod
    def _tally(monkeypatch, owner, attr: str, calls: list) -> None:
        original = getattr(owner, attr)

        def counted(*args, **kwargs):
            calls.append((attr,) + args[1:2])
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, attr, counted)

    def _run(self, monkeypatch, obs: str):
        calls: list[tuple] = []
        for attr in ("counter", "gauge", "histogram"):
            self._tally(monkeypatch, MetricsRegistry, attr, calls)
        self._tally(monkeypatch, WindowedStats, "add", calls)
        result = run_session(self.CONFIG, obs=obs)
        monkeypatch.undo()
        return result, calls

    def test_registry_lookups_per_packet(self, monkeypatch):
        result, calls = self._run(monkeypatch, "metrics")
        lookups = [
            call for call in calls
            if call[0] in ("counter", "gauge", "histogram")
        ]
        assert result.packets_sent > 10_000
        assert len(lookups) / result.packets_sent <= 0.1
        # Each per-packet metric is one teardown fold: one lookup,
        # whatever the packet count.
        names = [call[1] for call in lookups]
        for name in self.PER_PACKET_NAMES:
            assert names.count(name) == 1, name
        assert "obs_overhead" not in result.extra

    def test_window_bins_fed_only_at_trace_tier(self, monkeypatch):
        _, metered = self._run(monkeypatch, "metrics")
        _, traced = self._run(monkeypatch, "trace")
        assert sum(1 for call in metered if call[0] == "add") == 0
        assert sum(1 for call in traced if call[0] == "add") > 0

    @pytest.mark.parametrize(
        ("duration", "present"),
        [
            # Nothing sent yet: no per-packet record at all.
            (0.02, set()),
            # Packets sent, none delivered or released yet.
            (0.05, {
                "sender/packets_sent", "sender/bytes_sent",
                "sender/queue_delay_ms",
            }),
        ],
    )
    def test_zero_counts_leave_no_record(self, duration, present):
        config = self.CONFIG.with_overrides(duration=duration)
        records = run_session(config, obs="metrics").extra["metrics"]
        names = {record["name"] for record in records}
        assert names & set(self.PER_PACKET_NAMES) == present


class TestRecorder:
    def test_component_of(self):
        assert component_of("gcc.overuse") == "gcc"
        assert component_of("sender/bytes_sent") == "sender"
        assert component_of("plain") == "plain"

    def test_event_defaults_to_sim_clock(self):
        clock = FakeClock(3.5)
        recorder = Recorder()
        assert recorder.now == 0.0  # unbound
        recorder.bind(clock)
        recorder.event("gcc.overuse", offset_ms=2.0)
        clock.now = 4.0
        recorder.event("gcc.rate_decrease")
        recorder.event("jitter.gap", t=1.25)
        times = [record.time for record in recorder.trace]
        assert times == [3.5, 4.0, 1.25]
        assert recorder.trace[0].labels == {"offset_ms": 2.0}

    def test_span_nesting_under_sim_clock(self):
        clock = FakeClock(10.0)
        recorder = Recorder(clock)
        with recorder.span("handover.execution", target=5):
            clock.now = 10.5
            recorder.event("gcc.overuse")
            with recorder.span("gcc.backoff"):
                clock.now = 10.8
            clock.now = 11.0
        recorder.event("jitter.gap")

        outer, event, inner, after = recorder.trace
        assert isinstance(outer, TraceSpan)
        assert (outer.t0, outer.t1, outer.depth) == (10.0, 11.0, 0)
        assert outer.duration == pytest.approx(1.0)
        assert (event.time, event.depth) == (10.5, 1)
        assert (inner.t0, inner.t1, inner.depth) == (10.5, 10.8, 1)
        assert after.depth == 0  # depth restored after exit

    def test_span_at_explicit_bounds(self):
        recorder = Recorder(FakeClock(2.0))
        recorder.span_at("handover.execution", 5.0, 5.04, target=3)
        (span,) = recorder.trace
        assert (span.t0, span.t1) == (5.0, 5.04)
        assert span.component == "handover"

    def test_metric_helpers_hit_registry(self):
        recorder = Recorder()
        recorder.count("sender/packets_sent", 3)
        recorder.gauge("gcc/target_bitrate", 7e6)
        recorder.observe("receiver/owd_ms", 42.0, buckets=(10.0, 100.0))
        assert recorder.registry.get("sender/packets_sent").value == 3
        assert recorder.registry.get("gcc/target_bitrate").value == 7e6
        assert recorder.registry.get("receiver/owd_ms").count == 1


# ----------------------------------------------------------------------
# export / timeline
# ----------------------------------------------------------------------
def _sample_recorder() -> Recorder:
    recorder = Recorder(FakeClock(0.0))
    recorder.span_at("handover.execution", 12.3, 12.332, source=3, target=5)
    recorder.event("gcc.overuse", t=12.355, offset_ms=1.84)
    recorder.event("gcc.rate_decrease", t=12.405, from_bps=8.1e6, to_bps=6.9e6)
    recorder.event("jitter.gap", t=12.5, packets=4)
    recorder.count("handover/executed")
    recorder.observe("gcc/rtt_ms", 85.0)
    return recorder


class TestJsonlRoundtrip:
    def test_roundtrip_is_lossless(self, tmp_path):
        recorder = _sample_recorder()
        path = write_jsonl(tmp_path / "run.jsonl", recorder)
        trace, registry = read_jsonl(path)
        assert trace == recorder.trace
        assert registry.snapshot() == recorder.registry.snapshot()

    def test_lines_are_json_with_type_tags(self, tmp_path):
        path = write_jsonl(tmp_path / "run.jsonl", _sample_recorder())
        types = [json.loads(line)["type"] for line in path.read_text().splitlines()]
        assert types == ["span", "event", "event", "event", "metric", "metric"]

    def test_invalid_json_reports_line_number(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"type": "event", "name": "a", "t": 1}\nnot json\n')
        with pytest.raises(ValueError, match=":2"):
            read_jsonl(path)


class TestTimeline:
    def test_merge_orders_by_sim_time_stably(self):
        a = [TraceEvent("gcc.overuse", 2.0), TraceEvent("gcc.overuse", 5.0)]
        b = [TraceSpan("handover.execution", 1.0, 3.0), TraceEvent("jitter.gap", 2.0)]
        merged = merge_traces(a, b)
        assert [record.sort_time for record in merged] == [1.0, 2.0, 2.0, 5.0]
        # stable: a's 2.0 event precedes b's 2.0 event
        assert merged[1].name == "gcc.overuse"
        assert merged[2].name == "jitter.gap"

    def test_filter_by_component(self):
        records = _sample_recorder().trace
        gcc_only = filter_records(records, components=["gcc"])
        assert {record.component for record in gcc_only} == {"gcc"}
        assert len(gcc_only) == 2

    def test_filter_window_keeps_overlapping_spans(self):
        records = _sample_recorder().trace
        window = filter_records(records, t0=12.31, t1=12.36)
        names = [record.name for record in window]
        # span overlaps the window even though it starts before t0;
        # the 12.405/12.5 events fall outside.
        assert names == ["handover.execution", "gcc.overuse"]

    def test_render_timeline_shape(self):
        text = render_timeline(merge_traces(_sample_recorder().trace))
        assert "t (s)" in text
        assert "▶ handover.execution [+0.032 s]" in text
        assert "· gcc.overuse offset_ms=1.84" in text
        assert text.index("handover.execution") < text.index("gcc.overuse")

    def test_render_empty(self):
        assert "(no records)" in render_timeline([])


class TestOpenSpans:
    """Spans whose end was never recorded (truncated trace)."""

    def test_open_span_properties(self):
        span = TraceSpan("handover.execution", 4.0)
        assert span.open
        assert span.t1 is None
        assert math.isnan(span.duration)
        closed = TraceSpan("handover.execution", 4.0, 4.5)
        assert not closed.open
        assert closed.duration == pytest.approx(0.5)

    def test_timeline_marks_open_spans(self):
        text = render_timeline([
            TraceSpan("handover.execution", 4.0, labels={"target": 2}),
            TraceEvent("gcc.overuse", 5.0),
        ])
        assert "▶ handover.execution [open]" in text
        assert "+nan" not in text

    def test_filter_window_keeps_open_span(self):
        records = [
            TraceSpan("handover.execution", 4.0),
            TraceEvent("gcc.overuse", 20.0),
        ]
        # An open span extends to the end of the trace, so it overlaps
        # any window starting after it began.
        window = filter_records(records, t0=10.0, t1=15.0)
        assert [record.name for record in window] == ["handover.execution"]

    def test_jsonl_line_missing_t1_loads_as_open_span(self, tmp_path):
        path = tmp_path / "truncated.jsonl"
        path.write_text(
            '{"type": "span", "name": "handover.execution", "t0": 4.0}\n'
        )
        trace, _ = read_jsonl(path)
        assert trace == [TraceSpan("handover.execution", 4.0)]

    def test_open_span_export_roundtrip(self, tmp_path):
        recorder = Recorder()
        recorder.trace.append(TraceSpan("loss.burst", 2.0, labels={"packets": 3}))
        path = write_jsonl(tmp_path / "open.jsonl", recorder)
        trace, _ = read_jsonl(path)
        assert trace == recorder.trace
        assert trace[0].open


# ----------------------------------------------------------------------
# end-to-end: instrumented sessions and campaigns
# ----------------------------------------------------------------------
QUICK = ScenarioConfig(cc="gcc", duration=12.0, seed=1)


def _headline(result):
    return (
        result.packets_sent,
        result.frames_decoded,
        result.packet_log,
        result.playback,
        [(e.time, e.source, e.target) for e in result.handovers],
        result.cc_log,
    )


class TestTracedSession:
    def test_traced_run_bit_identical_to_untraced(self):
        untraced = run_session(QUICK)
        recorder = Recorder()
        traced = run_session(QUICK, recorder=recorder)
        assert _headline(traced) == _headline(untraced)
        assert "metrics" not in (untraced.extra or {})
        assert traced.extra["metrics"]  # snapshot attached

    def test_traced_run_captures_expected_instruments(self):
        recorder = Recorder()
        run_session(QUICK, recorder=recorder)
        registry = recorder.registry
        assert registry.get("sender/packets_sent").value > 0
        assert registry.get("receiver/packets").value > 0
        assert registry.get("gcc/target_bitrate").updates > 0
        assert registry.get("receiver/owd_ms").count > 0
        components = {record.component for record in recorder.trace}
        assert "handover" in components
        # Timestamps are sim time: inside [0, duration].
        for record in recorder.trace:
            assert 0.0 <= record.sort_time <= QUICK.duration + 1.0


class TestCampaignMetricsMerge:
    SETTINGS = ExperimentSettings(duration=12.0, seeds=(1, 2), warmup=2.0)
    CONFIGS = [ScenarioConfig(cc="gcc", environment="urban")]

    def test_merge_across_worker_processes(self):
        with CampaignRunner(1) as serial, CampaignRunner(2) as parallel:
            run_matrix(self.CONFIGS, self.SETTINGS, runner=serial, obs=True)
            run_matrix(self.CONFIGS, self.SETTINGS, runner=parallel, obs=True)
        # Merge rules are order-independent, so serial and two-worker
        # campaigns agree exactly, whatever the completion order.
        assert serial.metrics.snapshot() == parallel.metrics.snapshot()
        assert serial.metrics.get("sender/packets_sent").value > 0

    def test_obs_off_collects_nothing(self):
        with CampaignRunner(1) as runner:
            results = run_matrix(self.CONFIGS, self.SETTINGS, runner=runner)
        assert len(runner.metrics) == 0
        for group in results.values():
            for result in group:
                assert "metrics" not in (result.extra or {})

    def test_obs_is_part_of_cache_identity(self, tmp_path):
        from repro.runner import ResultCache

        cache = ResultCache(tmp_path)
        with CampaignRunner(1, cache=cache) as runner:
            run_matrix(self.CONFIGS, self.SETTINGS, runner=runner)
            assert runner.telemetry.cache_hits == 0
            run_matrix(self.CONFIGS, self.SETTINGS, runner=runner, obs=True)
            # obs=True units must not reuse the untraced cache entries.
            assert runner.telemetry.cache_hits == 0
            assert runner.telemetry.executed == 2 * len(self.SETTINGS.seeds)


class TestRunnerPoolLifecycle:
    def test_close_is_idempotent(self):
        runner = CampaignRunner(2)
        runner.close()
        runner.close()

    def test_pool_reused_across_runs_and_recreated_after_close(self):
        from repro.experiments import run_ping_probe

        # Two seeds: single-unit campaigns run serial and never build
        # a pool.
        settings = ExperimentSettings(duration=5.0, seeds=(1, 2), warmup=1.0)
        runner = CampaignRunner(2)
        run_ping_probe(self.config(), settings, rate_hz=5.0, runner=runner)
        pool = runner._pool
        assert pool is not None
        run_ping_probe(self.config(), settings, rate_hz=2.0, runner=runner)
        assert runner._pool is pool  # persistent across run() calls
        runner.close()
        assert runner._pool is None
        # Closed runner is reusable: a new pool is created on demand.
        run_ping_probe(self.config(), settings, rate_hz=1.0, runner=runner)
        assert runner._pool is not None and runner._pool is not pool
        runner.close()

    def test_context_manager_tears_down(self):
        from repro.experiments import run_ping_probe

        settings = ExperimentSettings(duration=5.0, seeds=(1, 2), warmup=1.0)
        with CampaignRunner(2) as runner:
            run_ping_probe(self.config(), settings, rate_hz=5.0, runner=runner)
            assert runner._pool is not None
        assert runner._pool is None

    @staticmethod
    def config() -> ScenarioConfig:
        return ScenarioConfig(cc="static", environment="urban")


# ----------------------------------------------------------------------
# fleet metrics plane
# ----------------------------------------------------------------------
class FakeSample:
    """The capacity-sample fields the plane folds."""

    def __init__(self, bps: float, share: float, sinr: float) -> None:
        self.uplink_bps = bps
        self.uplink_share = share
        self.sinr_db = sinr


class FakeChannel:
    """A member channel: only its recorded sample log is read."""

    def __init__(self, samples: list[FakeSample]) -> None:
        self.samples = samples


TICKS = [
    [(12e6, 1.0, 18.0), (4e6, 0.6, 7.5)],
    [(9e6, 0.7, 12.0), (3e6, 0.5, 3.0)],
    [(15e6, 1.0, 22.0), (6e6, 0.74, 9.0)],
]


def _member_samples(ticks) -> list[list[FakeSample]]:
    """Per-member sample logs of tick-major ``(bps, share, sinr)`` rows."""
    return [
        [FakeSample(*tick[member]) for tick in ticks]
        for member in range(len(ticks[0]))
    ]


def _plane() -> FleetMetricsPlane:
    plane = FleetMetricsPlane(2)
    plane.observe_samples(_member_samples(TICKS))
    return plane


class TestFleetMetricsPlane:
    def test_rejects_empty_fleet(self):
        with pytest.raises(ValueError):
            FleetMetricsPlane(0)

    def test_snapshot_counts_and_congestion(self):
        plane = _plane()
        snapshot = plane.snapshot()
        by_key = {
            (record["name"], record["labels"]["member"]): record
            for record in snapshot
        }
        assert by_key[("fleet/ticks", 0)]["value"] == 3.0
        # Member 0 dips below 0.75 once (0.7), member 1 all three ticks.
        assert by_key[("fleet/congestion_time", 0)]["value"] == (
            pytest.approx(0.1)
        )
        assert by_key[("fleet/congestion_time", 1)]["value"] == (
            pytest.approx(0.3)
        )
        rate = by_key[("fleet/uplink_bps", 1)]
        assert rate["count"] == 3
        assert rate["min"] == 3e6 and rate["max"] == 6e6
        assert sum(rate["counts"]) == 3

    def test_share_boundary_is_strictly_below(self):
        # share == congestion_share is NOT congested (Channel uses <).
        plane = FleetMetricsPlane(1, congestion_share=0.75)
        plane.observe_samples(
            _member_samples([[(1e6, 0.75, 10.0)], [(1e6, 0.7499, 10.0)]])
        )
        (record,) = [
            r for r in plane.snapshot() if r["name"] == "fleet/congestion_time"
        ]
        assert record["value"] == pytest.approx(0.1)

    def test_replay_rejects_ragged_sample_lists(self):
        plane = FleetMetricsPlane(2)
        with pytest.raises(ValueError, match="lockstep"):
            plane.observe_samples([
                [FakeSample(1e6, 1.0, 10.0)],
                [],
            ])

    def test_rejects_a_member_count_mismatch(self):
        plane = FleetMetricsPlane(3)
        two = _member_samples([[(1e6, 1.0, 10.0), (2e6, 0.5, 4.0)]])
        with pytest.raises(ValueError, match="2 member sample lists for a 3"):
            plane.observe_samples(two)
        with pytest.raises(ValueError, match="2 member sample lists for a 3"):
            plane.observe_channels([FakeChannel(s) for s in two])
        with pytest.raises(ValueError, match="4 member sample lists for a 3"):
            plane.observe_samples(two + two)
        assert plane.snapshot() == []

    def test_channels_fold_their_recorded_samples(self):
        folded = FleetMetricsPlane(2)
        folded.observe_channels(
            [FakeChannel(samples) for samples in _member_samples(TICKS)]
        )
        assert folded.snapshot() == _plane().snapshot()

    def test_bucket_attribution_matches_histogram_observe(self):
        # Values landing exactly on an edge must fall in the same
        # bucket the scalar Histogram puts them in (bisect_left).
        plane = FleetMetricsPlane(1)
        plane.observe_samples(_member_samples([[(1e6, 0.5, 0.0)]]))
        registry = MetricsRegistry()
        plane.fold_into(registry)
        from repro.obs import RATE_BUCKETS

        scalar = Histogram("fleet/uplink_bps", buckets=RATE_BUCKETS)
        scalar.observe(1e6)
        merged = registry.get("fleet/uplink_bps", member=0)
        assert merged.counts == scalar.counts

    def test_fold_into_merges_order_independently(self):
        # Two planes (e.g. two fleets of a campaign) must merge into
        # one registry identically whatever the completion order.
        a = _plane()
        b = FleetMetricsPlane(2)
        b.observe_samples(_member_samples([[(2e6, 0.4, -2.0), (8e6, 0.9, 14.0)]]))
        ab = MetricsRegistry()
        a.fold_into(ab)
        b.fold_into(ab)
        ba = MetricsRegistry()
        b.fold_into(ba)
        a.fold_into(ba)
        assert ab.snapshot() == ba.snapshot()
        assert ab.get("fleet/ticks", member=0).value == 4.0


# ----------------------------------------------------------------------
# growing-file tolerance: read_jsonl tail + TraceFollower
# ----------------------------------------------------------------------
class TestPartialTail:
    def test_read_jsonl_skips_unterminated_tail(self, tmp_path):
        path = tmp_path / "growing.jsonl"
        path.write_text(
            '{"type": "event", "name": "gcc.overuse", "t": 1.0}\n'
            '{"type": "event", "name": "jitter.g'  # writer mid-record
        )
        trace, _ = read_jsonl(path)
        assert [record.name for record in trace] == ["gcc.overuse"]

    def test_read_jsonl_still_rejects_interior_corruption(self, tmp_path):
        path = tmp_path / "corrupt.jsonl"
        path.write_text(
            'garbage\n{"type": "event", "name": "gcc.overuse", "t": 1.0}\n'
        )
        with pytest.raises(ValueError, match=":1"):
            read_jsonl(path)


class TestTraceFollower:
    def test_missing_file_yields_nothing(self, tmp_path):
        follower = TraceFollower(tmp_path / "absent.jsonl")
        assert follower.poll() == []

    def test_incremental_polls_return_only_new_records(self, tmp_path):
        path = tmp_path / "live.jsonl"
        follower = TraceFollower(path)
        with path.open("w") as handle:
            handle.write('{"type": "event", "name": "gcc.overuse", "t": 1.0}\n')
            handle.flush()
            assert [r.name for r in follower.poll()] == ["gcc.overuse"]
            assert follower.poll() == []
            handle.write('{"type": "event", "name": "jitter.gap", "t": 2.0}\n')
            handle.flush()
            assert [r.name for r in follower.poll()] == ["jitter.gap"]

    def test_partial_line_completes_on_a_later_poll(self, tmp_path):
        path = tmp_path / "live.jsonl"
        follower = TraceFollower(path)
        line = '{"type": "event", "name": "loss.burst", "t": 3.0}\n'
        with path.open("w") as handle:
            handle.write(line[:20])
            handle.flush()
            assert follower.poll() == []
            handle.write(line[20:])
            handle.flush()
            assert [r.name for r in follower.poll()] == ["loss.burst"]

    def test_truncation_resets_the_follower(self, tmp_path):
        path = tmp_path / "live.jsonl"
        follower = TraceFollower(path)
        path.write_text(
            '{"type": "event", "name": "gcc.overuse", "t": 1.0}\n' * 3
        )
        assert len(follower.poll()) == 3
        path.write_text('{"type": "event", "name": "jitter.gap", "t": 9.0}\n')
        assert [r.name for r in follower.poll()] == ["jitter.gap"]

    def test_metric_lines_accumulate_separately(self, tmp_path):
        path = tmp_path / "live.jsonl"
        write_jsonl(path, _sample_recorder())
        follower = TraceFollower(path)
        records = follower.poll()
        assert len(records) == 4
        assert len(follower.registry_snapshot) == 2
        rebuilt = MetricsRegistry.from_snapshot(follower.registry_snapshot)
        assert rebuilt.get("handover/executed").value == 1


# ----------------------------------------------------------------------
# live campaign status plane
# ----------------------------------------------------------------------
class FakeTelemetryRecord:
    def __init__(self, worker="w0", unit="u", wall_time=2.0, cache_hit=False):
        self.worker = worker
        self.unit = unit
        self.wall_time = wall_time
        self.cache_hit = cache_hit


class FakeFleetResult:
    def __init__(self, peak, occupancy):
        self.peak_occupancy = peak
        self.occupancy = occupancy


class TestCampaignStatusWriter:
    def _writer(self, tmp_path, **kwargs):
        kwargs.setdefault("interval", 0.0)  # no throttle in tests
        return CampaignStatusWriter(str(tmp_path / "status.json"), **kwargs)

    def test_begin_writes_an_atomic_document(self, tmp_path):
        writer = self._writer(tmp_path, workers=4)
        writer.begin(10)
        status = read_status(writer.path)
        assert status["total"] == 10 and status["done"] == 0
        assert status["finished"] is False
        assert not list(tmp_path.glob("*.tmp.*"))  # temp file replaced

    def test_notes_track_progress_cache_and_workers(self, tmp_path):
        writer = self._writer(tmp_path)
        writer.begin(3)
        writer.note(FakeTelemetryRecord("w0", "a", 2.0, False), 1, 3)
        writer.note(FakeTelemetryRecord("w1", "b", 0.0, True), 2, 3)
        status = read_status(writer.path)
        assert status["done"] == 2
        assert status["cache_hits"] == 1 and status["executed"] == 1
        assert status["workers"]["w0"]["unit"] == "a"
        assert status["workers"]["w1"]["cache_hit"] is True

    def test_eta_extrapolates_from_executed_wall_time(self, tmp_path):
        writer = self._writer(tmp_path, workers=2)
        writer.begin(5)
        assert writer.eta_s is None  # no executed history yet
        writer.note(FakeTelemetryRecord(wall_time=4.0), 1, 5)
        # 4 remaining x 4 s mean / 2 workers = 8 s.
        assert writer.eta_s == pytest.approx(8.0)
        for done in (2, 3, 4, 5):
            writer.note(FakeTelemetryRecord(wall_time=4.0), done, 5)
        assert writer.eta_s == 0.0

    def test_cache_hits_do_not_skew_eta(self, tmp_path):
        writer = self._writer(tmp_path)
        writer.begin(4)
        writer.note(FakeTelemetryRecord(wall_time=6.0, cache_hit=False), 1, 4)
        writer.note(FakeTelemetryRecord(wall_time=0.01, cache_hit=True), 2, 4)
        assert writer.eta_s == pytest.approx(2 * 6.0)

    def test_note_result_harvests_cell_occupancy(self, tmp_path):
        writer = self._writer(tmp_path)
        writer.begin(1)
        writer.note_result(FakeFleetResult({3: 4, 7: 2}, {3: 1, 7: 2}))
        writer.note_result(FakeFleetResult({3: 2}, {3: 3}))
        writer.finish()
        status = read_status(writer.path)
        assert status["finished"] is True
        assert status["cells"]["3"] == {"peak": 4, "last": 3}
        assert status["cells"]["7"] == {"peak": 2, "last": 2}

    def test_results_without_occupancy_are_ignored(self, tmp_path):
        writer = self._writer(tmp_path)
        writer.begin(1)
        writer.note_result(object())  # a session result, no occupancy
        assert writer.to_dict()["cells"] == {}

    def test_throttle_suppresses_intermediate_writes(self, tmp_path):
        writer = CampaignStatusWriter(
            str(tmp_path / "status.json"), interval=3600.0
        )
        writer.begin(2)
        first = (tmp_path / "status.json").read_text()
        writer.note(FakeTelemetryRecord(), 1, 2)
        assert (tmp_path / "status.json").read_text() == first  # throttled
        writer.finish()  # force-writes
        assert read_status(writer.path)["finished"] is True


class TestReadRenderStatus:
    def test_read_missing_or_torn_returns_none(self, tmp_path):
        assert read_status(str(tmp_path / "absent.json")) is None
        bad = tmp_path / "torn.json"
        bad.write_text('{"done": 1,')
        assert read_status(str(bad)) is None

    def test_render_no_status(self):
        assert "no campaign status" in render_status(None)

    def test_render_shows_progress_workers_and_cells(self, tmp_path):
        writer = CampaignStatusWriter(
            str(tmp_path / "status.json"), interval=0.0, workers=2
        )
        writer.begin(4)
        writer.note(FakeTelemetryRecord("w0", "fleet-n4-s1", 3.0), 1, 4)
        writer.note(FakeTelemetryRecord("w1", "fleet-n4-s2", 0.0, True), 2, 4)
        writer.note_result(FakeFleetResult({5: 3}, {5: 2}))
        text = render_status(read_status(writer.path))
        assert "2/4 units" in text
        assert "1 cached" in text and "1 executed" in text
        assert "fleet-n4-s1" in text and "[cache]" in text
        assert "cell 5: 2 UEs (peak 3)" in text

    def test_render_finished_campaign_says_done(self, tmp_path):
        writer = CampaignStatusWriter(str(tmp_path / "s.json"), interval=0.0)
        writer.begin(1)
        writer.note(FakeTelemetryRecord(), 1, 1)
        writer.finish()
        assert "done" in render_status(read_status(writer.path))
