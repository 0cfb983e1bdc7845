"""Sim-time trace recorder (spans + point events) and its null twin.

Every record is stamped with the **event-loop clock**, never the wall
clock, so two runs of the same seed produce byte-identical traces and
traces from different seeds are meaningfully diffable.

Instrumented components hold a recorder reference that defaults to
the module-level :data:`NULL_RECORDER`; hot paths guard their
recording with ``if obs.enabled:`` so an untraced run pays exactly
one attribute check per site and allocates nothing. Per-packet and
per-tick metrics are not recorded live at all: the owning component
folds them from the run's own logs at teardown
(:meth:`Recorder.observe_many`, :meth:`Recorder.count`).

Naming convention: record names are ``component.what`` (for example
``handover.execution``, ``gcc.overuse``); the part before the first
dot is the *component*, which the ``repro trace`` CLI filters on.
Metric names use ``component/name`` (see :mod:`repro.obs.metrics`).
"""

from __future__ import annotations

import enum
import math
import time
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Iterator, Sequence

from repro.obs.metrics import DEFAULT_BUCKETS, MetricsRegistry


class ObsLevel(enum.Enum):
    """How much observability a run pays for.

    * ``OFF`` — the :data:`NULL_RECORDER` default: one ``obs.enabled``
      attribute check per instrumented site, nothing recorded.
    * ``METRICS`` — counters/gauges/histograms only (snapshotable and
      mergeable across workers); trace emission is a no-op. The
      per-packet and per-tick metrics are folded at teardown from
      logs the run keeps anyway (a session's packet log and sender
      stats; each fleet member's capacity samples, through
      :class:`~repro.obs.metrics.FleetMetricsPlane`), so the loop pays
      only the per-frame, per-feedback and per-tick records.
      Metrics-level sessions stay batchable in the campaign planner.
    * ``TRACE`` — the full sim-time trace plus metrics. Trace-level
      units are excluded from struct-of-arrays batches (the trace is
      part of the payload); fleet members sampled via
      ``FleetConfig.trace_members`` trace on the same planned tick as
      the rest of their fleet.
    """

    OFF = "off"
    METRICS = "metrics"
    TRACE = "trace"

    @classmethod
    def coerce(cls, value: "ObsLevel | str | bool | None") -> "ObsLevel":
        """Normalize the accepted spellings of an obs level.

        ``None``/``False`` mean :attr:`OFF` and ``True`` means
        :attr:`TRACE` (the legacy ``obs=True`` switch instrumented a
        full recorder), so every pre-``ObsLevel`` call site keeps its
        meaning. Strings match enum values case-insensitively.
        """
        if value is None or value is False:
            return cls.OFF
        if value is True:
            return cls.TRACE
        if isinstance(value, cls):
            return value
        if isinstance(value, str):
            try:
                return cls(value.lower())
            except ValueError:
                raise ValueError(
                    f"unknown obs level {value!r}; expected one of "
                    f"{', '.join(level.value for level in cls)}"
                ) from None
        raise TypeError(f"cannot interpret {value!r} as an ObsLevel")


def component_of(name: str) -> str:
    """Component prefix of a record name (``gcc.overuse`` -> ``gcc``)."""
    return name.split(".", 1)[0].split("/", 1)[0]


@dataclass
class TraceEvent:
    """A point-in-sim-time occurrence."""

    name: str
    time: float
    labels: dict[str, Any] = field(default_factory=dict)
    depth: int = 0

    @property
    def component(self) -> str:
        """Component prefix of the record name."""
        return component_of(self.name)

    @property
    def sort_time(self) -> float:
        """Timeline position (events sort at their instant)."""
        return self.time


@dataclass
class TraceSpan:
    """An interval of sim time (``t0`` .. ``t1``).

    ``t1`` may be ``None`` for a span whose end was never recorded —
    e.g. a truncated JSONL export or an episode cut off by session
    teardown. Open spans render with an explicit marker and are
    treated as extending to the end of the trace by filters.
    """

    name: str
    t0: float
    t1: float | None = None
    labels: dict[str, Any] = field(default_factory=dict)
    depth: int = 0

    @property
    def open(self) -> bool:
        """Whether the span is missing its end event."""
        return self.t1 is None

    @property
    def duration(self) -> float:
        """Span length in simulated seconds (NaN while open)."""
        return math.nan if self.t1 is None else self.t1 - self.t0

    @property
    def component(self) -> str:
        """Component prefix of the record name."""
        return component_of(self.name)

    @property
    def sort_time(self) -> float:
        """Timeline position (spans sort at their start)."""
        return self.t0


TraceRecord = TraceEvent | TraceSpan


class NullRecorder:
    """Do-nothing recorder: the default wired into every component.

    ``enabled`` is a class attribute, so the hot-path guard
    ``if obs.enabled:`` compiles down to one attribute load; the
    methods exist only for call sites that are not worth guarding.
    """

    enabled = False
    #: Observability tier this recorder implements (class attribute,
    #: like ``enabled``, so dispatch stays one attribute load).
    level = ObsLevel.OFF
    #: Wall seconds spent recording (always 0.0 for the null twin).
    overhead_s = 0.0

    def event(self, name: str, t: float | None = None, **labels: Any) -> None:
        """Ignore a point event."""

    def span_at(
        self, name: str, t0: float, t1: float, **labels: Any
    ) -> None:
        """Ignore a completed span."""

    @contextmanager
    def span(self, name: str, **labels: Any) -> Iterator[None]:
        """No-op span context."""
        yield

    def count(self, name: str, amount: float = 1.0, **labels: Any) -> None:
        """Ignore a counter increment."""

    def gauge(self, name: str, value: float, **labels: Any) -> None:
        """Ignore a gauge write."""

    def observe(
        self,
        name: str,
        value: float,
        buckets: tuple[float, ...] = DEFAULT_BUCKETS,
        **labels: Any,
    ) -> None:
        """Ignore a histogram observation."""

    def observe_many(
        self,
        name: str,
        values: Sequence[float],
        buckets: tuple[float, ...] = DEFAULT_BUCKETS,
        **labels: Any,
    ) -> None:
        """Ignore a column of histogram observations."""


#: Shared null recorder instance; components default to this.
NULL_RECORDER = NullRecorder()


class Recorder(NullRecorder):
    """Collecting recorder: metrics registry + sim-time trace.

    Bind it to the event loop that owns the run (:meth:`bind`) before
    the simulation starts; records default their timestamps to
    ``clock.now``. Explicit ``t=``/``t0=``/``t1=`` arguments bypass
    the clock, which keeps scheduled-duration spans (e.g. a handover
    whose execution time is drawn up front) expressible without
    callbacks.

    With ``warn_unregistered=True`` (a debug mode — one set lookup per
    record, so off by default) every emitted name is checked against
    the generated :mod:`repro.obs.schema` registry, and the first use
    of each unregistered name raises a :class:`UserWarning`. This is
    the runtime twin of the RPL008 static check: the linter catches
    names in code it can see, the warning catches names built
    dynamically at run time.

    With ``measure_overhead=True`` every recording method times itself
    (two clock reads per record) and accumulates into
    :attr:`overhead_s` — the raw material of the ``obs.overhead``
    self-metric that ``run_session``/``run_fleet`` surface in
    ``result.extra["obs_overhead"]``. Off by default: the recorded
    values never feed back into the simulation either way.
    """

    enabled = True
    level = ObsLevel.TRACE

    def __init__(
        self,
        clock: Any | None = None,
        *,
        warn_unregistered: bool = False,
        measure_overhead: bool = False,
    ) -> None:
        self.registry = MetricsRegistry()
        self.trace: list[TraceRecord] = []
        self._clock = clock
        self._depth = 0
        self.overhead_s = 0.0
        # Wall-clock self-accounting only: the measured time never
        # reaches sim state or record timestamps.
        self._timer = time.perf_counter if measure_overhead else None  # repro-lint: ignore[RPL001]  # overhead self-metric
        self._known_names: frozenset[str] | None = None
        self._warned_names: set[str] = set()
        if warn_unregistered:
            try:
                from repro.obs.schema import ALL_NAMES
            except ImportError:
                warnings.warn(
                    "repro.obs.schema missing; regenerate it with "
                    "'python -m repro.lint --write-trace-schema' to "
                    "enable unregistered-name warnings",
                    stacklevel=2,
                )
            else:
                self._known_names = ALL_NAMES

    def _check_name(self, name: str) -> None:
        if (
            self._known_names is not None
            and name not in self._known_names
            and name not in self._warned_names
        ):
            self._warned_names.add(name)
            warnings.warn(
                f"trace/metric name {name!r} is not in the generated "
                "schema registry; regenerate it with "
                "'python -m repro.lint --write-trace-schema'",
                stacklevel=3,
            )

    def bind(self, clock: Any) -> None:
        """Attach the sim clock (any object exposing ``.now``)."""
        self._clock = clock

    @property
    def now(self) -> float:
        """Current sim time (0.0 before :meth:`bind`)."""
        return self._clock.now if self._clock is not None else 0.0

    # ------------------------------------------------------------------
    # tracing
    # ------------------------------------------------------------------
    def event(self, name: str, t: float | None = None, **labels: Any) -> None:
        """Record a point event at ``t`` (default: the sim clock)."""
        timer = self._timer
        start = timer() if timer is not None else 0.0
        if self._known_names is not None:
            self._check_name(name)
        self.trace.append(
            TraceEvent(
                name=name,
                time=self.now if t is None else t,
                labels=labels,
                depth=self._depth,
            )
        )
        if timer is not None:
            self.overhead_s += timer() - start

    def span_at(self, name: str, t0: float, t1: float, **labels: Any) -> None:
        """Record a completed span with explicit bounds."""
        timer = self._timer
        start = timer() if timer is not None else 0.0
        if self._known_names is not None:
            self._check_name(name)
        self.trace.append(
            TraceSpan(name=name, t0=t0, t1=t1, labels=labels, depth=self._depth)
        )
        if timer is not None:
            self.overhead_s += timer() - start

    @contextmanager
    def span(self, name: str, **labels: Any) -> Iterator[TraceSpan]:
        """Open a span now; close it when the block exits.

        Spans nest: records emitted inside the block (including inner
        spans) carry ``depth + 1`` relative to this span. The span is
        appended on entry so the trace preserves opening order; its
        ``t1`` is patched on exit.
        """
        if self._known_names is not None:
            self._check_name(name)
        span = TraceSpan(
            name=name, t0=self.now, t1=self.now, labels=labels,
            depth=self._depth,
        )
        self.trace.append(span)
        self._depth += 1
        try:
            yield span
        finally:
            self._depth -= 1
            span.t1 = self.now

    # ------------------------------------------------------------------
    # metrics
    # ------------------------------------------------------------------
    def count(self, name: str, amount: float = 1.0, **labels: Any) -> None:
        """Increment the counter ``name{labels}``."""
        timer = self._timer
        start = timer() if timer is not None else 0.0
        if self._known_names is not None:
            self._check_name(name)
        self.registry.counter(name, **labels).inc(amount)
        if timer is not None:
            self.overhead_s += timer() - start

    def gauge(self, name: str, value: float, **labels: Any) -> None:
        """Set the gauge ``name{labels}``."""
        timer = self._timer
        start = timer() if timer is not None else 0.0
        if self._known_names is not None:
            self._check_name(name)
        self.registry.gauge(name, **labels).set(value)
        if timer is not None:
            self.overhead_s += timer() - start

    def observe(
        self,
        name: str,
        value: float,
        buckets: tuple[float, ...] = DEFAULT_BUCKETS,
        **labels: Any,
    ) -> None:
        """Observe ``value`` in the histogram ``name{labels}``."""
        timer = self._timer
        start = timer() if timer is not None else 0.0
        if self._known_names is not None:
            self._check_name(name)
        self.registry.histogram(name, buckets=buckets, **labels).observe(value)
        if timer is not None:
            self.overhead_s += timer() - start

    def observe_many(
        self,
        name: str,
        values: Sequence[float],
        buckets: tuple[float, ...] = DEFAULT_BUCKETS,
        **labels: Any,
    ) -> None:
        """Observe every value of the column ``values`` in ``name{labels}``.

        Records bit for bit what ``for v in values: self.observe(name,
        v, ...)`` would (:meth:`Histogram.observe_many`), so an empty
        column creates no record. The whole fold is one timed record.
        """
        timer = self._timer
        start = timer() if timer is not None else 0.0
        if self._known_names is not None:
            self._check_name(name)
        if len(values):
            self.registry.histogram(
                name, buckets=buckets, **labels
            ).observe_many(values)
        if timer is not None:
            self.overhead_s += timer() - start


class MetricsRecorder(Recorder):
    """Metrics-only recorder: the :data:`ObsLevel.METRICS` tier.

    Counters, gauges and histograms record exactly as on
    :class:`Recorder`; trace emission (events and spans) is a no-op,
    so there is no trace list to pickle, no diagnosis pass at collect
    time, and — because the trace is not part of the payload — a
    metrics-level session stays batchable in the campaign planner
    (:func:`repro.runner.batch.batch_key`). ``trace`` stays an empty
    list so every ``isinstance(obs, Recorder)`` consumer keeps
    working.
    """

    level = ObsLevel.METRICS

    def event(self, name: str, t: float | None = None, **labels: Any) -> None:
        """Ignore a point event (metrics tier records no trace)."""

    def span_at(self, name: str, t0: float, t1: float, **labels: Any) -> None:
        """Ignore a completed span (metrics tier records no trace)."""

    @contextmanager
    def span(self, name: str, **labels: Any) -> Iterator[None]:
        """No-op span context (metrics tier records no trace)."""
        yield
