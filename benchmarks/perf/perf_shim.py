"""Outside-in layer tracer for the perf benchmark.

:class:`LayerTracer` is a context manager that wraps the simulator's
public entry points — methods at class level, functions at module
level — and restores every patched attribute on exit, exception or
not. Nothing under ``src/`` is edited: the benchmark times calls *into*
each layer from outside.

Two kinds of wrapper feed one timing stack:

* **entry points** (:data:`ENTRY_POINTS`): a direct call into a layer's
  public function, e.g. ``NetworkPath.send`` or ``ResultCache.get``;
* **event callbacks**: ``EventLoop.call_at``/``schedule_at`` wrap every
  scheduled callback and charge it to the layer of the module that
  owns it (:data:`MODULE_LAYERS`). A :class:`PeriodicTimer` tick is
  charged to the owner of the timer's callback, not to the timer.

Each frame on the stack records its start and the time its wrapped
children took, so a layer's *self time* is its duration minus its
children. Time outside every listed layer — callbacks from modules
with no layer, campaign work no layer claims, and the iteration
outside ``CampaignRunner.run`` — is ``unattributed``. Wrapping costs time on every call (about 1.7x on the
per-packet session workload), so compare layer numbers only between
traced runs.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from typing import Any, Callable

#: The layers the trace reports, named after the repo's modules.
LAYERS = (
    "net.simulator",
    "net.links",
    "net.path",
    "cellular.tick",
    "cellular.handover",
    "cellular.cell",
    "cellular.propagation",
    "rtp.packetizer",
    "rtp.jitter_buffer",
    "rtp.feedback",
    "cc.gcc",
    "cc.scream",
    "core.sender",
    "core.receiver",
    "video",
    "obs.metrics",
    "runner.cache",
    "runner.engine",
)

UNATTRIBUTED = "unattributed"

#: Module prefix -> layer of the event callbacks it owns; first match
#: wins, so specific modules precede their packages.
MODULE_LAYERS = (
    ("repro.net.simulator", "net.simulator"),
    ("repro.net.links", "net.links"),
    ("repro.net.loss", "net.links"),
    ("repro.net.path", "net.path"),
    ("repro.cellular.channel", "cellular.tick"),
    ("repro.cellular.batch", "cellular.tick"),
    ("repro.cellular.handover", "cellular.handover"),
    ("repro.cellular.cell", "cellular.cell"),
    ("repro.cellular.propagation", "cellular.propagation"),
    ("repro.rtp.packetizer", "rtp.packetizer"),
    ("repro.rtp.jitter_buffer", "rtp.jitter_buffer"),
    ("repro.rtp", "rtp.feedback"),
    ("repro.cc.gcc", "cc.gcc"),
    ("repro.cc.scream", "cc.scream"),
    ("repro.core.sender", "core.sender"),
    ("repro.core.receiver", "core.receiver"),
    ("repro.video", "video"),
    ("repro.obs", "obs.metrics"),
    ("repro.runner.cache", "runner.cache"),
    ("repro.runner", "runner.engine"),
)

#: ``(module, attribute path, layer)`` of every wrapped public entry
#: point. ``CampaignRunner.run`` is the outermost frame of an
#: iteration but is charged to ``unattributed``: time inside the
#: campaign that no listed layer claims (building and collecting each
#: simulation, for one) stays visible as unattributed rather than
#: inflating ``runner.engine``, which times only the engine's own work.
ENTRY_POINTS = (
    ("repro.net.simulator", "EventLoop.run_until", "net.simulator"),
    ("repro.net.simulator", "EventLoop.run", "net.simulator"),
    ("repro.net.links", "CapacityLink.send", "net.links"),
    ("repro.net.links", "DelayLine.send", "net.links"),
    ("repro.net.path", "NetworkPath.send", "net.path"),
    ("repro.cellular.batch", "build_tick_plans", "cellular.tick"),
    ("repro.cellular.batch", "run_lockstep", "cellular.tick"),
    ("repro.cellular.batch", "install_fleet_plans", "cellular.tick"),
    ("repro.cellular.batch", "FleetTickState.advance", "cellular.tick"),
    ("repro.cellular.handover", "HandoverEngine.measure", "cellular.handover"),
    (
        "repro.cellular.handover",
        "HandoverEngine.measure_prefiltered",
        "cellular.handover",
    ),
    ("repro.cellular.cell", "CellContention.attach", "cellular.cell"),
    ("repro.cellular.cell", "CellContention.update_rates", "cellular.cell"),
    ("repro.cellular.cell", "CellContention.shares", "cellular.cell"),
    ("repro.cellular.cell", "CellContention.offsets", "cellular.cell"),
    ("repro.cellular.cell", "CellContention.blocked_cells", "cellular.cell"),
    ("repro.cellular.cell", "allocate_prbs_array", "cellular.cell"),
    ("repro.cellular.propagation", "ShadowingProcess.sample", "cellular.propagation"),
    ("repro.cellular.propagation", "path_loss_db_array", "cellular.propagation"),
    ("repro.cellular.propagation", "antenna_gain_db_array", "cellular.propagation"),
    ("repro.cellular.propagation", "rsrp_dbm", "cellular.propagation"),
    ("repro.rtp.packetizer", "Packetizer.packetize", "rtp.packetizer"),
    ("repro.rtp.packetizer", "FrameAssembler.push", "rtp.packetizer"),
    ("repro.rtp.jitter_buffer", "JitterBuffer.push", "rtp.jitter_buffer"),
    ("repro.rtp.twcc", "TwccRecorder.on_packet", "rtp.feedback"),
    ("repro.rtp.twcc", "TwccRecorder.build_feedback", "rtp.feedback"),
    ("repro.rtp.ccfb", "CcfbRecorder.on_packet", "rtp.feedback"),
    ("repro.rtp.ccfb", "CcfbRecorder.build_report", "rtp.feedback"),
    ("repro.rtp.rtcp", "RtcpAccountant.on_packet", "rtp.feedback"),
    ("repro.rtp.rtcp", "RtcpAccountant.build_block", "rtp.feedback"),
    ("repro.cc.gcc.controller", "GccController.on_feedback", "cc.gcc"),
    ("repro.cc.gcc.controller", "GccController.on_packet_sent", "cc.gcc"),
    ("repro.cc.scream.controller", "ScreamController.on_feedback", "cc.scream"),
    ("repro.cc.scream.controller", "ScreamController.on_packet_sent", "cc.scream"),
    ("repro.cc.scream.controller", "ScreamController.on_queue_state", "cc.scream"),
    ("repro.core.sender", "VideoSender.on_receiver_report", "core.sender"),
    ("repro.core.receiver", "VideoReceiver.on_datagram", "core.receiver"),
    ("repro.core.receiver", "VideoReceiver.on_feedback_delivered", "core.receiver"),
    ("repro.video.encoder", "EncoderModel.encode", "video"),
    ("repro.video.source", "SourceVideo.next_frame", "video"),
    ("repro.video.decoder", "DecoderModel.decode", "video"),
    ("repro.video.player", "Player.push", "video"),
    ("repro.obs.recorder", "Recorder.count", "obs.metrics"),
    ("repro.obs.recorder", "Recorder.gauge", "obs.metrics"),
    ("repro.obs.recorder", "Recorder.observe", "obs.metrics"),
    ("repro.obs.recorder", "MetricsRecorder.event", "obs.metrics"),
    ("repro.obs.recorder", "MetricsRecorder.span_at", "obs.metrics"),
    ("repro.obs.detect", "WindowedStats.add", "obs.metrics"),
    ("repro.obs.detect", "EwmaZScore.update", "obs.metrics"),
    ("repro.obs.metrics", "FleetMetricsPlane.observe_channels", "obs.metrics"),
    ("repro.obs.metrics", "FleetMetricsPlane.observe_samples", "obs.metrics"),
    ("repro.runner.cache", "ResultCache.get", "runner.cache"),
    ("repro.runner.cache", "ResultCache.put", "runner.cache"),
    ("repro.runner.batch", "plan_batches", "runner.engine"),
    ("repro.runner.batch", "session_stream_specs", "runner.engine"),
    ("repro.runner.engine", "CampaignRunner.run", UNATTRIBUTED),
)

#: Entry points whose calls feed the trace's ratios.
HINTED_CALL = "HandoverEngine.measure_prefiltered"
ALLOC_CALL = "allocate_prbs_array"
SHARES_CALL = "CellContention.shares"
CACHE_GET_CALL = "ResultCache.get"
#: ``entry_calls`` key counting dispatched event-loop callbacks.
EVENT_CALLS = "EventLoop.<callback>"


def layer_of_module(module: str | None) -> str:
    """Layer that owns callbacks defined in ``module``."""
    if module:
        for prefix, layer in MODULE_LAYERS:
            if module == prefix or module.startswith(prefix + "."):
                return layer
    return UNATTRIBUTED


class LayerTracer:
    """Self time and call counts per layer while the context is open.

    Counters accumulate across repeated ``with`` blocks, so one tracer
    can sum several traced iterations. Entry points that no longer
    exist are skipped and listed in :attr:`missing`, so a renamed
    function shows up as a gap in the trace rather than a crash.
    """

    def __init__(
        self, entry_points: tuple[tuple[str, str, str], ...] = ENTRY_POINTS
    ) -> None:
        self.entry_points = entry_points
        self.clock = time.perf_counter  # repro-lint: ignore[RPL001]
        self.self_s: dict[str, float] = {
            layer: 0.0 for layer in LAYERS + (UNATTRIBUTED,)
        }
        self.calls: dict[str, int] = {layer: 0 for layer in self.self_s}
        #: Calls per entry point, keyed by its attribute path.
        self.entry_calls: dict[str, int] = {}
        self.hinted = 0
        self.cache_hits = 0
        self.missing: list[str] = []
        self._stack: list[list[float]] = []
        self._patches: list[tuple[Any, str, Any]] = []
        self._owner_cache: dict[Any, str] = {}

    # -- timing ----------------------------------------------------------

    def _timed(self, layer: str, key: str, fn: Callable, observe=None):
        """``fn`` wrapped in a frame that charges its self time to ``layer``."""
        stack = self._stack
        clock = self.clock
        self_s = self.self_s
        calls = self.calls
        entry_calls = self.entry_calls
        self_s.setdefault(layer, 0.0)
        calls.setdefault(layer, 0)
        entry_calls.setdefault(key, 0)

        def wrapper(*args, **kwargs):
            frame = [clock(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                elapsed = clock() - frame[0]
                self_s[layer] += elapsed - frame[1]
                calls[layer] += 1
                entry_calls[key] += 1
                if stack:
                    stack[-1][1] += elapsed
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return wrapper

    def _callback_layer(self, callback: Callable) -> str:
        timer_tick = self._timer_tick
        while getattr(callback, "__func__", None) is timer_tick:
            callback = callback.__self__._callback
        func = getattr(callback, "__func__", callback)
        func = getattr(func, "func", func)  # functools.partial
        func = getattr(func, "__wrapped__", func)  # a patched entry point
        # Closures are fresh objects per call; their code object is not.
        key = getattr(func, "__code__", func)
        layer = self._owner_cache.get(key)
        if layer is None:
            layer = layer_of_module(getattr(func, "__module__", None))
            self._owner_cache[key] = layer
        return layer

    def _wrap_callback(self, callback: Callable) -> Callable[[], None]:
        return self._timed(self._callback_layer(callback), EVENT_CALLS, callback)

    @property
    def events(self) -> int:
        """Event-loop callbacks dispatched."""
        return self.entry_calls.get(EVENT_CALLS, 0)

    # -- counters fed by observed entry points ---------------------------

    def _count_hint(self, args, kwargs, result) -> None:
        if kwargs.get("hint") is not None:
            self.hinted += 1

    def _count_cache_hit(self, args, kwargs, result) -> None:
        if result is not self._miss:
            self.cache_hits += 1

    # -- patching --------------------------------------------------------

    def _set(self, owner: Any, name: str, value: Any) -> None:
        self._patches.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def __enter__(self) -> "LayerTracer":
        from repro.net.simulator import EventLoop, PeriodicTimer
        from repro.runner.cache import MISS

        self._timer_tick = PeriodicTimer._tick
        self._miss = MISS
        observers = {
            HINTED_CALL: self._count_hint,
            CACHE_GET_CALL: self._count_cache_hit,
        }
        try:
            functions: dict[int, tuple[Any, Callable]] = {}
            for module_name, path, layer in self.entry_points:
                module = importlib.import_module(module_name)
                owner_name, _, attr = path.rpartition(".")
                owner = getattr(module, owner_name, None) if owner_name else module
                original = vars(owner).get(attr) if owner is not None else None
                if not callable(original):
                    self.missing.append(f"{module_name}:{path}")
                    continue
                wrapper = functools.wraps(original)(
                    self._timed(layer, path, original, observers.get(path))
                )
                if owner_name:
                    self._set(owner, attr, wrapper)
                else:
                    functions[id(original)] = (original, wrapper)
            self._patch_imported(functions)
            self._patch_scheduling(EventLoop)
        except BaseException:
            self._restore()
            raise
        return self

    def _patch_imported(self, functions: dict[int, tuple[Any, Callable]]) -> None:
        """Replace each module function wherever it was imported by name."""
        if not functions:
            return
        for module in list(sys.modules.values()):
            namespace = getattr(module, "__dict__", None)
            if namespace is None:
                continue
            for attr, value in list(namespace.items()):
                hit = functions.get(id(value))
                if hit is not None and hit[0] is value:
                    self._set(module, attr, hit[1])

    def _patch_scheduling(self, loop_class: type) -> None:
        wrap = self._wrap_callback
        call_at = loop_class.__dict__["call_at"]
        schedule_at = loop_class.__dict__["schedule_at"]

        def traced_call_at(loop, when, callback):
            return call_at(loop, when, wrap(callback))

        def traced_schedule_at(loop, when, callback):
            schedule_at(loop, when, wrap(callback))

        self._set(loop_class, "call_at", functools.wraps(call_at)(traced_call_at))
        self._set(
            loop_class, "schedule_at", functools.wraps(schedule_at)(traced_schedule_at)
        )

    def _restore(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def __exit__(self, *exc_info: Any) -> None:
        self._restore()
        del self._stack[:]

    # -- results ---------------------------------------------------------

    def attributed_s(self) -> float:
        """Self seconds charged to the listed layers."""
        return sum(self.self_s[layer] for layer in LAYERS)
