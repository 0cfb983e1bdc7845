"""Session assembly: build a full measurement run and execute it.

``run_session(config)`` is the library's main entry point. It wires

  trajectory -> cellular channel -> uplink/downlink paths
  source -> encoder -> packetizer -> pacer -> uplink
  uplink -> jitter buffer -> assembler -> decoder -> player
  receiver feedback -> downlink -> congestion controller

runs the event loop for the configured duration, and returns a
:class:`SessionResult` holding every log the paper's dataset contains
(per-packet transport log, per-frame playback records, CC state log,
RRC handover events, 1 Hz RSSI reports, capacity samples).

The assembly step is exposed separately as :func:`build_session`,
which returns live :class:`SessionHandles` without running the loop —
that is what lets :mod:`repro.core.fleet` host several sessions on
one shared event loop (shared cell layout, shared PRB scheduler)
while ``run_session`` stays the classic single-UE path, and what
:mod:`repro.control` adds its C2 flows to.

This module alone maps a :class:`ScenarioConfig` to components:
:func:`build_channel`, :func:`build_sender` and :func:`build_receiver`
are the pieces ``build_session`` is made of, and the multipath
session, the probes and the ramp-up figure take them for the parts
they share with a session.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, is_dataclass
from operator import attrgetter
from typing import Any

from repro.cc.base import CongestionController, StaticBitrateController
from repro.cc.gcc import GccController
from repro.cc.scream import ScreamController
from repro.cellular.cell import CellContention, fleet_demand_bps
from repro.cellular.channel import CapacitySample, CellularChannel, ChannelConfig, RssiReport
from repro.cellular.handover import HandoverEvent
from repro.cellular.layout import CellLayout
from repro.cellular.operators import get_profile
from repro.cellular.propagation import PropagationConfig
from repro.core.config import CcAlgorithm, Environment, Platform, ScenarioConfig
from repro.core.packet_log import (
    PacketLog,
    as_packet_log,
    check_fields,
    decode_column,
    decode_packet_log,
    encode_column,
    field_names,
)
from repro.core.receiver import VideoReceiver
from repro.core.sender import SenderStats, VideoSender
from repro.flight.trajectory import (
    WaypointTrajectory,
    ground_trajectory,
    paper_flight_trajectory,
)
from repro.net.loss import GilbertElliottLoss
from repro.net.packet import reset_datagram_ids
from repro.net.path import NetworkPath
from repro.net.simulator import EventLoop
from repro.obs import (
    NULL_RECORDER,
    MetricsRecorder,
    NullRecorder,
    ObsLevel,
    Recorder,
    diagnose,
)
from repro.util.rng import BatchedNormal, RngStreams
from repro.video.encoder import EncoderModel
from repro.video.player import PlaybackRecord
from repro.video.source import SourceVideo


@dataclass
class SessionResult:
    """All artifacts of one simulated measurement run.

    ``packet_log`` is a column table (:class:`PacketLog`); a list of
    :class:`PacketLogEntry` records passed in is coerced to one.

    Pickles column-wise (:meth:`__reduce__`): the packet log and each
    other record log are stored as one typed buffer per record field.
    On load the packet log keeps its buffers, and every record of the
    other logs is rebuilt with the exact field types it was stored
    with.
    """

    config: ScenarioConfig
    duration: float
    packet_log: PacketLog
    playback: list[PlaybackRecord]
    handovers: list[HandoverEvent]
    capacity_samples: list[CapacitySample]
    rssi_log: list[RssiReport]
    sender_stats: SenderStats
    cc_log: list = field(default_factory=list)
    cells_seen: int = 0
    packets_sent: int = 0
    packets_lost_radio: int = 0
    packets_dropped_buffer: int = 0
    frames_decoded: int = 0
    extra: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.packet_log = as_packet_log(self.packet_log)

    @property
    def packet_loss_rate(self) -> float:
        """End-to-end fraction of sent packets that never arrived."""
        if self.packets_sent == 0:
            return 0.0
        delivered = len(self.packet_log)
        return max(0.0, 1.0 - delivered / self.packets_sent)

    def __reduce__(self) -> tuple:
        # Result-cache entries and pool hand-backs both pickle through
        # here. A 30 s session logs ~25k packets, and a pickled object
        # per record costs ~3.6 us to load; a column costs one buffer.
        names = field_names(type(self))
        logs = {}
        packet_log = as_packet_log(self.packet_log)
        if packet_log:
            logs["packet_log"] = packet_log.encode()
        for name in _RECORD_LOGS:
            encoded = _encode_log(getattr(self, name))
            if encoded is not None:
                logs[name] = encoded
        # An empty packet log pickles as the empty list it was before
        # it became a column table, so its bytes stay what they were.
        state = {**vars(self), "packet_log": []}
        values = tuple(None if name in logs else state[name] for name in names)
        return _rebuild_session_result, (type(self), names, values, logs)


#: The :class:`SessionResult` fields besides ``packet_log`` that hold
#: one record per entry.
_RECORD_LOGS = (
    "playback",
    "handovers",
    "capacity_samples",
    "rssi_log",
    "cc_log",
)


def _encode_log(records: Any) -> tuple | None:
    """``(cls, field names, columns)`` for a list of one plain dataclass.

    ``None`` (pickle the log as it is) for anything else: an empty or
    mixed-type log, or a class that positional ``__init__`` would not
    rebuild exactly (an ``init=False`` field, a ``__post_init__``).
    """
    if type(records) is not list:
        return None
    kinds = set(map(type, records))
    if len(kinds) != 1:  # empty, or mixed record types
        return None
    (cls,) = kinds
    if (
        not is_dataclass(cls)
        or hasattr(cls, "__post_init__")
        or not all(f.init for f in fields(cls))
    ):
        return None
    names = field_names(cls)
    columns = tuple(
        encode_column(list(map(attrgetter(name), records))) for name in names
    )
    return cls, names, columns


def _rebuild_session_result(
    cls: type, names: tuple[str, ...], values: tuple, logs: dict
) -> SessionResult:
    """Unpickle :meth:`SessionResult.__reduce__`'s form.

    The packet log keeps its encoded columns; the other logs' records
    are rebuilt eagerly. Raises ``ValueError`` when the recorded field
    names of the result or of a record class differ from the current
    class, so a stale cache entry is evicted instead of loading with
    fields permuted.
    """
    check_fields(cls, names)
    kwargs = dict(zip(names, values))
    for name, (record_cls, record_names, columns) in logs.items():
        if name == "packet_log":
            kwargs[name] = decode_packet_log(record_cls, record_names, columns)
            continue
        check_fields(record_cls, record_names)
        kwargs[name] = list(map(record_cls, *map(decode_column, columns)))
    return cls(**kwargs)


def build_controller(config: ScenarioConfig) -> CongestionController:
    """Instantiate the bitrate controller the config asks for."""
    if config.cc is CcAlgorithm.STATIC:
        return StaticBitrateController(config.effective_static_bitrate)
    if config.cc is CcAlgorithm.GCC:
        return GccController(
            initial_bitrate=config.min_bitrate,
            min_bitrate=config.min_bitrate,
            max_bitrate=config.max_bitrate,
        )
    if config.cc is CcAlgorithm.SCREAM:
        return ScreamController(
            initial_bitrate=config.min_bitrate,
            min_bitrate=config.min_bitrate,
            max_bitrate=config.max_bitrate,
        )
    raise ValueError(f"unknown cc {config.cc!r}")


def build_trajectory(
    config: ScenarioConfig, streams: RngStreams
) -> WaypointTrajectory:
    """Instantiate the platform trajectory for a run."""
    if config.platform is Platform.AIR:
        return paper_flight_trajectory()
    return ground_trajectory(
        duration=config.duration,
        rng=streams.derive("ground-route"),
    )


def build_channel_config(config: ScenarioConfig) -> ChannelConfig:
    """Channel behaviour knobs per environment, honouring overrides."""
    if config.environment is Environment.URBAN:
        channel_config = ChannelConfig(
            propagation=PropagationConfig.urban(),
            fading_std_air_db=1.5,
        )
    else:
        # Rural: fewer, more distant cells fluctuate less against each
        # other, so the aerial side-lobe churn is milder -> the lower
        # handover frequency of Fig. 4(a)'s rural boxplots. Capacity
        # fluctuations are slower (shadowing-scale) but proportionally
        # large at the low rural SNR.
        channel_config = ChannelConfig(
            propagation=PropagationConfig.rural(),
            air_fastfade_std_db=2.0,
            fading_std_air_db=1.8,
            fading_corr_time=0.6,
        )
    a3 = config.extra.get("a3")
    if a3 is not None:
        channel_config.a3 = a3
    het = config.extra.get("het")
    if het is not None:
        channel_config.het = het
    if config.extra.get("make_before_break"):
        channel_config.make_before_break = True
    return channel_config


@dataclass
class SessionHandles:
    """Live components of one assembled (but not yet run) session.

    Returned by :func:`build_session`; the owner drives the shared
    event loop and calls :meth:`start` / :meth:`stop` /
    :meth:`finish` / :meth:`collect` around it. ``run_session`` wraps
    exactly this sequence for the single-session case.
    """

    config: ScenarioConfig
    channel: CellularChannel
    uplink: NetworkPath
    downlink: NetworkPath
    sender: VideoSender
    receiver: VideoReceiver
    controller: CongestionController
    obs: NullRecorder

    def start(self) -> None:
        """Start channel ticks, sender pacing and receiver playback."""
        self.channel.start()
        self.sender.start()
        self.receiver.start()

    def stop(self) -> None:
        """Stop the media pipeline (after the loop has drained)."""
        self.sender.stop()
        self.receiver.stop()

    def finish(self, now: float) -> None:
        """Close streaming detectors / open spans at teardown."""
        if self.obs.enabled:
            self.uplink.finish_obs()
            self.downlink.finish_obs()
            self.channel.capacity_dip.finish(now)
            self.channel.finish_congestion(now)

    def collect(self) -> SessionResult:
        """Assemble the run's dataset into a :class:`SessionResult`.

        The per-run metrics/diagnosis snapshot is *not* attached here
        (a fleet diagnoses its shared recorder once); ``run_session``
        adds it for the single-session path.
        """
        channel = self.channel
        receiver = self.receiver
        sender = self.sender
        controller = self.controller
        extra: dict = {}
        if isinstance(controller, ScreamController):
            extra["false_loss_candidates"] = controller.false_loss_candidates
            extra["detected_losses"] = controller.detected_losses
        if isinstance(controller, GccController):
            extra["overuse_events"] = controller.overuse_events
        extra["ping_pong_handovers"] = channel.engine.ping_pong_count()
        extra["jitter_dropped_late"] = receiver.jitter_buffer.dropped_late_packets
        extra["rtt_samples"] = list(sender.rtt_samples)
        return SessionResult(
            config=self.config,
            duration=self.config.duration,
            packet_log=receiver.packet_log,
            playback=receiver.player.records,
            handovers=list(channel.engine.events),
            capacity_samples=channel.samples,
            rssi_log=channel.rssi_log,
            sender_stats=sender.stats,
            cc_log=controller.log,
            cells_seen=len(channel.cells_seen),
            packets_sent=sender.stats.packets_sent,
            packets_lost_radio=self.uplink.lost_packets,
            packets_dropped_buffer=self.uplink.capacity_link.stats.dropped_overflow,
            frames_decoded=receiver.decoder.frames_decoded,
            extra=extra,
        )


def build_channel(
    loop: EventLoop,
    config: ScenarioConfig,
    streams: RngStreams,
    *,
    obs: NullRecorder = NULL_RECORDER,
    layout: CellLayout | None = None,
    trajectory: WaypointTrajectory | None = None,
    contention: CellContention | None = None,
    ue_id: int = 0,
) -> CellularChannel:
    """The config's cellular channel on ``loop``, ticking to its duration.

    The layout comes from the ``"layout"`` stream of ``streams`` and the
    trajectory from :func:`build_trajectory`, unless ``layout`` /
    ``trajectory`` override them; the channel draws from
    ``streams.child("channel")``. ``contention`` attaches the channel to
    a shared-cell PRB scheduler as UE ``ue_id``, at the config's fleet
    uplink demand.
    """
    profile = get_profile(config.operator, config.environment.value)
    if layout is None:
        layout = profile.build_layout(streams.derive("layout"))
    if trajectory is None:
        trajectory = build_trajectory(config, streams)
    uplink_demand: float | None = None
    if contention is not None:
        uplink_demand = fleet_demand_bps(
            config.max_bitrate, config.effective_static_bitrate
        )
    return CellularChannel(
        loop,
        layout,
        profile,
        trajectory,
        streams.child("channel"),
        config=build_channel_config(config),
        horizon=config.duration,
        obs=obs,
        contention=contention,
        ue_id=ue_id,
        uplink_demand_bps=uplink_demand,
    )


def build_sender(
    loop: EventLoop,
    config: ScenarioConfig,
    streams: RngStreams,
    controller: CongestionController,
    uplink: NetworkPath,
    *,
    obs: NullRecorder = NULL_RECORDER,
    normal: BatchedNormal | None = None,
) -> VideoSender:
    """The config's source, encoder and sender, sending on ``uplink``.

    ``normal`` is a pre-built draw buffer that replaces the encoder's
    ``"encoder"`` stream (:func:`build_session`'s ``draws``).
    """
    source = SourceVideo(streams.derive("source"), fps=config.fps)
    encoder = EncoderModel(
        None if normal is not None else streams.derive("encoder"),
        fps=config.fps,
        min_bitrate=config.min_bitrate,
        max_bitrate=config.max_bitrate,
        initial_bitrate=controller.target_bitrate(0.0),
        normal=normal,
    )
    return VideoSender(loop, source, encoder, controller, uplink, obs=obs)


def build_receiver(
    loop: EventLoop,
    config: ScenarioConfig,
    controller: CongestionController,
    *,
    obs: NullRecorder = NULL_RECORDER,
) -> VideoReceiver:
    """The config's receiver pipeline, without its feedback path.

    Its ``downlink`` is set once built, before it starts, so the paths
    can deliver straight into its bound methods.
    """
    return VideoReceiver(
        loop,
        controller,
        None,
        fps=config.fps,
        jitter_buffer_latency=config.jitter_buffer_latency,
        drop_on_latency=config.jitter_buffer_drop_on_latency,
        scream_ack_window=config.scream_ack_window,
        obs=obs,
    )


def build_session(
    loop: EventLoop,
    config: ScenarioConfig,
    *,
    obs: NullRecorder = NULL_RECORDER,
    layout: CellLayout | None = None,
    trajectory: WaypointTrajectory | None = None,
    contention: CellContention | None = None,
    ue_id: int = 0,
    draws: "dict | None" = None,
) -> SessionHandles:
    """Assemble one full sender/receiver session on ``loop``.

    ``layout`` / ``trajectory`` override the config-derived defaults
    (a fleet shares one layout and spreads trajectories);
    ``contention`` attaches the session's channel to a shared-cell
    PRB scheduler as UE ``ue_id``. With every override left at its
    default this builds exactly the classic single-session pipeline —
    :class:`~repro.util.rng.RngStreams` is stateless per label, so
    deriving the layout stream externally or not does not perturb any
    other stream.

    ``draws`` optionally maps the session's per-packet/per-frame
    stream labels (``"jitter-up"``, ``"jitter-down"``, ``"loss-up"``,
    ``"loss-down"``, ``"encoder"``) to pre-built draw buffers —
    typically the preloaded wrappers of a
    :class:`~repro.util.rng.SweepDrawPlan`, which refills all seeds
    of a sweep in one struct-of-arrays block per stream. Each wrapper
    serves the exact values the per-label derived stream would have
    produced, so a run with ``draws`` is bit-identical to one
    without.
    """
    if isinstance(obs, Recorder):
        # The diagnosis layer self-configures from the trace alone, so
        # the operating point travels inside it: SLO thresholds
        # (target bitrate, source fps) resolve identically whether the
        # trace is consumed live or re-imported from JSONL.
        obs.event(
            "session.config",
            t=0.0,
            label=config.label(),
            cc=config.cc.value,
            seed=config.seed,
            fps=config.fps,
            duration=config.duration,
            target_bps=(
                config.effective_static_bitrate
                if config.cc is CcAlgorithm.STATIC
                else config.min_bitrate
            ),
        )
    streams = RngStreams(config.seed)
    channel = build_channel(
        loop,
        config,
        streams,
        obs=obs,
        layout=layout,
        trajectory=trajectory,
        contention=contention,
        ue_id=ue_id,
    )

    controller = build_controller(config)
    controller.obs = obs

    # The receiver is built before its paths, so each path delivers
    # straight into a bound method (every media packet crosses the
    # uplink's); the downlink is attached to it once built.
    receiver = build_receiver(loop, config, controller, obs=obs)
    if draws is None:
        draws = {}
    jitter_up = draws.get("jitter-up")
    jitter_down = draws.get("jitter-down")
    uplink = NetworkPath(
        loop,
        channel.uplink_rate,
        receiver.on_datagram,
        base_delay=config.base_owd,
        jitter_std=config.owd_jitter_std,
        loss_model=GilbertElliottLoss.from_rate_and_burst(
            config.loss_rate,
            config.loss_mean_burst,
            None if "loss-up" in draws else streams.derive("loss-up"),
            uniform=draws.get("loss-up"),
        ),
        buffer_bytes=config.uplink_buffer_bytes,
        rng=None if jitter_up is not None else streams.derive("jitter-up"),
        jitter=jitter_up,
        obs=obs,
        name="uplink",
        horizon=channel.rate_horizon,
    )
    downlink = NetworkPath(
        loop,
        channel.downlink_rate,
        receiver.on_feedback_delivered,
        base_delay=config.base_owd,
        jitter_std=config.owd_jitter_std,
        loss_model=GilbertElliottLoss.from_rate_and_burst(
            config.loss_rate,
            config.loss_mean_burst,
            None if "loss-down" in draws else streams.derive("loss-down"),
            uniform=draws.get("loss-down"),
        ),
        buffer_bytes=config.downlink_buffer_bytes,
        rng=None if jitter_down is not None else streams.derive("jitter-down"),
        jitter=jitter_down,
        obs=obs,
        name="downlink",
        horizon=channel.rate_horizon,
    )
    receiver.downlink = downlink
    # Uplink first: outage recovery restarts the paths in attach
    # order, and each restart pushes an event.
    channel.attach_path(uplink)
    channel.attach_path(downlink)

    sender = build_sender(
        loop, config, streams, controller, uplink,
        obs=obs, normal=draws.get("encoder"),
    )
    receiver.on_receiver_report = sender.on_receiver_report
    return SessionHandles(
        config=config,
        channel=channel,
        uplink=uplink,
        downlink=downlink,
        sender=sender,
        receiver=receiver,
        controller=controller,
        obs=obs,
    )


def run_session(
    config: ScenarioConfig,
    *,
    recorder: NullRecorder | None = None,
    obs: "ObsLevel | str | bool | None" = None,
    draws: "dict | None" = None,
) -> SessionResult:
    """Execute one measurement run and collect its dataset.

    ``obs`` selects the observability tier (an
    :class:`~repro.obs.ObsLevel` or its string/bool spellings):
    ``metrics`` instruments the run with a
    :class:`~repro.obs.MetricsRecorder` — counters/gauges/histograms
    in ``result.extra["metrics"]``, no trace, no diagnosis pass, and
    the unit stays batchable in the campaign planner — while
    ``trace`` attaches a full :class:`~repro.obs.Recorder` (trace +
    metrics + the ``diagnosis`` extra). Either way the simulated
    outcome is bit-identical to an untraced run (recorders draw no
    random numbers and schedule no events), and the result is a pure
    function of ``(config, obs)``: no tier reads the wall clock. The
    cost of recording is gated from outside, as calls per sent packet
    (``tests/test_media_path_cost.py``).
    Passing a ``recorder`` instance explicitly keeps its historical
    meaning and wins over ``obs``. ``draws`` forwards sweep-preloaded
    draw buffers to :func:`build_session` (bit-identical either way).
    """
    level = ObsLevel.coerce(obs)
    if recorder is not None:
        obs = recorder
    elif level is ObsLevel.TRACE:
        obs = Recorder()
    elif level is ObsLevel.METRICS:
        obs = MetricsRecorder()
    else:
        obs = NULL_RECORDER
    reset_datagram_ids()
    loop = EventLoop()
    if isinstance(obs, Recorder):
        obs.bind(loop)
    handles = build_session(loop, config, obs=obs, draws=draws)

    handles.start()
    loop.run_until(config.duration)
    handles.stop()
    handles.finish(loop.now)

    result = handles.collect()
    if isinstance(obs, Recorder):
        # Per-run metric snapshot travels with the result record, so
        # campaign caches serve it without re-simulating and the
        # parent-side runner can merge registries across processes.
        result.extra["metrics"] = obs.registry.snapshot()
        if obs.level is ObsLevel.TRACE:
            # SLO violations + root-cause attributions, computed once
            # per run (post-loop, so zero in-loop cost) and shipped as
            # plain data: campaign runners merge the embedded summary
            # without re-running detection.
            result.extra["diagnosis"] = diagnose(
                obs.trace, obs.registry
            ).to_dict()
    return result
