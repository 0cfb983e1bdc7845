"""Campaign work units: what a worker process actually executes.

A :class:`WorkUnit` is a picklable, hashable description of one
simulation run — kind + fully resolved :class:`ScenarioConfig` (seed
and duration already applied) + any extra kind-specific parameters.
``execute_unit`` dispatches it to the matching entry point; it runs
identically in the parent process (``workers=1``) and in pool workers.
"""

from __future__ import annotations

import dataclasses
import enum
from dataclasses import dataclass
from typing import Any

from repro.core.config import ScenarioConfig
from repro.core.session import run_session
from repro.obs import ObsLevel

#: Full video-pipeline session (expensive; video figures).
WORK_SESSION = "session"
#: Cellular channel only, no video (cheap; Fig. 4/10).
WORK_CHANNEL_PROBE = "channel-probe"
#: ICMP-like echo probes over the channel (cheap; Fig. 13).
WORK_PING_PROBE = "ping-probe"
#: N sessions sharing one layout + PRB scheduler (most expensive).
WORK_FLEET = "fleet"

_KINDS = (WORK_SESSION, WORK_CHANNEL_PROBE, WORK_PING_PROBE, WORK_FLEET)


@dataclass(frozen=True)
class WorkUnit:
    """One independent simulation run of a campaign.

    Parameters
    ----------
    kind:
        One of :data:`WORK_SESSION`, :data:`WORK_CHANNEL_PROBE`,
        :data:`WORK_PING_PROBE`.
    config:
        Fully resolved scenario (seed and duration applied).
    params:
        Kind-specific keyword arguments as a sorted tuple of
        ``(name, value)`` pairs, e.g. ``(("rate_hz", 20.0),)``.
    """

    kind: str
    config: ScenarioConfig
    params: tuple[tuple[str, Any], ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown work kind {self.kind!r}")

    def fingerprint(self) -> dict[str, Any]:
        """JSON-able canonical description (the cache-key material)."""
        config: dict[str, Any] = {}
        for field in dataclasses.fields(self.config):
            value = getattr(self.config, field.name)
            if isinstance(value, enum.Enum):
                value = value.value
            config[field.name] = value
        return {
            "kind": self.kind,
            "config": config,
            "params": {name: value for name, value in self.params},
        }

    def describe(self) -> str:
        """Short human-readable id for telemetry/progress lines."""
        return f"{self.kind}:{self.config.label()}"


def make_unit(kind: str, config: ScenarioConfig, **params: Any) -> WorkUnit:
    """Build a :class:`WorkUnit` with canonically sorted params.

    An ``obs`` param is stored as its :class:`ObsLevel` value and
    dropped for ``off``, so every spelling of a tier (``True``,
    ``"trace"`` and ``ObsLevel.TRACE``; no param, ``False`` and
    ``"off"``) builds one unit with one cache key.
    """
    if "obs" in params:
        level = ObsLevel.coerce(params.pop("obs"))
        if level is not ObsLevel.OFF:
            params["obs"] = level.value
    return WorkUnit(kind=kind, config=config, params=tuple(sorted(params.items())))


def execute_unit(unit: WorkUnit) -> Any:
    """Run one work unit and return its raw result."""
    # The probe helpers live under repro.experiments, whose package
    # init itself builds on repro.runner — import them lazily to keep
    # the module graph acyclic.
    from repro.experiments.probes import channel_probe_seed, ping_probe_seed

    params = dict(unit.params)
    if unit.kind == WORK_SESSION:
        # ``obs`` selects the observability tier (``"metrics"`` /
        # ``"trace"``, with legacy ``True`` meaning ``trace``). The
        # tier is part of the cache fingerprint: an instrumented
        # result is a different payload (``extra["metrics"]`` and, at
        # trace level, ``extra["diagnosis"]``).
        return run_session(
            unit.config, obs=ObsLevel.coerce(params.pop("obs", None))
        )
    if unit.kind == WORK_CHANNEL_PROBE:
        return channel_probe_seed(unit.config)
    if unit.kind == WORK_PING_PROBE:
        return ping_probe_seed(unit.config, **params)
    if unit.kind == WORK_FLEET:
        # Fleets shard across workers exactly like seeds: one fleet
        # (N co-located sessions on a shared loop) per work unit.
        from repro.cellular.cell import CellCapacityConfig
        from repro.core.fleet import FleetConfig, run_fleet

        level = ObsLevel.coerce(params.pop("obs", None))
        capacity = params.pop("cell_capacity", None)
        trace_members = tuple(params.pop("trace_members", ()))
        fleet_config = FleetConfig(
            base=unit.config,
            cell_capacity=(
                CellCapacityConfig(*capacity)
                if capacity is not None
                else CellCapacityConfig()
            ),
            trace_members=trace_members,
            **params,
        )
        return run_fleet(fleet_config, obs=level)
    raise ValueError(f"unknown work kind {unit.kind!r}")


