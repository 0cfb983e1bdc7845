"""Workloads of the perf benchmark and the code that runs one iteration.

Every workload is a pure function of the benchmark seed ``S`` that
returns campaign work units; the program under test sees only those
units, executed the way ``repro figure``/``repro fleet`` execute them:
``CampaignRunner(1, batch=True, cache=...)``, one closed-loop client in
one process. Sessions are sized past congestion-control ramp-up (GCC
reaches its ceiling after about 12 s, SCReAM after about 25 s), as the
paper's campaigns are, so per-packet work runs at steady-state rates.

Each workload lists first a unit whose work does not depend on the
seed (a static-bitrate session, a probe batch of fixed length), so the
time to the first result measures the engine, not the seed's channel.
"""

from __future__ import annotations

import gc
import hashlib
import marshal
import shutil
import tempfile
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterator

from repro.cellular.cell import CellCapacityConfig
from repro.core.config import ScenarioConfig
from repro.core.fingerprint import probe_fingerprint, session_fingerprint
from repro.experiments.fleet import fleet_unit
from repro.runner import WORK_CHANNEL_PROBE, WORK_FLEET, WORK_SESSION
from repro.runner import CampaignRunner, ResultCache
from repro.runner.work import WorkUnit, make_unit

#: session-cc: one urban flight per congestion controller.
SESSION_DURATION_S = 60.0
#: fleet-dense: one dense fleet; its cost barely varies with the seed.
FLEET_MEMBERS = 64
FLEET_DURATION_S = 120.0
#: sweep-*: a Fig. 4-style probe sweep plus rural SCReAM sessions.
PROBE_SEEDS = 8
PROBE_DURATION_S = 300.0
SWEEP_SESSION_SEEDS = 4
SWEEP_SESSION_DURATION_S = 30.0
#: Median media packets per iteration over seeds 21-30 (see Workload).
PACKETS_SESSION_CC = 359_000
PACKETS_SWEEP = 104_000


def session_cc_units(seed: int) -> list[WorkUnit]:
    """GCC, SCReAM and static sessions: the per-packet media path."""
    return [
        make_unit(
            WORK_SESSION,
            ScenarioConfig(
                environment="urban",
                platform="air",
                cc=cc,
                seed=seed,
                duration=SESSION_DURATION_S,
            ),
        )
        for cc in ("static", "gcc", "scream")
    ]


def fleet_dense_units(seed: int) -> list[WorkUnit]:
    """A dense shared-cell fleet: tick, contention and handover layers.

    A trickle of static video (10 kbps at 0.5 fps) keeps media work
    small, and load balancing is off so members pile onto one cell.
    """
    base = ScenarioConfig(
        cc="static",
        environment="urban",
        platform="air",
        operator="P1",
        seed=seed,
        duration=FLEET_DURATION_S,
        static_bitrate=1e4,
        min_bitrate=1e4,
        max_bitrate=2e4,
        fps=0.5,
    )
    return [
        fleet_unit(
            base,
            num_sessions=FLEET_MEMBERS,
            spread_radius=25.0,
            cell_capacity=CellCapacityConfig(max_sessions=FLEET_MEMBERS, lb_step_db=0.0),
            obs="metrics",
        )
    ]


def sweep_units(seed: int) -> list[WorkUnit]:
    """Urban channel probes plus metrics-tier rural SCReAM sessions."""
    probes = [
        make_unit(
            WORK_CHANNEL_PROBE,
            ScenarioConfig(
                environment="urban",
                platform="air",
                seed=seed + offset,
                duration=PROBE_DURATION_S,
            ),
        )
        for offset in range(PROBE_SEEDS)
    ]
    sessions = [
        make_unit(
            WORK_SESSION,
            ScenarioConfig(
                environment="rural",
                platform="air",
                cc="scream",
                seed=seed + offset,
                duration=SWEEP_SESSION_DURATION_S,
            ),
            obs="metrics",
        )
        for offset in range(SWEEP_SESSION_SEEDS)
    ]
    return probes + sessions


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: its units and how it uses the cache.

    ``cache`` is ``"none"`` (no cache), ``"cold"`` (a fresh empty cache
    directory per iteration, so every unit is a miss and a write) or
    ``"warm"`` (a cache filled during set-up, so every unit is a hit).

    ``iteration_s`` is the share of a run's seconds one timed iteration
    is given: a run of ``T`` seconds times ``round(T / iteration_s)``
    iterations, so the work a run does is fixed by ``T`` and never by
    how fast the code is. Set-up and cold iterations take the rest.

    ``packets`` is the median count of media packets an iteration's
    units send, over seeds 21-30, where the per-packet media path is
    most of an iteration's work: how many packets a seed's channel lets
    rate-adaptive sessions send varies by 5-9% between seeds, and the
    whole-iteration times are scaled by ``packets`` over the iteration's
    count, raised to ``packets_power``. It is ``None`` where the work
    does not follow the seed. Reading cached results costs more than
    their size: over seeds 41-50 and 61-70 a warm read's nominal time
    grew as the packet count to the power 1.5-2.0 (r >= 0.85), and
    linear scaling left a 10% spread across seeds that the square
    halves.

    ``processes`` is how many fresh worker processes a measurement
    starts: each sets up and runs the cold iteration, and they share
    the timed iterations. Short, allocation-heavy cache reads vary most
    from process to process, and there a process costs least; a 60 s
    flight's cold iteration costs too much to repeat.

    ``first_runs`` is how many more campaigns each worker process runs
    after its timed iterations, each stopped at its first result
    (:meth:`WorkloadRun.first_result`). Each adds a ``first_result_s``
    sample for a fraction of an iteration's cost: one sample per run
    drifts with the host by up to 11%, and a sub-millisecond cache
    read by more.

    ``first_result`` says whether ``first_result_s`` means something
    here: a single-unit workload returns its first result at the end,
    and a warm cache returns one at once.
    """

    name: str
    build: Callable[[int], list[WorkUnit]]
    cache: str
    iteration_s: float
    packets: int | None
    processes: int
    first_runs: int
    first_result: bool = True
    packets_power: float = 1.0

    def iterations(self, seconds: float) -> int:
        """Timed iterations of a run of ``seconds``."""
        return max(1, round(seconds / self.iteration_s))


WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload("session-cc", session_cc_units, "none", 12.0, PACKETS_SESSION_CC, 1, 2),
        Workload(
            "fleet-dense", fleet_dense_units, "none", 4.0, None, 2, 0, first_result=False
        ),
        Workload("sweep-cold", sweep_units, "cold", 12.0, PACKETS_SWEEP, 1, 4),
        Workload(
            "sweep-warm",
            sweep_units,
            "warm",
            12.0 / 18,
            PACKETS_SWEEP,
            6,
            20,
            first_result=False,
            packets_power=2.0,
        ),
    )
}


def unit_fingerprint(unit: WorkUnit, result: Any) -> tuple:
    """A unit's fingerprint: every member's, for a fleet."""
    if unit.kind == WORK_CHANNEL_PROBE:
        return probe_fingerprint(result)
    if unit.kind == WORK_FLEET:
        return tuple(session_fingerprint(member) for member in result.sessions)
    return session_fingerprint(result)


def unit_digest(unit: WorkUnit, result: Any) -> str:
    """sha256 of the exact ``repr`` of a unit's fingerprint."""
    return hashlib.sha256(repr(unit_fingerprint(unit, result)).encode("utf-8")).hexdigest()


class Digests:
    """:func:`unit_digest`, remembered per exact fingerprint value.

    The ``repr`` of a 60 s session's packet log takes about half a
    second; ``marshal`` format 2 takes milliseconds and, having no
    back-references, gives equal bytes for equal values. So each
    fingerprint's ``repr`` digest is computed once per process, and a
    repeat is recognised by its marshal bytes.
    """

    def __init__(self) -> None:
        self._known: dict[bytes, str] = {}

    def __call__(self, unit: WorkUnit, result: Any) -> str:
        material = unit_fingerprint(unit, result)
        try:
            key = hashlib.sha256(marshal.dumps(material, 2)).digest()
        except ValueError:  # a value marshal cannot encode
            return hashlib.sha256(repr(material).encode("utf-8")).hexdigest()
        digest = self._known.get(key)
        if digest is None:
            digest = hashlib.sha256(repr(material).encode("utf-8")).hexdigest()
            self._known[key] = digest
        return digest


def media_packets(unit: WorkUnit, result: Any) -> int:
    """Media packets one unit's sessions sent (a digested output)."""
    if unit.kind == WORK_FLEET:
        return sum(member.packets_sent for member in result.sessions)
    if unit.kind == WORK_SESSION:
        return result.packets_sent
    return 0


def buffer_drops(unit: WorkUnit, result: Any) -> int:
    """Packets the uplink buffer dropped during one unit."""
    if unit.kind == WORK_FLEET:
        return sum(member.packets_dropped_buffer for member in result.sessions)
    if unit.kind == WORK_SESSION:
        return result.packets_dropped_buffer
    return 0


@dataclass
class Iteration:
    """Timing and outputs of one closed-loop iteration.

    ``start``, ``first`` and ``end`` are ``time.perf_counter`` readings:
    campaign start, first progress callback, campaign end.
    """

    start: float
    first: float
    end: float
    digests: list[str]
    packets: int
    drops: int
    cache_bytes: int

    @property
    def wall_s(self) -> float:
        return self.end - self.start

    @property
    def first_result_s(self) -> float:
        return self.first - self.start


class WorkloadRun:
    """Set-up state of one workload in one process.

    ``workdir`` holds the cache directories. The warm workload reads
    the cache in ``workdir/warm``, filling it first if no earlier
    process of the measurement has: like a repeated ``repro figure``
    run, a reader is a fresh process, not the one that filled the cache.
    """

    def __init__(self, name: str, seed: int, workdir: Path) -> None:
        self.workload = WORKLOADS[name]
        self.units = self.workload.build(seed)
        self.workdir = Path(workdir)
        self.digests = Digests()
        self.warm_cache: ResultCache | None = None
        if self.workload.cache == "warm":
            warm_dir = self.workdir / "warm"
            if not warm_dir.exists():
                filling = tempfile.mkdtemp(dir=self.workdir)
                with CampaignRunner(1, batch=True, cache=ResultCache(filling)) as runner:
                    runner.run(self.units)
                Path(filling).rename(warm_dir)
            self.warm_cache = ResultCache(warm_dir)

    @contextmanager
    def _cache(self) -> Iterator[ResultCache | None]:
        """The iteration's cache: a fresh directory on ``"cold"``."""
        if self.workload.cache != "cold":
            yield self.warm_cache
            return
        cold_dir = tempfile.mkdtemp(dir=self.workdir)
        try:
            yield ResultCache(cold_dir)
        finally:
            shutil.rmtree(cold_dir, ignore_errors=True)

    def iterate(self) -> Iteration:
        """Run every unit once; raises if any unit raises."""
        first: list[float] = []

        def progress(done: int, total: int, record: Any) -> None:
            if not first:
                first.append(time.perf_counter())  # repro-lint: ignore[RPL001]

        # Free the previous iteration's results before the clock starts.
        gc.collect()
        with self._cache() as cache:
            start = time.perf_counter()  # repro-lint: ignore[RPL001]
            with CampaignRunner(1, batch=True, cache=cache, progress=progress) as runner:
                results = runner.run(self.units)
            end = time.perf_counter()  # repro-lint: ignore[RPL001]
            cache_bytes = cache.stats()["bytes"] if cache is not None else 0
        pairs = list(zip(self.units, results))
        return Iteration(
            start=start,
            first=first[0],
            end=end,
            digests=[self.digests(u, r) for u, r in pairs],
            packets=sum(media_packets(u, r) for u, r in pairs),
            drops=sum(buffer_drops(u, r) for u, r in pairs),
            cache_bytes=cache_bytes,
        )

    def first_result(self) -> tuple[float, float]:
        """Run the units until the first result lands, then stop.

        Returns the ``time.perf_counter`` readings at campaign start and
        at the first progress callback, which ends the campaign by
        raising. Up to there the campaign runs as in :meth:`iterate`.
        """
        first: list[float] = []

        def progress(done: int, total: int, record: Any) -> None:
            first.append(time.perf_counter())  # repro-lint: ignore[RPL001]
            raise _FirstResult

        gc.collect()
        with self._cache() as cache:
            start = time.perf_counter()  # repro-lint: ignore[RPL001]
            try:
                with CampaignRunner(1, batch=True, cache=cache, progress=progress) as runner:
                    runner.run(self.units)
            except _FirstResult:
                pass
        return start, first[0]


class _FirstResult(Exception):
    """Raised from the progress callback to stop a campaign."""
