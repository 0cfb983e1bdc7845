"""Deterministic per-tick cost of the channel tick.

Every channel ticks as a row of a tick batch (:mod:`repro.cellular.batch`),
so the number of Python calls a row-tick costs is the tick's speed in
a unit that does not depend on the host. Calls are counted with
``sys.setprofile`` over a whole run, set-up included, and only frames
whose code lives inside the ``repro`` package (or, for the fleet,
``repro.cellular``) count, as in ``tests/test_media_path_cost.py``.
No count includes the channel accessors the media path reads per
packet (``uplink_rate``, ``downlink_rate`` and ``rate_horizon``): how
often a link reads them depends on the traffic, not on the tick, and
only the fleet below carries traffic.

No wall-clock assertion, and one memory gate: a batch's tick plan
streams its horizon in blocks (:data:`repro.cellular.batch.BLOCK_ELEMENTS`
elements per plane), so the memory ``tracemalloc`` traces while a
multi-block plan advances through every tick stays within a few
blocks' bytes and does not grow with the horizon (the whole-horizon
planes it replaced took 59 MiB at 60 s and 118 MiB at 120 s for the
64 rows below; the streamed plan about 20 MiB at both).

The batch's tick kernel moves all rows
through a tick in four passes and calls into a row's handover engine,
outlier stream or scheduler only where that row's state can change,
so most row-ticks make no call at all. An 8-seed probe batch makes
about 2.47 ``repro`` calls per row-tick (ceiling 2.85; a tick that
called each row's own ``_tick``, capacity and A3 step made 7.58), a
single channel about 7.49 per tick (ceiling 8.6; before: 12.03, and
15.02 when every plane was drawn per tick), and the golden dense N=64
fleet about 1.43 ``repro.cellular`` kernel calls per row-tick (ceiling
1.5; 0.47 more are the media path's reads; a kernel that calls every
row's A3 step on every tick makes 3.65, and the per-row tick with
per-UE scheduler calls made 14.6).
"""

from __future__ import annotations

import os
import sys
import tracemalloc

import repro
import repro.cellular.batch as batch
from repro.cellular.batch import install_fleet_plans
from repro.cellular.channel import MEASUREMENT_PERIOD, CellularChannel
from repro.core.config import ScenarioConfig
from repro.core.fleet import run_fleet
from repro.experiments.probes import channel_probe_batch, channel_probe_seed
from repro.net.simulator import EventLoop
from tests.test_fingerprints import DENSE_FLEET
from tests.test_tick_batch import URBAN_AIR, channel_of

_REPRO_DIR = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep
_CELLULAR_DIR = os.path.join(_REPRO_DIR, "cellular") + os.sep

#: The channel accessors the media path reads per packet, not per
#: tick: a fleet's links call them as traffic flows, so they are not
#: the tick kernel's cost.
MEDIA_PATH_READS = frozenset(
    method.__code__
    for method in (
        CellularChannel.uplink_rate,
        CellularChannel.downlink_rate,
        CellularChannel.rate_horizon,
    )
)
#: One plane of a tick-plan block: ``BLOCK_ELEMENTS`` float64 values.
BLOCK_BYTES = 8 << 20
DURATION = 60.0
#: Ticks of a run started at 0 s, ``run_until(DURATION)`` inclusive.
TICKS = 601


def configs(seeds: range) -> list[ScenarioConfig]:
    return [
        ScenarioConfig(
            environment="urban", platform="air", seed=seed, duration=DURATION
        )
        for seed in seeds
    ]


def repro_calls_per_row_tick(
    run, n_rows: int, ticks: int = TICKS, package: str = _REPRO_DIR
) -> float:
    """Calls into ``package`` per row-tick of ``run()``, ``n_rows`` rows,
    not counting :data:`MEDIA_PATH_READS`."""
    counts: dict = {}

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            counts[code] = counts.get(code, 0) + 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(previous)
    calls = sum(
        count for code, count in counts.items()
        if code not in MEDIA_PATH_READS
        and os.path.abspath(code.co_filename).startswith(package)
    )
    return calls / (ticks * n_rows)


def test_probe_batch_calls_per_row_tick():
    batch = configs(range(3, 11))

    def run():
        results = channel_probe_batch(batch)
        assert [len(r.uplink_samples) for r in results] == [TICKS] * len(batch)

    assert repro_calls_per_row_tick(run, len(batch)) <= 2.85


def test_single_channel_calls_per_tick():
    (config,) = configs(range(3, 4))

    def run():
        assert len(channel_probe_seed(config).uplink_samples) == TICKS

    assert repro_calls_per_row_tick(run, 1) <= 8.6


def test_fleet_cellular_calls_per_row_tick():
    ticks = round(DENSE_FLEET.base.duration / MEASUREMENT_PERIOD) + 1
    calls = repro_calls_per_row_tick(
        lambda: run_fleet(DENSE_FLEET),
        DENSE_FLEET.num_sessions,
        ticks=ticks,
        package=_CELLULAR_DIR,
    )
    assert calls <= 1.5


def plan_peak_bytes(n_rows: int, horizon: float) -> int:
    """Traced peak while an urban batch's plan advances to ``horizon``.

    Only the plan and the filter planes advance (no kernel, so no
    records that grow with the horizon); the channels are built first.
    """
    loop = EventLoop()
    channels = [
        channel_of(loop, URBAN_AIR.with_overrides(seed=seed, duration=horizon))
        for seed in range(n_rows)
    ]
    tracemalloc.start()
    try:
        state = install_fleet_plans(channels, horizon)
        for k in range(round(horizon / MEASUREMENT_PERIOD) + 1):
            state.advance(k)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_plan_memory_stays_within_blocks_at_any_horizon():
    # 64 rows x 32 urban cells: 512-tick blocks, so 60 s (601 ticks)
    # streams in two blocks and 120 s (1201 ticks) in three.
    short = plan_peak_bytes(64, 60.0)
    long = plan_peak_bytes(64, 120.0)
    # Two block buffers plus one block's per-tick factors and one row's
    # temporaries; only the tick times and positions grow with the
    # horizon.
    assert short <= 3 * BLOCK_BYTES
    assert long <= 3 * BLOCK_BYTES
    assert long <= short + BLOCK_BYTES // 4
    assert batch.BLOCK_ELEMENTS * 8 == BLOCK_BYTES
