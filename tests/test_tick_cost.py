"""Deterministic per-tick cost of the channel tick.

Every channel ticks as a row of a tick batch (:mod:`repro.cellular.batch`),
so the number of Python calls a row-tick costs is the tick's speed in
a unit that does not depend on the host. Calls are counted with
``sys.setprofile`` over a whole probe run, set-up included, and only
frames whose code lives inside the ``repro`` package count, as in
``tests/test_media_path_cost.py``.

No wall-clock assertion. An 8-seed probe batch makes about 7.6 calls
per row-tick (ceiling 9): the rows index Python lists the batch
publishes once per tick and leave the filter to the batch. A batch
whose rows read numpy scalars, gather their serving cells through a
generator and advance the filter themselves makes about 10.5. A single
channel makes about 12.0 per tick (ceiling 14); drawing every plane
per tick, as channels once did, made 15.0.
"""

from __future__ import annotations

import os
import sys

import repro
from repro.core.config import ScenarioConfig
from repro.experiments.probes import channel_probe_batch, channel_probe_seed

_REPRO_DIR = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep

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


def repro_calls_per_row_tick(run, n_rows: int) -> float:
    """``repro`` calls per row-tick of ``run()``, a probe run of ``n_rows``."""
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
        if os.path.abspath(code.co_filename).startswith(_REPRO_DIR)
    )
    return calls / (TICKS * n_rows)


def test_probe_batch_calls_per_row_tick():
    batch = configs(range(3, 11))

    def run():
        results = channel_probe_batch(batch)
        assert [len(r.uplink_samples) for r in results] == [TICKS] * len(batch)

    assert repro_calls_per_row_tick(run, len(batch)) <= 9.0


def test_single_channel_calls_per_tick():
    (config,) = configs(range(3, 4))

    def run():
        assert len(channel_probe_seed(config).uplink_samples) == TICKS

    assert repro_calls_per_row_tick(run, 1) <= 14.0
