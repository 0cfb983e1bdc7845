"""Bench: a seed sweep as one tick batch vs one batch per seed.

A Fig. 4-style channel-probe sweep (8 seeds, one flight each) executed
two ways over the same work units: the unbatched runner (one tick
batch of one row per seed, each with its own per-tick matrix work and
loop event) and the batched runner, which runs the 8 seeds as the rows
of one tick batch: every stochastic plane precomputed across seeds in
struct-of-arrays blocks, one loop event and one set of matrix ops per
tick for all rows (:mod:`repro.cellular.batch`).

The bench asserts the two are *bit-identical* — same uplink samples,
same handovers — and that batching buys at least 2x wall time on the
sweep. Both sides run in this process under the same conditions, so
the ratio is robust to CI machine speed; the recorded bench time is
the batched side (the path campaigns actually take since PR 8).
"""

import time

from repro.core.config import ScenarioConfig
from repro.core.fingerprint import probe_fingerprint
from repro.experiments import ExperimentSettings, run_channel_probe
from repro.experiments.probes import channel_probe_batch, channel_probe_seed
from repro.runner import CampaignRunner

#: Fixed quick scale: the >= 2x gate needs a stable shape, not the
#: env-scaled settings the figure benches use.
SWEEP = ExperimentSettings(duration=300.0, seeds=tuple(range(1, 9)), warmup=20.0)
CONFIG = ScenarioConfig(cc="static", environment="urban", platform="air")


def test_batch_sweep(benchmark, report):
    with CampaignRunner(1, batch=False) as scalar_runner:
        scalar_start = time.perf_counter()  # repro-lint: ignore[RPL001]
        scalar = run_channel_probe(CONFIG, SWEEP, runner=scalar_runner)
        scalar_wall = time.perf_counter() - scalar_start  # repro-lint: ignore[RPL001]

    def _batched():
        with CampaignRunner(1, batch=True) as batch_runner:
            return run_channel_probe(CONFIG, SWEEP, runner=batch_runner)

    batched = benchmark.pedantic(_batched, rounds=1, iterations=1)
    batched_wall = benchmark.stats.stats.mean

    # Bit-identity first: a fast wrong answer is worthless.
    assert batched.uplink_samples == scalar.uplink_samples
    assert batched.altitudes == scalar.altitudes
    assert [
        (h.time, h.source_cell, h.target_cell, h.execution_time)
        for h in batched.handovers
    ] == [
        (h.time, h.source_cell, h.target_cell, h.execution_time)
        for h in scalar.handovers
    ]
    assert batched.cells_seen == scalar.cells_seen
    assert batched.ping_pong == scalar.ping_pong

    # Single-seed probes must agree with the batch too (same kernels).
    single_config = CONFIG.with_overrides(seed=SWEEP.seeds[0], duration=60.0)
    assert probe_fingerprint(
        channel_probe_seed(single_config)
    ) == probe_fingerprint(channel_probe_batch([single_config])[0])

    speedup = scalar_wall / batched_wall if batched_wall > 0 else float("inf")
    report(
        "batch_sweep",
        "\n".join(
            [
                "Batched seed sweep (8 x 300 s urban-air channel probes)",
                f"  per-seed batches: {scalar_wall:7.3f} s",
                f"  one 8-row batch : {batched_wall:7.3f} s",
                f"  speedup         : {speedup:7.2f}x (gate: >= 2.0x)",
                "  bit-identity    : uplink/altitude/handover logs equal",
            ]
        ),
    )
    assert speedup >= 2.0
