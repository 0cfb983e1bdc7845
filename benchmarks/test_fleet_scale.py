"""Bench: the dense N=64 shared-cell fleet on the one fleet engine.

The 64-member fleet shape is defined once, as ``DENSE_FLEET`` in
``tests/test_fingerprints.py``, and runs through ``run_fleet``:
member-stacked tick plans and the fleet's tick batch
(:class:`~repro.cellular.batch.FleetTickState`), whose tick kernel
moves every member through a tick in four passes — A3 only where its
gate is open, capacity as one array pass, PRB shares re-split only at
the cells where a request changed or a member moved.

The shape is pinned, not env-scaled: load balancing is disabled
(``lb_step_db=0``) so members pile onto the strongest cells and stay
there, which is exactly the dense-occupancy regime the paper's fleet
sections care about. The encoder is clamped to a constant trickle so
the bench measures the contention/tick machinery, not media work.

The run is checked against its golden digest (``fleet/dense-n64`` in
``tests/golden/fingerprints.json``, keyed by numerics environment)
*before* timing — a fast wrong answer is worthless. Speed is gated
outside this file: CI's bench-smoke job compares the recorded time
with ``benchmarks/baseline.json``, and the ``fleet-dense`` workload of
``BENCHMARK.json`` times the same engine end to end.
"""

from repro.core.fingerprint import fleet_fingerprint
from repro.core.fleet import run_fleet
from tests.test_fingerprints import (
    DENSE_CASE,
    DENSE_FLEET,
    assert_golden,
    load_golden,
    numerics_environment,
)

#: Timed rounds; the recorded bench time is their statistics.
ROUNDS = 4


def test_fleet_scale(benchmark, report):
    assert_golden(
        load_golden(), DENSE_CASE, fleet_fingerprint(run_fleet(DENSE_FLEET))
    )

    result = benchmark.pedantic(
        lambda: run_fleet(DENSE_FLEET),
        rounds=ROUNDS,
        iterations=1,
        warmup_rounds=1,
    )
    wall = benchmark.stats.stats.min
    peak = max(result.peak_occupancy.values())
    report(
        "fleet_scale",
        "\n".join(
            [
                "Fleet scale (N=64, 20 s, static CC, shared cells)",
                f"  fleet engine      : {wall:7.3f} s (best of {ROUNDS})",
                f"  peak co-channel   : {peak} of {DENSE_FLEET.num_sessions}"
                " members on one cell",
                f"  golden digest     : {DENSE_CASE} matches"
                f" (numerics environment {numerics_environment()[:12]})",
            ]
        ),
    )
