"""Bit-identity gates: golden digests per numerics environment.

Every pinned run below is reduced to a fingerprint
(:mod:`repro.core.fingerprint`) and its sha256 :func:`digest` is
checked against ``tests/golden/fingerprints.json``. Two engines that
share a bug also agree with each other; a checked-in digest does not
move unless the simulator's output does.

Seven pinned configs span the scenario axes that exercise different
code paths — CC algorithm (per-run control state), environment
(propagation config), platform (shared air trajectory vs per-seed
ground routes), operator (layout), and the ``extra`` overrides that
reshape handover behaviour. Three pinned fleets add load-balancing
churn, admission caps and ground routes, and the N=64 dense shape
``benchmarks/test_fleet_scale.py`` times adds a ~43-member cell.
Golden cases:

* every channel probe (4 seeds) and session (2 seeds) of the pinned
  configs;
* every pinned fleet (member fingerprints plus occupancy, peak and
  congestion time), and its metrics-tier ``fleet/*`` plane records;
* the full trace and metrics of a trace-sampled fleet member;
* the dense N=64 fleet;
* the ``obs="metrics"`` snapshot records of every pinned config's
  seed-1 session, which pin the per-packet instruments' values;
* urban air SCReAM flights at ack windows 64 and 256, long enough for
  delivered packets to slide below the RFC 8888 ack window (the
  paper's Section 4.2.1 false losses), with the controller's log and
  loss counters.

Live comparisons between two production paths run beside the golden
checks: batched vs per-seed probes and sessions, an N=1 fleet vs the
plain session, traced vs untraced, a metrics-tier session snapshot vs
the trace-tier registry of the same run, ``obs="metrics"`` vs dark
fleets and trace-sampled vs dark fleets.

Why per environment: numpy picks SIMD kernels for ``np.power`` and
friends from the CPU at import time, and its AVX-512 kernels round
some inputs differently in the last ulp than its AVX2/libm ones. Every
channel digest inherits that difference, so the golden file keys one
block of digests by :func:`numerics_environment`. An unrecorded
environment fails with its id; after checking the live comparisons
pass there, record it with::

    PYTHONPATH=src python tests/test_fingerprints.py --accept "<reason>"

which rewrites only the current environment's block and stores the
reason in it. Any drift of a recorded digest means a change altered
draw order or arithmetic, which silently invalidates every cached
campaign result; CI runs this file as its own job.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import platform
from pathlib import Path

import numpy as np
import pytest

from repro.cellular.cell import CellCapacityConfig
from repro.core.config import ScenarioConfig
from repro.core.fingerprint import (
    digest,
    fleet_fingerprint,
    probe_fingerprint,
    session_fingerprint,
)
from repro.core.fleet import FleetConfig, run_fleet
from repro.core.session import run_session
from repro.experiments.probes import channel_probe_batch, channel_probe_seed
from repro.obs import Recorder, trace_to_dicts
from repro.runner import WORK_SESSION, execute_batch, plan_batches
from repro.runner.work import make_unit

GOLDEN_PATH = Path(__file__).parent / "golden" / "fingerprints.json"
ACCEPT_COMMAND = (
    'PYTHONPATH=src python tests/test_fingerprints.py --accept "<reason>"'
)

#: The seven pinned configs (duration/seed applied per test).
PINNED = {
    "static-urban-air": ScenarioConfig(
        cc="static", environment="urban", platform="air"
    ),
    "gcc-urban-air": ScenarioConfig(
        cc="gcc", environment="urban", platform="air"
    ),
    "scream-urban-ground": ScenarioConfig(
        cc="scream", environment="urban", platform="ground"
    ),
    "static-rural-air": ScenarioConfig(
        cc="static", environment="rural", platform="air"
    ),
    "gcc-rural-ground": ScenarioConfig(
        cc="gcc", environment="rural", platform="ground"
    ),
    "static-urban-air-P2": ScenarioConfig(
        cc="static", environment="urban", platform="air", operator="P2"
    ),
    "gcc-urban-air-mbb": ScenarioConfig(
        cc="gcc",
        environment="urban",
        platform="air",
        extra={"make_before_break": True},
    ),
}

PROBE_SEEDS = (1, 2, 3, 4)
SESSION_SEEDS = (1, 2)
PROBE_DURATION = 60.0
SESSION_DURATION = 10.0

#: SCReAM RFC 8888 feedback cases: ack window, duration, seeds. Urban
#: air flights push enough packets between two reports that delivered
#: ones slide below the window and are declared lost; the pinned 10 s
#: ground SCReAM sessions at window 256 never get there.
FEEDBACK_PINNED = {
    "scream-urban-air-ack64": (64, 20.0, (1, 2)),
    "scream-urban-air-ack256": (256, 30.0, (1,)),
}

#: Pinned fleet configs. Axes: load-balancing CIO churn under GCC,
#: admission caps small enough to block cells mid-run (defeating the
#: ticker's fleet-wide A3 hint), and per-seed ground routes (no shared
#: trajectory cache).
FLEET_PINNED = {
    "gcc-urban-air-n4": dict(
        base=ScenarioConfig(cc="gcc", environment="urban", platform="air"),
        num_sessions=4,
        spread_radius=50.0,
    ),
    "static-rural-air-n6-cap2": dict(
        base=ScenarioConfig(cc="static", environment="rural", platform="air"),
        num_sessions=6,
        spread_radius=30.0,
        cell_capacity=CellCapacityConfig(max_sessions=2),
    ),
    "scream-urban-ground-n3": dict(
        base=ScenarioConfig(
            cc="scream", environment="urban", platform="ground"
        ),
        num_sessions=3,
        spread_radius=80.0,
    ),
}

#: The fleet and member whose full trace is pinned.
TRACED_FLEET = "gcc-urban-air-n4"
TRACED_MEMBER = 2

#: The N=64 dense shape ``benchmarks/test_fleet_scale.py`` times: load
#: balancing off so members pile onto the strongest cells (peak ~43 on
#: one cell), and the encoder clamped to a trickle so the run measures
#: the contention/tick machinery, not media work.
DENSE_FLEET = FleetConfig(
    base=ScenarioConfig(
        cc="static",
        environment="urban",
        platform="air",
        operator="P1",
        seed=7,
        duration=20.0,
        static_bitrate=1e4,
        min_bitrate=1e4,
        max_bitrate=2e4,
        fps=0.5,
    ),
    num_sessions=64,
    spread_radius=25.0,
    cell_capacity=CellCapacityConfig(max_sessions=64, lb_step_db=0.0),
)
DENSE_CASE = "fleet/dense-n64"


def numerics_environment() -> str:
    """Id of the numpy kernels the channel's floating-point math runs on.

    The sha256 of what ``np.power``, ``np.log10``, ``np.exp``,
    ``np.arctan2`` and ``np.sin`` — the ufuncs behind channel geometry
    and neighbour interference — return on a fixed grid. Hosts whose
    kernels round any grid point differently get different ids. The id
    deliberately involves no simulator code.
    """
    grid = np.linspace(-16.0, 16.0, 65_537)
    hasher = hashlib.sha256()
    for values in (
        np.power(10.0, grid),
        np.log10(np.abs(grid) + 1e-3),
        np.exp(grid),
        np.arctan2(grid, grid[::-1]),
        np.sin(grid),
    ):
        hasher.update(values.tobytes())
    return hasher.hexdigest()


def probe_case(name: str, seed: int) -> str:
    return f"probe/{name}/seed={seed}"


def session_case(name: str, seed: int) -> str:
    return f"session/{name}/seed={seed}"


def session_metrics_case(name: str, seed: int) -> str:
    return f"session-metrics/{name}/seed={seed}"


def feedback_case(name: str, seed: int) -> str:
    return f"feedback/{name}/seed={seed}"


def fleet_case(name: str) -> str:
    return f"fleet/{name}"


def plane_case(name: str) -> str:
    return f"fleet-plane/{name}"


MEMBER_TRACE_CASE = f"member-trace/{TRACED_FLEET}/member={TRACED_MEMBER}"


def probe_configs(name: str) -> list[ScenarioConfig]:
    return [
        PINNED[name].with_overrides(seed=seed, duration=PROBE_DURATION)
        for seed in PROBE_SEEDS
    ]


def session_configs(name: str) -> list[ScenarioConfig]:
    return [
        PINNED[name].with_overrides(seed=seed, duration=SESSION_DURATION)
        for seed in SESSION_SEEDS
    ]


def feedback_configs(name: str) -> list[ScenarioConfig]:
    window, duration, seeds = FEEDBACK_PINNED[name]
    return [
        ScenarioConfig(
            cc="scream",
            environment="urban",
            platform="air",
            scream_ack_window=window,
            seed=seed,
            duration=duration,
        )
        for seed in seeds
    ]


def feedback_fingerprint(result) -> tuple:
    """A SCReAM session's fingerprint plus its controller log and losses.

    :func:`session_fingerprint` leaves out ``cc_log``; its ``repr`` pins
    the controller's logged state and the type of every logged value.
    """
    return (
        session_fingerprint(result),
        repr(result.cc_log),
        result.extra["false_loss_candidates"],
        result.extra["detected_losses"],
    )


def fleet_config(name: str, **overrides) -> FleetConfig:
    spec = dict(FLEET_PINNED[name])
    spec["base"] = spec["base"].with_overrides(
        seed=3, duration=SESSION_DURATION
    )
    return FleetConfig(**{**spec, **overrides})


def plane_records(result) -> list[dict]:
    """The metrics-tier ``fleet/*`` records of a fleet run."""
    return [r for r in result.extra["metrics"] if r["name"].startswith("fleet/")]


def member_trace(result, member: int) -> tuple:
    """A trace-sampled member's full trace and metrics snapshot."""
    sampled = result.extra["member_traces"][str(member)]
    return sampled["trace"], sampled["metrics"]


def golden_fingerprints():
    """Yield ``(case, fingerprint)`` for every golden case."""
    for name in sorted(PINNED):
        for config in probe_configs(name):
            yield (
                probe_case(name, config.seed),
                probe_fingerprint(channel_probe_seed(config)),
            )
        for config in session_configs(name):
            yield (
                session_case(name, config.seed),
                session_fingerprint(run_session(config)),
            )
        config = session_configs(name)[0]
        yield (
            session_metrics_case(name, config.seed),
            run_session(config, obs="metrics").extra["metrics"],
        )
    for name in sorted(FEEDBACK_PINNED):
        for config in feedback_configs(name):
            yield (
                feedback_case(name, config.seed),
                feedback_fingerprint(run_session(config)),
            )
    for name in sorted(FLEET_PINNED):
        yield fleet_case(name), fleet_fingerprint(run_fleet(fleet_config(name)))
        metered = run_fleet(fleet_config(name), obs="metrics")
        yield plane_case(name), plane_records(metered)
    sampled = run_fleet(
        fleet_config(TRACED_FLEET, trace_members=(TRACED_MEMBER,))
    )
    yield MEMBER_TRACE_CASE, member_trace(sampled, TRACED_MEMBER)
    yield DENSE_CASE, fleet_fingerprint(run_fleet(DENSE_FLEET))


def load_golden() -> dict[str, str]:
    """This numerics environment's golden digests; fails if unrecorded."""
    environment = numerics_environment()
    blocks = json.loads(GOLDEN_PATH.read_text())["environments"]
    if environment not in blocks:
        pytest.fail(
            f"numerics environment {environment} (numpy {np.__version__}, "
            f"Python {platform.python_version()}) has no block in "
            "tests/golden/fingerprints.json. Check that the live "
            "comparisons in tests/test_fingerprints.py pass here, then "
            f"record it with: {ACCEPT_COMMAND}",
            pytrace=False,
        )
    return blocks[environment]["cases"]


def assert_golden(golden: dict[str, str], case: str, fingerprint) -> None:
    assert case in golden, f"golden case {case} is not recorded"
    assert digest(fingerprint) == golden[case], (
        f"{case} drifted from its golden digest"
    )


@pytest.fixture(scope="module")
def golden() -> dict[str, str]:
    return load_golden()


@pytest.mark.parametrize("name", sorted(PINNED))
def test_probe_batch_bit_identical(name, golden):
    configs = probe_configs(name)
    scalar = [probe_fingerprint(channel_probe_seed(c)) for c in configs]
    batched = [probe_fingerprint(p) for p in channel_probe_batch(configs)]
    assert batched == scalar
    for config, fingerprint in zip(configs, scalar):
        assert_golden(golden, probe_case(name, config.seed), fingerprint)


@pytest.mark.parametrize("name", sorted(PINNED))
def test_session_batch_bit_identical(name, golden):
    configs = session_configs(name)
    scalar = [session_fingerprint(run_session(c)) for c in configs]
    units = [make_unit(WORK_SESSION, c) for c in configs]
    plans, leftovers = plan_batches(list(enumerate(units)))
    assert leftovers == [] and len(plans) == 1
    batched = [session_fingerprint(r) for r in execute_batch(plans[0])]
    assert batched == scalar
    for config, fingerprint in zip(configs, scalar):
        assert_golden(golden, session_case(name, config.seed), fingerprint)


@pytest.mark.xfail(
    np.lib.NumpyVersion(np.__version__) >= "2.0.0",
    reason=(
        "BatchedNormal/BatchedUniform serve a SweepDrawPlan preload via "
        "list(preload) as numpy.float64 scalars but refills as Python "
        "floats; the scalars reach every batched session's logs, so with "
        "numpy >= 2 their repr, and the digest, differ from the scalar "
        "run's although every value is equal. preload.tolist() fixes it "
        "but moves the sweep-* digests in benchmarks/perf/expected.json, "
        "so it waits for a benchmark change that re-accepts them."
    ),
    strict=True,
)
def test_batched_session_digest_equals_scalar():
    configs = session_configs("gcc-rural-ground")
    scalar = [digest(session_fingerprint(run_session(c))) for c in configs]
    units = [make_unit(WORK_SESSION, c) for c in configs]
    plans, _ = plan_batches(list(enumerate(units)))
    batched = [digest(session_fingerprint(r)) for r in execute_batch(plans[0])]
    assert batched == scalar


@pytest.mark.parametrize("name", sorted(FLEET_PINNED))
def test_fleet_fast_bit_identical_to_scalar(name, golden):
    """The fleet engine reproduces the scalar reference it replaced.

    The golden fleet digests were recorded while ``run_fleet`` still
    had a scalar reference arm (dict/loop contention, per-tick draws),
    and both arms produced them; the digest now stands in for that
    arm.
    """
    assert_golden(
        golden, fleet_case(name), fleet_fingerprint(run_fleet(fleet_config(name)))
    )


def test_dense_fleet_matches_golden(golden):
    assert_golden(golden, DENSE_CASE, fleet_fingerprint(run_fleet(DENSE_FLEET)))


def test_n1_fleet_bit_identical_to_session(golden):
    config = session_configs("static-urban-air")[0]
    single = session_fingerprint(run_session(config))
    fleet = run_fleet(FleetConfig(base=config, num_sessions=1))
    assert session_fingerprint(fleet.sessions[0]) == single
    assert_golden(golden, session_case("static-urban-air", config.seed), single)


def test_traced_session_bit_identical_to_untraced(golden):
    config = session_configs("gcc-urban-air")[0]
    untraced = session_fingerprint(run_session(config))
    traced = session_fingerprint(run_session(config, recorder=Recorder()))
    assert traced == untraced
    assert_golden(golden, session_case("gcc-urban-air", config.seed), traced)


@pytest.mark.parametrize("name", sorted(PINNED))
def test_session_metrics_snapshot_matches_golden(name, golden):
    """A metrics-tier session snapshot is pinned, record for record.

    It must also equal the registry snapshot of the same run at the
    trace tier: the two tiers differ only in the trace they keep.
    """
    config = session_configs(name)[0]
    metered = run_session(config, obs="metrics").extra["metrics"]
    traced = run_session(config, obs="trace").extra["metrics"]
    assert metered
    assert metered == traced
    assert_golden(golden, session_metrics_case(name, config.seed), metered)


@pytest.mark.parametrize("name", sorted(FEEDBACK_PINNED))
def test_scream_feedback_matches_golden(name, golden):
    """SCReAM's ack and false-loss path is pinned, log and counters too."""
    for config in feedback_configs(name):
        assert_golden(
            golden,
            feedback_case(name, config.seed),
            feedback_fingerprint(run_session(config)),
        )


@pytest.mark.parametrize("name", sorted(FLEET_PINNED))
def test_metrics_fleet_bit_identical_to_off(name, golden):
    """obs="metrics" must not perturb a single packet or draw."""
    dark = run_fleet(fleet_config(name))
    metered = run_fleet(fleet_config(name), obs="metrics")
    assert fleet_fingerprint(metered) == fleet_fingerprint(dark)
    assert_golden(golden, fleet_case(name), fleet_fingerprint(metered))


@pytest.mark.parametrize("name", sorted(FLEET_PINNED))
def test_metrics_plane_bit_identical_across_arms(name, golden):
    """The plane snapshot matches the one both engine arms produced.

    Snapshots are exact-equality records of float sums/mins/maxs, so
    any reordering of the per-tick ingest shows up here. The golden
    digest was recorded when the live plane and the scalar arm's
    sample replay still both existed and agreed.
    """
    records = plane_records(run_fleet(fleet_config(name), obs="metrics"))
    assert records  # the plane actually recorded something
    assert_golden(golden, plane_case(name), records)


def test_sampled_trace_fleet_bit_identical_to_off(golden):
    """trace_members must not perturb any member's packets."""
    dark = run_fleet(fleet_config(TRACED_FLEET))
    traced = run_fleet(fleet_config(TRACED_FLEET, trace_members=(1, 3)))
    assert fleet_fingerprint(traced) == fleet_fingerprint(dark)
    assert traced.extra["trace_members"] == [1, 3]
    assert_golden(golden, fleet_case(TRACED_FLEET), fleet_fingerprint(traced))


def test_sampled_member_trace_invariant_across_arms(golden):
    """A sampled member's full trace does not depend on its tick path.

    The golden digest was recorded when sampled members ran per-tick
    draws outside the fleet plan; they now tick on the plan like every
    other member, and the trace (sim-time stamps included) and metrics
    must not move.
    """
    result = run_fleet(
        fleet_config(TRACED_FLEET, trace_members=(TRACED_MEMBER,))
    )
    assert_golden(
        golden, MEMBER_TRACE_CASE, member_trace(result, TRACED_MEMBER)
    )


def test_n1_sampled_member_trace_matches_session_trace():
    """An N=1 fleet's sampled member records the session's exact trace.

    The fleet adds one ``fleet.member_sample`` marker; everything
    else — every record, stamp and label, in order — must match.
    """
    config = PINNED["static-urban-air"].with_overrides(
        seed=3, duration=SESSION_DURATION
    )
    fleet = run_fleet(
        FleetConfig(base=config, num_sessions=1, trace_members=(0,))
    )
    recorder = Recorder()
    run_session(config, recorder=recorder)
    member = [
        r for r in fleet.extra["member_traces"]["0"]["trace"]
        if r["name"] != "fleet.member_sample"
    ]
    assert member == trace_to_dicts(recorder.trace)


def accept(reason: str) -> str:
    """Record this environment's golden block; returns its id."""
    environment = numerics_environment()
    if GOLDEN_PATH.exists():
        data = json.loads(GOLDEN_PATH.read_text())
    else:
        data = {
            "recipe": (
                "sha256 of repr(fingerprint) per case "
                "(repro.core.fingerprint.digest); environments are keyed "
                "by numerics_environment() in tests/test_fingerprints.py"
            ),
            "environments": {},
        }
    data["environments"][environment] = {
        "numpy": np.__version__,
        "python": platform.python_version(),
        "reason": reason,
        "cases": {case: digest(fp) for case, fp in golden_fingerprints()},
    }
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    return environment


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(
        description=(
            "Rewrite this numerics environment's block of "
            f"{GOLDEN_PATH.name}. Run the live comparisons first "
            "(pytest tests/test_fingerprints.py) and only accept digests "
            "you can explain."
        )
    )
    parser.add_argument(
        "--accept",
        metavar="REASON",
        required=True,
        help="why the digests changed or the environment is new "
        "(stored in the block)",
    )
    args = parser.parse_args(argv)
    if not args.accept.strip():
        parser.error("--accept needs a non-empty reason")
    environment = accept(args.accept)
    print(f"recorded numerics environment {environment} in {GOLDEN_PATH}")


if __name__ == "__main__":
    main()
