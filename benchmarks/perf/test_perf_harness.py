"""Tests of the perf benchmark harness itself (not of the simulator).

Run with ``PYTHONPATH=src python -m pytest benchmarks/perf``.
"""

from __future__ import annotations

import importlib
import json
import signal
import statistics
import time
from array import array

import pytest

import bench
import perf_host
from perf_host import HostSampler
from perf_shim import ENTRY_POINTS, LayerTracer
from perf_workloads import WORKLOADS, Digests, Iteration, WorkloadRun, unit_digest
from repro.core.config import ScenarioConfig
from repro.experiments.fleet import fleet_unit
from repro.net.simulator import EventLoop
from repro.runner import WORK_SESSION, CampaignRunner
from repro.runner.work import make_unit


def _entry_point_values() -> dict:
    values = {}
    for module_name, path, _ in ENTRY_POINTS:
        owner_name, _, attr = path.rpartition(".")
        module = importlib.import_module(module_name)
        owner = getattr(module, owner_name) if owner_name else module
        values[(module_name, path)] = owner.__dict__[attr]
    for name in ("call_at", "schedule_at"):
        values[("EventLoop", name)] = EventLoop.__dict__[name]
    return values


def test_shim_restores_every_patched_attribute_even_on_error():
    import repro.cellular.batch as batch
    import repro.core.fleet as fleet

    before = _entry_point_values()
    original = batch.install_fleet_plans
    assert fleet.install_fleet_plans is original
    with pytest.raises(RuntimeError, match="boom"):
        with LayerTracer() as tracer:
            during = _entry_point_values()
            assert all(during[key] is not before[key] for key in before)
            # A module function is replaced where it was imported too.
            assert fleet.install_fleet_plans is not original
            raise RuntimeError("boom")
    after = _entry_point_values()
    assert all(after[key] is before[key] for key in before)
    assert fleet.install_fleet_plans is original
    assert tracer.missing == []


def _spin(seconds: float) -> None:
    end = time.perf_counter() + seconds  # repro-lint: ignore[RPL001]
    while time.perf_counter() < end:  # repro-lint: ignore[RPL001]
        pass


def outer() -> None:
    _spin(0.02)
    middle()
    _spin(0.02)


def middle() -> None:
    _spin(0.01)
    inner()
    inner()


def inner() -> None:
    _spin(0.01)


def test_nested_self_times_sum_to_enclosing_wall():
    points = (
        (__name__, "outer", "a"),
        (__name__, "middle", "b"),
        (__name__, "inner", "c"),
    )
    with LayerTracer(points) as tracer:
        start = time.perf_counter()  # repro-lint: ignore[RPL001]
        outer()
        wall = time.perf_counter() - start  # repro-lint: ignore[RPL001]
    total = tracer.self_s["a"] + tracer.self_s["b"] + tracer.self_s["c"]
    assert abs(total - wall) <= 0.01 * wall
    assert tracer.self_s["a"] >= 0.04
    assert tracer.self_s["c"] >= 0.02
    assert (tracer.calls["a"], tracer.calls["b"], tracer.calls["c"]) == (1, 1, 2)


def test_traced_digests_equal_untraced():
    base = ScenarioConfig(cc="static", seed=5, duration=5.0, static_bitrate=1e5, fps=5.0)
    units = [
        make_unit(WORK_SESSION, ScenarioConfig(cc="gcc", seed=5, duration=5.0)),
        fleet_unit(base, num_sessions=4, spread_radius=25.0, obs="metrics"),
    ]
    with CampaignRunner(1, batch=True) as runner:
        plain = runner.run(units)
    with LayerTracer() as tracer:
        start = time.perf_counter()  # repro-lint: ignore[RPL001]
        with CampaignRunner(1, batch=True) as runner:
            traced = runner.run(units)
        wall = time.perf_counter() - start  # repro-lint: ignore[RPL001]
    expected = [unit_digest(u, r) for u, r in zip(units, plain)]
    assert [unit_digest(u, r) for u, r in zip(units, traced)] == expected
    # Remembered digests match, the repeat found by its marshal bytes.
    digests = Digests()
    for results in (plain, traced):
        assert [digests(u, r) for u, r in zip(units, results)] == expected
    assert len(digests._known) == len(units)
    assert tracer.events > 0
    for layer in ("net.simulator", "cellular.tick", "cellular.cell", "cc.gcc"):
        assert tracer.calls[layer] > 0, layer
    assert tracer.attributed_s() <= wall
    assert tracer.attributed_s() >= 0.9 * wall


def _report(wall_scale: float, failed: int = 0) -> dict:
    spec = bench.load_spec()
    samples = {
        "wall_s": [1.0, 1.01, 0.99, 1.0, 1.02, 0.98, 1.0, 1.01],
        "cold_wall_s": [1.2, 1.21, 1.19],
        "first_result_s": [0.3, 0.31, 0.29, 0.3, 0.3, 0.3, 0.3, 0.3],
        "setup_s": [0.35, 0.34, 0.36],
        "peak_rss_mb": [150.0, 150.5, 149.5],
        "correct_frac": [1.0 - failed / 100],
    }
    samples["wall_s"] = [value * wall_scale for value in samples["wall_s"]]
    metrics = {
        m["name"]: {"unit": m["unit"], **bench.summarize(samples[m["name"]])}
        for m in spec["end_to_end"]
    }
    result = {
        "correct": failed == 0,
        "attempted": 100,
        "failed": failed,
        "failed_frac": failed / 100,
        "metrics": metrics,
    }
    return {"workloads": {"session-cc": result}}


def test_compare_passes_identical_reports(tmp_path):
    rows, regressed = bench.compare_reports(_report(1.0), _report(1.0), bench.load_spec())
    assert not regressed
    assert not any("unresolved" in row or "REGRESSION" in row for row in rows)
    path = tmp_path / "a.json"
    path.write_text(json.dumps(_report(1.0)))
    assert bench.main(["compare", str(path), str(path)]) == 0


def test_compare_flags_a_wall_time_regression(tmp_path):
    spec = bench.load_spec()
    bound = next(m["bound"] for m in spec["end_to_end"] if m["name"] == "wall_s")
    slower = 1.0 + 1.5 * bound
    rows, regressed = bench.compare_reports(_report(1.0), _report(slower), spec)
    assert regressed
    assert any("wall_s" in row and "REGRESSION" in row for row in rows)
    base, head = tmp_path / "base.json", tmp_path / "head.json"
    base.write_text(json.dumps(_report(1.0)))
    head.write_text(json.dumps(_report(slower)))
    assert bench.main(["compare", str(base), str(head)]) == 1


def test_compare_flags_more_failures():
    rows, regressed = bench.compare_reports(
        _report(1.0), _report(1.0, failed=1), bench.load_spec()
    )
    assert regressed
    assert any("correct_frac" in row and "REGRESSION" in row for row in rows)


def test_iteration_counts_depend_only_on_run_seconds():
    counts = {name: w.iterations(12) for name, w in WORKLOADS.items()}
    assert counts == {"session-cc": 1, "fleet-dense": 3, "sweep-cold": 1, "sweep-warm": 18}
    assert all(w.iterations(0.1) == 1 for w in WORKLOADS.values())


def test_host_sampler_probes_while_open_and_restores_the_alarm():
    previous = signal.getsignal(signal.SIGALRM)
    with HostSampler() as sampler:
        _spin(0.2)
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(sampler.durations) >= 4


def test_host_sampler_scales_an_interval_to_nominal_seconds():
    sampler = HostSampler()
    sampler.starts = array("d", [1.0, 2.0, 2.9, 5.0])
    sampler.durations = array("d", [0.1, 0.3, 0.2, 9.0])
    nominal = perf_host.NOMINAL_PROBE_S
    # Probes inside are taken out; those within the window set the speed.
    window = perf_host.WINDOW_S
    assert window < 1.0
    assert sampler.seconds(1.0, 2.5) == pytest.approx((1.5 - 0.4) * nominal / 0.2)
    # None near: every probe so far sets the speed.
    assert sampler.seconds(3.5, 4.0) == pytest.approx(
        0.5 * nominal / statistics.fmean([0.1, 0.3, 0.2, 9.0])
    )


class _HalfPacketsRun:
    units = ["unit"]

    def __init__(self, name: str = "session-cc") -> None:
        self.workload = WORKLOADS[name]

    def iterate(self):
        return Iteration(
            start=10.0,
            first=10.5,
            end=12.0,
            digests=["d"],
            packets=self.workload.packets // 2,
            drops=0,
            cache_bytes=0,
        )


class _HalfSpeedSampler:
    def seconds(self, start, end):
        return (end - start) / 2


def test_worker_times_are_nominal_and_scaled_to_nominal_packets():
    step = bench._Worker(_HalfPacketsRun(), _HalfSpeedSampler()).iterate()
    assert step["raw_wall_s"] == 2.0
    # Half speed halves the time; half the packets doubles it back.
    assert step["wall_s"] == pytest.approx(2.0)
    assert step["first_result_s"] == pytest.approx(0.25)
    raw = bench._Worker(_HalfPacketsRun(), None).iterate()
    assert (raw["wall_s"], raw["first_result_s"]) == (2.0, 0.5)
    # Warm reads scale with the square of the packet ratio.
    warm = bench._Worker(_HalfPacketsRun("sweep-warm"), _HalfSpeedSampler()).iterate()
    assert warm["wall_s"] == pytest.approx(4.0)


def test_first_result_stops_the_campaign_at_its_first_result(tmp_path, monkeypatch):
    import repro.runner.engine as engine

    run = WorkloadRun("sweep-cold", 3, tmp_path)
    run.units = [
        make_unit(WORK_SESSION, ScenarioConfig(cc=cc, seed=3, duration=2.0))
        for cc in ("static", "gcc")
    ]
    executed = []
    execute = engine._execute_indexed

    def counted(payload):
        executed.append(payload[0])
        return execute(payload)

    monkeypatch.setattr(engine, "_execute_indexed", counted)
    start, first = run.first_result()
    assert start < first
    assert executed == [0]
    assert list(tmp_path.iterdir()) == []  # the cold cache is gone
    runs = {name: w.first_runs for name, w in WORKLOADS.items()}
    assert runs == {"session-cc": 2, "fleet-dense": 0, "sweep-cold": 4, "sweep-warm": 20}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_builders_are_pure_functions_of_seed(name):
    build = WORKLOADS[name].build

    def fingerprints(seed):
        return [json.dumps(u.fingerprint(), sort_keys=True) for u in build(seed)]

    first = fingerprints(3)
    other = fingerprints(4)
    assert fingerprints(3) == first
    assert other != first
    assert all(3 <= u.config.seed < 3 + len(first) for u in build(3))


def test_spec_lists_exactly_the_metrics_the_harness_emits():
    spec = bench.load_spec()
    iteration = Iteration(
        start=0.0, first=0.1, end=1.0, digests=[], packets=0, drops=0, cache_bytes=0
    )
    step = {"iteration": iteration, "raw_wall_s": 1.0, "wall_s": 1.0}
    tracer = LayerTracer(())
    layers = bench._layer_metrics(tracer, [step], [step])
    assert sorted(m["name"] for m in spec["per_layer"]) == sorted(layers)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    expected = bench.load_expected()["digests"]
    for seed in bench.PINNED_SEEDS:
        for name, workload in WORKLOADS.items():
            assert len(expected[str(seed)][name]) == len(workload.build(seed))
