#!/usr/bin/env python3
"""Perf benchmark of the repro simulator: four campaign workloads.

Commands (run from the repository root)::

    python benchmarks/perf/bench.py run --seed 3 --out R.json
    python benchmarks/perf/bench.py trace --seed 3 --out T.json
    python benchmarks/perf/bench.py compare A.json B.json
    python benchmarks/perf/bench.py accept-digests --reason "<why>"
    python benchmarks/perf/bench.py measure --workload W --seed N \\
        --seconds T --trace 0|1

``measure`` runs one workload and prints one JSON object as its last
line: ``correct``, ``attempted``, ``failed`` and ``metrics`` (every
end-to-end metric of ``BENCHMARK.json`` untraced, every per-layer
metric with ``--trace 1``). ``run`` and ``trace`` do the same for every
workload at ``BENCHMARK.json``'s ``run_seconds`` and write the samples
behind each metric to ``--out``.

A run of ``T`` seconds times a fixed number of iterations per workload
(``Workload.iterations``), so two commits always do identical work.
Each measurement runs in fresh worker processes (``bench.py worker``)
with one BLAS/OpenMP thread, one after another: one closed-loop client,
``workers=1``, no pool.

Untraced times are *nominal seconds*: each worker samples the host's
speed while it runs (:mod:`perf_host`) and scales its times to the host
the benchmark was sized on, and an iteration's wall time is further
scaled to its workload's nominal packet count (``Workload.packets``).
Raw wall times are kept in the ``--out`` reports next to them.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import traceback
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC_PATH = ROOT / "BENCHMARK.json"
EXPECTED_PATH = HERE / "expected.json"
WORK_ROOT = HERE / ".work"

DEFAULT_SEED = 3
#: Seed pinned in expected.json but never used while tuning workloads.
HELD_OUT_SEED = 11
PINNED_SEEDS = (DEFAULT_SEED, HELD_OUT_SEED)
#: Set-ups per untraced measurement, at least: set-up-only processes
#: make up what the workload's worker processes do not give.
SETUPS = 3
#: A measurement must end within this many seconds.
DEADLINE_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(RuntimeError):
    """A measurement could not complete; no result is printed."""


def load_spec() -> dict[str, Any]:
    with SPEC_PATH.open(encoding="utf-8") as handle:
        return json.load(handle)


def load_expected() -> dict[str, Any]:
    if not EXPECTED_PATH.exists():
        return {"reasons": [], "digests": {}}
    with EXPECTED_PATH.open(encoding="utf-8") as handle:
        return json.load(handle)


def summarize(values: list[float]) -> dict[str, Any]:
    """Median, quartiles, n and, for n >= 20, the tail percentile."""
    values = list(values)
    median = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = q3 = median
    summary: dict[str, Any] = {
        "value": median,
        "n": len(values),
        "q1": q1,
        "q3": q3,
        "samples": values,
    }
    if len(values) >= 20:
        # The highest percentile with at least ten samples beyond it.
        pct = math.floor(100 * (len(values) - 10) / len(values))
        summary["tail"] = {
            "percentile": pct,
            "value": statistics.quantiles(values, n=100)[pct - 1],
        }
    return summary


# ----------------------------------------------------------------------
# worker side: runs inside a fresh interpreter
# ----------------------------------------------------------------------


def _safe_iterate(run):
    """One iteration, or ``None`` plus error digests if a unit raised."""
    try:
        return run.iterate(), None
    except Exception:  # the benchmark counts failures instead of dying
        traceback.print_exc(file=sys.stderr)
        return None, ["error"] * len(run.units)


class _Worker:
    """Iterations of one workload run, timed in nominal seconds.

    With a :class:`~perf_host.HostSampler` every time is nominal; an
    iteration's wall time is also scaled to the workload's nominal
    packet count (``Workload.packets`` and ``packets_power``). Without
    one (traced runs) times are raw.
    """

    def __init__(self, run, sampler) -> None:
        self.run = run
        self.sampler = sampler
        self.digest_counts: dict[str, int] = {}

    def iterate(self) -> dict[str, Any] | None:
        iteration, error = _safe_iterate(self.run)
        digests = error if iteration is None else iteration.digests
        key = json.dumps(digests)
        self.digest_counts[key] = self.digest_counts.get(key, 0) + 1
        if iteration is None:
            return None
        step = {
            "iteration": iteration,
            "digests": digests,
            "raw_wall_s": iteration.wall_s,
            "wall_s": iteration.wall_s,
            "first_result_s": iteration.first_result_s,
        }
        if self.sampler is not None:
            workload = self.run.workload
            nominal = workload.packets
            work = 1.0
            if nominal and iteration.packets:
                work = (nominal / iteration.packets) ** workload.packets_power
            seconds = self.sampler.seconds
            step["wall_s"] = seconds(iteration.start, iteration.end) * work
            step["first_result_s"] = seconds(iteration.start, iteration.first)
        return step

    def first_result(self) -> float | None:
        """One campaign stopped at its first result: that result's time."""
        try:
            start, first = self.run.first_result()
        except Exception:  # the timed iterations count the failure
            traceback.print_exc(file=sys.stderr)
            return None
        if self.sampler is None:
            return first - start
        return self.sampler.seconds(start, first)


def _layer_metrics(tracer, traced: list[dict], plain: list[dict]) -> dict[str, float]:
    from perf_shim import (
        ALLOC_CALL,
        CACHE_GET_CALL,
        HINTED_CALL,
        LAYERS,
        SHARES_CALL,
    )

    iterations = len(traced)
    wall = sum(it["raw_wall_s"] for it in traced)
    metrics: dict[str, float] = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = tracer.self_s[layer] / iterations
        metrics[f"{layer}.calls"] = tracer.calls[layer] / iterations
        metrics[f"{layer}.share"] = tracer.self_s[layer] / wall
    calls = tracer.entry_calls
    prefiltered = calls.get(HINTED_CALL, 0)
    shares = calls.get(SHARES_CALL, 0)
    lookups = calls.get(CACHE_GET_CALL, 0)
    metrics.update(
        {
            "unattributed.share": (wall - tracer.attributed_s()) / wall,
            "trace_overhead": statistics.median(it["wall_s"] for it in traced)
            / statistics.median(it["wall_s"] for it in plain),
            "net.simulator.events": tracer.events / iterations,
            "net.links.drops": sum(it["iteration"].drops for it in traced) / iterations,
            "cellular.handover.hint_hit_ratio": (
                tracer.hinted / prefiltered if prefiltered else 0.0
            ),
            "cellular.cell.alloc_per_share": (
                calls.get(ALLOC_CALL, 0) / shares if shares else 0.0
            ),
            "runner.cache.hit_ratio": (
                tracer.cache_hits / lookups if lookups else 0.0
            ),
            "runner.cache.mb": statistics.median(
                it["iteration"].cache_bytes for it in traced
            )
            / (1024 * 1024),
        }
    )
    return metrics


def worker_main(args: argparse.Namespace) -> int:
    """One process: set up, run the cold iteration, iterate, report.

    ``setup`` only sets up (it fills the warm workload's cache);
    ``digest`` stops after the cold iteration; ``plain`` adds
    ``--iterations`` timed iterations, then the workload's
    ``first_runs`` campaigns stopped at their first result; ``traced``
    alternates untraced and traced iterations, ``--iterations`` pairs,
    without host sampling, whose handler time no layer would own.
    """
    import contextlib
    import resource

    from perf_host import HostSampler

    start = time.perf_counter()  # repro-lint: ignore[RPL001]
    traced_mode = args.mode == "traced"
    with contextlib.nullcontext() if traced_mode else HostSampler() as sampler:
        from perf_workloads import WorkloadRun

        run = WorkloadRun(args.workload, args.seed, Path(args.workdir))
        ready = time.perf_counter()  # repro-lint: ignore[RPL001]
        print("ready", flush=True)
        payload: dict[str, Any] = {
            "setup_scale": 1.0
            if sampler is None
            else sampler.seconds(start, ready) / (ready - start)
        }
        if args.mode == "setup":
            print(json.dumps(payload))
            return 0
        worker = _Worker(run, sampler)
        cold = worker.iterate()
        plain: list[dict] = []
        traced: list[dict] = []
        tracer = None
        if traced_mode:
            from perf_shim import LayerTracer

            tracer = LayerTracer()
        for _ in range(0 if args.mode == "digest" else args.iterations):
            step = worker.iterate()
            if step is not None:
                plain.append(step)
            if tracer is not None:
                with tracer:
                    step = worker.iterate()
                if step is not None:
                    traced.append(step)
        first_results = [it["first_result_s"] for it in plain]
        if args.mode == "plain":
            for _ in range(run.workload.first_runs):
                first = worker.first_result()
                if first is not None:
                    first_results.append(first)
    payload.update(
        {
            "cold_digests": cold["digests"] if cold else ["error"] * len(run.units),
            "cold_wall_s": [cold["wall_s"]] if cold else [],
            "raw_cold_wall_s": [cold["raw_wall_s"]] if cold else [],
            "wall_s": [it["wall_s"] for it in plain],
            "raw_wall_s": [it["raw_wall_s"] for it in plain],
            "first_result_s": first_results,
            "digest_counts": worker.digest_counts,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "missing": [] if tracer is None else tracer.missing,
        }
    )
    if tracer is not None and traced and plain:
        payload["layers"] = _layer_metrics(tracer, traced, plain)
    print(json.dumps(payload))
    return 0


# ----------------------------------------------------------------------
# orchestrator side: spawns workers, checks digests, reports metrics
# ----------------------------------------------------------------------


def _worker_env() -> dict[str, str]:
    env = dict(os.environ)
    for name in THREAD_VARS:
        env[name] = "1"
    # Fixed string hashing, so dict layouts do not differ between workers.
    env["PYTHONHASHSEED"] = "0"
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _spawn(argv: list[str], deadline: float) -> tuple[float, dict[str, Any]]:
    """Run one worker; returns (its scaled set-up seconds, its payload)."""
    start = time.perf_counter()  # repro-lint: ignore[RPL001]
    with subprocess.Popen(
        [sys.executable, str(Path(__file__).resolve()), "worker", *argv],
        stdout=subprocess.PIPE,
        env=_worker_env(),
        text=True,
    ) as proc:
        # The deadline kills the worker; reads then end at its EOF.
        timer = threading.Timer(max(deadline - start, 1.0), proc.kill)
        timer.start()
        try:
            ready = proc.stdout.readline()
            setup_s = time.perf_counter() - start  # repro-lint: ignore[RPL001]
            out = proc.stdout.read()
        except BaseException:
            proc.kill()
            raise
        finally:
            timer.cancel()
    if proc.returncode != 0 or ready.strip() != "ready":
        raise BenchError(f"worker {' '.join(argv)} exited with {proc.returncode}")
    lines = [line for line in out.splitlines() if line.strip()]
    if not lines:
        raise BenchError(f"worker {' '.join(argv)} printed no result")
    payload = json.loads(lines[-1])
    return setup_s * payload["setup_scale"], payload


def _run_workers(
    workload: str, seed: int, jobs: list[tuple[str, int]]
) -> list[tuple[float, dict[str, Any]]]:
    """Run one worker per ``(mode, iterations)`` job, one after another."""
    deadline = time.perf_counter() + DEADLINE_S  # repro-lint: ignore[RPL001]
    WORK_ROOT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(dir=WORK_ROOT)
    try:
        return [
            _spawn(
                [
                    "--workload", workload,
                    "--seed", str(seed),
                    "--mode", mode,
                    "--iterations", str(iterations),
                    "--workdir", workdir,
                ],
                deadline,
            )
            for mode, iterations in jobs
        ]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _count_failed(payloads: list[dict[str, Any]], truth: list[str]) -> tuple[int, int]:
    """(units attempted, units whose digest differs from ``truth``)."""
    attempted = failed = 0
    counts = [item for payload in payloads for item in payload["digest_counts"].items()]
    for key, repeats in counts:
        digests = json.loads(key)
        attempted += repeats * len(digests)
        if len(digests) == len(truth):
            wrong = sum(
                1 for got, want in zip(digests, truth) if got != want or got == "error"
            )
        else:
            wrong = len(digests)
        failed += repeats * wrong
    return attempted, failed


def _workloads() -> dict[str, Any]:
    """The workload table, importing the simulator from ``src/``."""
    src = ROOT / "src"
    if not (src / "repro").is_dir():
        raise BenchError(f"no simulator sources under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    from perf_workloads import WORKLOADS

    return WORKLOADS


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict[str, Any]:
    """Measure one workload; returns correctness and metric summaries."""
    spec = load_spec()
    table = _workloads()[workload]
    iterations = table.iterations(seconds)
    # The warm cache is filled once, by a process of its own; every
    # reader's set-up includes that fill.
    fill = [("setup", 0)] if table.cache == "warm" else []
    if trace:
        # A quarter as many untraced/traced pairs: tracing is slow.
        jobs = fill + [("traced", max(1, iterations // 4))]
    else:
        jobs = fill + [("setup", 0)] * max(0, SETUPS - table.processes)
        jobs += [
            ("plain", len(range(index, iterations, table.processes)))
            for index in range(table.processes)
        ]
    runs = _run_workers(workload, seed, jobs)
    fill_s = runs[0][0] if fill else 0.0
    setups = [fill_s + setup_s for setup_s, _ in runs[len(fill):]]
    payloads = [payload for (_, payload), (mode, _) in zip(runs, jobs) if mode != "setup"]

    expected = load_expected()["digests"].get(str(seed), {}).get(workload)
    truth = expected if expected is not None else payloads[0]["cold_digests"]
    attempted, failed = _count_failed(payloads, truth)
    correct = failed == 0

    def pooled(key: str) -> list[float]:
        return [value for payload in payloads for value in payload[key]]

    if trace:
        layers = payloads[0].get("layers")
        if layers is None:
            raise BenchError(f"{workload}: no traced iteration completed")
        metrics = {
            m["name"]: {"value": layers[m["name"]], "unit": m["unit"]}
            for m in spec["per_layer"]
        }
    else:
        samples = {
            "wall_s": pooled("wall_s"),
            "first_result_s": pooled("first_result_s"),
            "cold_wall_s": pooled("cold_wall_s"),
            "setup_s": setups,
            "peak_rss_mb": [payload["peak_rss_mb"] for payload in payloads],
            "correct_frac": [1.0 - failed / attempted],
        }
        metrics = {}
        for metric in spec["end_to_end"]:
            values = samples[metric["name"]]
            if not values:
                raise BenchError(f"{workload}: no samples for {metric['name']}")
            metrics[metric["name"]] = {"unit": metric["unit"], **summarize(values)}
        metrics["wall_s"]["raw"] = summarize(pooled("raw_wall_s"))
        metrics["cold_wall_s"]["raw"] = summarize(pooled("raw_cold_wall_s"))
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "pinned": expected is not None,
        "iterations": iterations,
        "missing": payloads[0]["missing"],
        "metrics": metrics,
    }


def _print_result(workload: str, result: dict[str, Any]) -> None:
    pinned = "expected digests" if result["pinned"] else "self-consistency"
    print(
        f"{workload}: correct={result['correct']} ({pinned}) "
        f"attempted={result['attempted']} failed={result['failed']} "
        f"iterations={result['iterations']}"
    )
    for name, metric in result["metrics"].items():
        line = f"  {name:<40} {metric['value']:>14.6g} {metric['unit']}"
        if "n" in metric:
            line += f"  n={metric['n']} q1={metric['q1']:.6g} q3={metric['q3']:.6g}"
            tail = metric.get("tail")
            if tail:
                line += f" p{tail['percentile']}={tail['value']:.6g}"
        if "raw" in metric:
            line += f"  raw={metric['raw']['value']:.6g}"
        print(line)
    for entry in result["missing"]:
        print(f"  missing entry point: {entry}")


def measure_main(args: argparse.Namespace) -> int:
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    _print_result(args.workload, result)
    print(
        json.dumps(
            {
                "correct": result["correct"],
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {
                    name: {"value": metric["value"], "unit": metric["unit"]}
                    for name, metric in result["metrics"].items()
                },
            }
        )
    )
    return 0


def suite_main(args: argparse.Namespace, trace: bool) -> int:
    workloads = _workloads()
    spec = load_spec()
    seconds = spec["run_seconds"]
    report: dict[str, Any] = {
        "seed": args.seed,
        "seconds": seconds,
        "trace": trace,
        "workloads": {},
    }
    for workload in spec["workloads"]:
        name = workload["name"]
        result = measure(name, args.seed, seconds, trace)
        if not workloads[name].first_result:
            # measure reports it because BENCHMARK.json lists it, but on
            # one unit it is wall_s again, and on cache hits one file read.
            result["metrics"].pop("first_result_s", None)
        _print_result(name, result)
        report["workloads"][name] = result
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")
    return 0 if all(r["correct"] for r in report["workloads"].values()) else 1


def compare_reports(
    base: dict[str, Any], head: dict[str, Any], spec: dict[str, Any]
) -> tuple[list[str], bool]:
    """Rows comparing two ``run`` reports, and whether ``head`` regressed."""

    def cell(metric: dict[str, Any]) -> str:
        return f"{metric['value']:.5g} [{metric['q1']:.5g}, {metric['q3']:.5g}]"

    rows = [
        f"{'workload':<12} {'metric':<15} {'base median [q1, q3]':<32} "
        f"{'head median [q1, q3]':<32} {'change':>8} {'bound':>6}  status"
    ]
    regressed = False
    for workload, head_result in head["workloads"].items():
        base_result = base["workloads"].get(workload)
        if base_result is None:
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            if name not in base_result["metrics"] or name not in head_result["metrics"]:
                continue
            a = summarize(base_result["metrics"][name]["samples"])
            b = summarize(head_result["metrics"][name]["samples"])
            sign = 1.0 if metric["better"] == "lower" else -1.0
            change = (b["value"] - a["value"]) / a["value"]
            worse = sign * change
            spread = max(a["q3"] - a["q1"], b["q3"] - b["q1"]) / a["value"]
            all_better = all(
                sign * (vb - va) < 0 for va in a["samples"] for vb in b["samples"]
            )
            bound = metric["bound"]
            if spread > bound and not all_better:
                status = "unresolved"
            elif worse > bound:
                status = "REGRESSION"
                regressed = True
            elif -worse > bound:
                status = "better"
            else:
                status = "ok"
            rows.append(
                f"{workload:<12} {name:<15} {cell(a):<32} {cell(b):<32} "
                f"{change:>+8.1%} {bound:>6.1%}  {status}"
            )
    return rows, regressed


def compare_main(args: argparse.Namespace) -> int:
    with open(args.base, encoding="utf-8") as handle:
        base = json.load(handle)
    with open(args.head, encoding="utf-8") as handle:
        head = json.load(handle)
    rows, regressed = compare_reports(base, head, load_spec())
    print("\n".join(rows))
    return 1 if regressed else 0


def accept_main(args: argparse.Namespace) -> int:
    """Regenerate expected.json from today's engines, recording why."""
    spec = load_spec()
    expected = load_expected()
    digests: dict[str, dict[str, list[str]]] = {}
    for seed in PINNED_SEEDS:
        for workload in spec["workloads"]:
            name = workload["name"]
            [(_, payload)] = _run_workers(name, seed, [("digest", 0)])
            if "error" in payload["cold_digests"]:
                raise BenchError(f"{name} seed {seed}: a unit raised")
            digests.setdefault(str(seed), {})[name] = payload["cold_digests"]
            print(f"seed {seed} {name}: {len(payload['cold_digests'])} digests")
    expected["digests"] = digests
    expected["reasons"] = list(expected.get("reasons", [])) + [args.reason]
    with EXPECTED_PATH.open("w", encoding="utf-8") as handle:
        json.dump(expected, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    commands = parser.add_subparsers(dest="command", required=True)

    one = commands.add_parser("measure", help="measure one workload")
    one.add_argument("--workload", required=True)
    one.add_argument("--seed", type=int, required=True)
    one.add_argument("--seconds", type=float, required=True)
    one.add_argument("--trace", type=int, choices=(0, 1), default=0)
    one.set_defaults(main=measure_main)

    for name, trace in (("run", False), ("trace", True)):
        suite = commands.add_parser(name, help=f"{name} every workload")
        suite.add_argument("--seed", type=int, default=DEFAULT_SEED)
        suite.add_argument("--out", default=None)
        suite.set_defaults(main=lambda args, trace=trace: suite_main(args, trace))

    compare = commands.add_parser("compare", help="compare two run reports")
    compare.add_argument("base")
    compare.add_argument("head")
    compare.set_defaults(main=compare_main)

    accept = commands.add_parser(
        "accept-digests", help="rewrite expected.json (needs a reason)"
    )
    accept.add_argument("--reason", required=True)
    accept.set_defaults(main=accept_main)

    worker = commands.add_parser("worker", help=argparse.SUPPRESS)
    worker.add_argument("--workload", required=True)
    worker.add_argument("--seed", type=int, required=True)
    worker.add_argument(
        "--mode", choices=("setup", "digest", "plain", "traced"), required=True
    )
    worker.add_argument("--iterations", type=int, required=True)
    worker.add_argument("--workdir", required=True)
    worker.set_defaults(main=worker_main)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.main(args)
    except BenchError as error:
        print(f"bench: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
