"""Command-line interface.

Entry points a downstream user needs:

* ``repro run`` — fly one measurement run and print its summary;
* ``repro dataset`` — fly a campaign and export it in the released-
  dataset layout (per-run CSV directories);
* ``repro figure`` — regenerate one of the paper's figures/tables and
  print its text rendering;
* ``repro trace`` — fly one instrumented run (or load JSONL exports)
  and print the merged sim-time timeline of cc / handover / jitter-
  buffer records; ``--follow`` tails a growing JSONL export live;
* ``repro watch`` — live text dashboard over a running campaign's
  ``--status-file`` (per-worker activity, ETA, cache counters, cell
  occupancy);
* ``repro diagnose`` — detect SLO violations (RP latency, stalls,
  bitrate, FPS) in a live run or exported trace and print ranked
  root-cause attributions (handover, loss burst, capacity dip, ...);
* ``repro profile`` — profile one session or figure campaign and write
  a ranked hot-spot report plus a JSON summary;
* ``repro fleet`` — sweep fleet density over shared, PRB-contended
  cells and print per-session QoE vs. sessions per cell;
* ``repro lint`` — the repo's invariant linter.

Installed as the ``repro`` console script; also runnable as
``python -m repro.cli``.
"""

from __future__ import annotations

import argparse
import inspect
import json
import sys
import time
from pathlib import Path
from typing import Callable

from repro.analysis import format_table
from repro.core.config import ScenarioConfig
from repro.core.session import run_session
from repro.experiments import ExperimentSettings
from repro.metrics import VideoSummary, network_summary
from repro.obs import (
    Recorder,
    TraceFollower,
    diagnose,
    filter_records,
    iter_jsonl_lines,
    merge_traces,
    read_jsonl,
    read_status,
    render_status,
    render_timeline,
    validate_diagnosis,
    write_jsonl,
)
from repro.runner import (
    WORK_SESSION,
    CampaignRunner,
    ResultCache,
    RunTelemetry,
)
from repro.runner.cache import DEFAULT_CACHE_DIR
from repro.runner.work import make_unit
from repro.traces import export_session

#: figure name -> (runner import path, uses channel-scale settings)
FIGURES: dict[str, tuple[str, bool]] = {
    "fig4": ("fig4_handover", True),
    "fig5": ("fig5_latency", False),
    "fig6": ("fig6_goodput", False),
    "fig7": ("fig7_video", False),
    "fig8": ("fig8_timeseries", False),
    "fig9": ("fig9_ho_ratio", False),
    "fig10": ("fig10_operators", True),
    "fig12": ("fig12_mno", False),
    "fig13": ("fig13_altitude", True),
    "per": ("per_experiment", False),
    "stalls": ("stall_experiment", False),
    "rampup": ("rampup_experiment", False),
    "ackwindow": ("ackwindow_ablation", False),
    "jitterbuffer": ("jitterbuffer_ablation", False),
    "a3": ("a3_ablation", False),
    "buffers": ("buffer_ablation", False),
    "daps": ("daps_experiment", False),
    "multipath": ("multipath_experiment", False),
}


def _add_scenario_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--cc", default="static", choices=["static", "gcc", "scream"])
    parser.add_argument("--environment", default="urban", choices=["urban", "rural"])
    parser.add_argument("--platform", default="air", choices=["air", "ground"])
    parser.add_argument("--operator", default="P1", choices=["P1", "P2"])
    parser.add_argument("--duration", type=float, default=180.0)
    parser.add_argument("--seed", type=int, default=1)


def _scenario_from(args: argparse.Namespace) -> ScenarioConfig:
    return ScenarioConfig(
        cc=args.cc,
        environment=args.environment,
        platform=args.platform,
        operator=args.operator,
        duration=args.duration,
        seed=args.seed,
    )


def _worker_count(value: str) -> int:
    count = int(value)
    if count < 0:
        raise argparse.ArgumentTypeError(
            f"workers must be >= 0 (0 = one per CPU core), got {count}"
        )
    return count


def _add_runner_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--workers",
        type=_worker_count,
        default=1,
        help="worker processes for the campaign (default 1 = serial; "
        "0 = one per CPU core)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the on-disk result cache (re-simulate every run)",
    )
    parser.add_argument(
        "--cache-dir",
        default=DEFAULT_CACHE_DIR,
        help=f"result-cache directory (default {DEFAULT_CACHE_DIR!r})",
    )
    parser.add_argument(
        "--status-file",
        default=None,
        metavar="FILE",
        help="write live campaign status (atomic JSON) to FILE; watch "
        "it from another terminal with 'repro watch --status FILE'",
    )
    parser.add_argument(
        "--status-interval",
        type=float,
        default=1.0,
        help="seconds between status-file refreshes (default 1)",
    )


def _runner_flags_set(args: argparse.Namespace) -> list[str]:
    """The runner flags ``args`` sets away from their defaults."""
    parser = argparse.ArgumentParser()
    _add_runner_arguments(parser)
    return [
        "--" + dest.replace("_", "-")
        for dest, default in vars(parser.parse_args([])).items()
        if getattr(args, dest) != default
    ]


def _print_progress(done: int, total: int, record: RunTelemetry) -> None:
    origin = "cache" if record.cache_hit else record.worker
    print(
        f"  [{done}/{total}] {record.unit} "
        f"({record.wall_time:.1f} s wall, {origin})"
    )


def _runner_from(args: argparse.Namespace) -> CampaignRunner:
    workers = args.workers if args.workers != 0 else None
    cache = None if args.no_cache else ResultCache(Path(args.cache_dir))
    return CampaignRunner(
        workers,
        cache=cache,
        progress=_print_progress,
        status_path=getattr(args, "status_file", None),
        status_interval=getattr(args, "status_interval", 1.0),
    )


def cmd_run(args: argparse.Namespace) -> int:
    """Run one scenario and print its summary."""
    config = _scenario_from(args)
    print(f"Running {config.label()} ({config.duration:.0f} s simulated)...")
    result = run_session(config)
    net = network_summary(result)
    video = VideoSummary.from_result(result, warmup=min(30.0, config.duration / 4))
    rows = [
        ["goodput", f"{net['goodput_mbps']:.1f} Mbps"],
        ["handovers/s", f"{net['ho_per_s']:.3f}"],
        ["OWD median / p99", f"{net['owd_median_ms']:.0f} / {net['owd_p99_ms']:.0f} ms"],
        ["PER", f"{net['loss_rate'] * 100:.3f} %"],
        ["playback latency median", f"{video.median_latency_ms:.0f} ms"],
        ["playback latency < 300 ms", f"{video.latency_below_threshold * 100:.0f} %"],
        ["SSIM >= 0.5", f"{video.ssim_above_threshold * 100:.1f} %"],
        ["stalls/min", f"{video.stalls_per_minute:.2f}"],
    ]
    print(format_table(["metric", "value"], rows, title=config.label()))
    return 0


def cmd_dataset(args: argparse.Namespace) -> int:
    """Fly a campaign and export the dataset layout."""
    root = Path(args.out)
    configs = [
        ScenarioConfig(
            cc=cc.strip(),
            environment=environment.strip(),
            platform=args.platform,
            duration=args.duration,
            seed=seed,
        )
        for environment in args.environments.split(",")
        for cc in args.methods.split(",")
        for seed in range(1, args.seeds + 1)
    ]
    with _runner_from(args) as runner:
        results = runner.run(
            [make_unit(WORK_SESSION, config) for config in configs]
        )
    for config, result in zip(configs, results):
        run_dir = export_session(result, root / config.label())
        print(f"wrote {run_dir}")
    print(f"{len(configs)} runs exported under {root}/")
    print(runner.telemetry.summary())
    return 0


def cmd_figure(args: argparse.Namespace) -> int:
    """Regenerate one figure/table and print its rendering."""
    if args.name not in FIGURES:
        print(f"unknown figure {args.name!r}; choices: {', '.join(sorted(FIGURES))}")
        return 2
    import repro.experiments as experiments

    runner_name, channel_scale = FIGURES[args.name]
    runner = getattr(experiments, runner_name)
    seeds = tuple(range(1, args.seeds + 1))
    settings = ExperimentSettings(
        duration=args.duration, seeds=seeds, warmup=min(30.0, args.duration / 4)
    )
    if channel_scale:
        settings = ExperimentSettings(
            duration=max(args.duration, 300.0),
            seeds=tuple(range(1, max(args.seeds, 4) + 1)),
            warmup=settings.warmup,
        )
    print(f"Regenerating {args.name} ({settings.duration:.0f} s x {len(settings.seeds)} seeds)...")
    kwargs = {}
    campaign_runner = None
    if "runner" in inspect.signature(runner).parameters:
        campaign_runner = _runner_from(args)
        kwargs["runner"] = campaign_runner
    elif ignored := _runner_flags_set(args):
        print(
            f"figure {args.name} runs without the campaign runner; "
            f"ignoring {', '.join(ignored)}",
            file=sys.stderr,
        )
    try:
        result = runner(settings, **kwargs)
    finally:
        if campaign_runner is not None:
            campaign_runner.close()
    print()
    print(result.render())
    if campaign_runner is not None and campaign_runner.telemetry.runs:
        print()
        print(campaign_runner.telemetry.summary())
    return 0


def _follow_trace(args: argparse.Namespace) -> int:
    """Tail a growing JSONL trace export (``repro trace --follow``)."""
    follower = TraceFollower(args.follow)
    components = None
    if args.component:
        components = [
            name.strip()
            for entry in args.component
            for name in entry.split(",")
            if name.strip()
        ]
    # Wall-clock by design: --follow observes a file another process
    # is writing, never the simulation itself.
    idle_since = time.monotonic()  # repro-lint: ignore[RPL001]  # live tail
    while True:
        records = follower.poll()
        if records:
            idle_since = time.monotonic()  # repro-lint: ignore[RPL001]  # live tail
            shown = filter_records(
                records, components=components, t0=args.t0, t1=args.t1
            )
            if shown:
                if args.format == "json":
                    for line in iter_jsonl_lines(shown):
                        print(line, flush=True)
                else:
                    print(render_timeline(shown), flush=True)
        elif args.idle_timeout is not None:
            idle = time.monotonic() - idle_since  # repro-lint: ignore[RPL001]  # live tail
            if idle >= args.idle_timeout:
                return 0
        time.sleep(args.poll)


def cmd_trace(args: argparse.Namespace) -> int:
    """Print a sim-time timeline from a traced run or JSONL exports."""
    if args.follow:
        return _follow_trace(args)
    recorder = Recorder()
    if args.input:
        traces = []
        for path in args.input:
            trace, registry = read_jsonl(path)
            traces.append(trace)
            recorder.registry.merge_snapshot(registry.snapshot())
        recorder.trace = merge_traces(*traces)
    else:
        config = _scenario_from(args)
        print(
            f"Tracing {config.label()} ({config.duration:.0f} s simulated)...",
            file=sys.stderr,
        )
        run_session(config, recorder=recorder)
        recorder.trace = merge_traces(recorder.trace)
    components = None
    if args.component:
        components = [
            name.strip()
            for entry in args.component
            for name in entry.split(",")
            if name.strip()
        ]
    records = filter_records(
        recorder.trace, components=components, t0=args.t0, t1=args.t1
    )
    if args.format == "json":
        # One JSONL line per record — byte-compatible with --out files
        # and read_jsonl, so downstream tools (repro diagnose --input,
        # jq pipelines) consume either path identically.
        for line in iter_jsonl_lines(
            records, recorder.registry if args.metrics else None
        ):
            print(line)
    else:
        print(render_timeline(records))
        if args.metrics:
            print()
            print(recorder.registry.render())
    if args.out:
        path = write_jsonl(args.out, recorder)
        print(f"\nwrote {path}", file=sys.stderr)
    return 0


def cmd_diagnose(args: argparse.Namespace) -> int:
    """Detect SLO violations and print ranked root-cause attributions."""
    if args.input:
        traces = []
        for path in args.input:
            trace, _registry = read_jsonl(path)
            traces.append(trace)
        trace = merge_traces(*traces)
    else:
        config = _scenario_from(args)
        print(
            f"Diagnosing {config.label()} "
            f"({config.duration:.0f} s simulated)...",
            file=sys.stderr,
        )
        recorder = Recorder()
        run_session(config, recorder=recorder)
        trace = recorder.trace
    diagnosis = diagnose(
        trace, warmup=args.warmup, lag_horizon=args.lag_horizon
    )
    payload = diagnosis.to_dict()
    if args.format == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(diagnosis.render(args.format))
    if args.json_out:
        errors = validate_diagnosis(payload)
        if errors:
            for error in errors:
                print(f"schema error: {error}", file=sys.stderr)
            return 1
        path = Path(args.json_out)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        print(f"\nwrote {path}", file=sys.stderr)
    return 0


def cmd_profile(args: argparse.Namespace) -> int:
    """Profile one workload and write report + JSON summary."""
    from repro.profiling import profile_callable

    if args.target == "session" and args.fleet > 0:
        from repro.core.fleet import FleetConfig, run_fleet

        fleet_config = FleetConfig(
            base=_scenario_from(args), num_sessions=args.fleet
        )
        workload: Callable[[], object] = lambda: run_fleet(fleet_config)
        label = f"fleet{args.fleet}-{fleet_config.base.label()}"
    elif args.target == "session":
        config = _scenario_from(args)
        workload = lambda: run_session(config)
        label = f"session-{config.label()}"
    elif args.target in FIGURES:
        import repro.experiments as experiments

        runner_name, _ = FIGURES[args.target]
        runner = getattr(experiments, runner_name)
        seeds = tuple(range(1, args.seeds + 1))
        settings = ExperimentSettings(
            duration=args.duration,
            seeds=seeds,
            warmup=min(30.0, args.duration / 4),
        )
        workload = lambda: runner(settings)
        label = f"figure-{args.target}"
    else:
        print(
            f"unknown target {args.target!r}; choices: session, "
            f"{', '.join(sorted(FIGURES))}"
        )
        return 2
    print(f"Profiling {label} (engine: {args.engine})...", file=sys.stderr)
    report = profile_callable(
        workload,
        target=label,
        engine=args.engine,
        top=args.top,
        sort=args.sort,
    )
    text_path, json_path = report.write(args.out)
    print(report.text)
    print(f"wall time: {report.wall_time:.2f} s (engine: {report.engine})")
    print(f"wrote {text_path}")
    print(f"wrote {json_path}")
    return 0


def cmd_fleet(args: argparse.Namespace) -> int:
    """Sweep fleet density and print per-session QoE."""
    from repro.experiments.fleet import run_fleet_density

    config = _scenario_from(args)
    try:
        densities = tuple(
            int(value) for value in args.densities.split(",") if value.strip()
        )
    except ValueError:
        print(f"invalid --densities {args.densities!r} (expect e.g. 1,2,4,8)")
        return 2
    if not densities or any(d < 1 for d in densities):
        print(f"invalid --densities {args.densities!r} (sizes must be >= 1)")
        return 2
    seeds = tuple(range(1, args.seeds + 1))
    settings = ExperimentSettings(
        duration=args.duration, seeds=seeds, warmup=min(30.0, args.duration / 4)
    )
    print(
        f"Fleet density sweep {config.label()} "
        f"(N in {list(densities)}, {settings.duration:.0f} s x "
        f"{len(seeds)} seeds)..."
    )
    with _runner_from(args) as runner:
        result = run_fleet_density(
            config,
            settings,
            densities=densities,
            spread_radius=args.spread_radius,
            obs=args.obs,
            runner=runner,
        )
    print()
    print(result.render())
    if runner.telemetry.runs:
        print()
        print(runner.telemetry.summary())
    return 0


def cmd_watch(args: argparse.Namespace) -> int:
    """Render the live dashboard over a campaign's status file."""
    # The watcher is pure wall-clock territory — it reads a status
    # file some other process refreshes; nothing here touches sim time.
    while True:
        status = read_status(args.status)
        print(render_status(status), flush=True)
        if args.once:
            return 0 if status is not None else 1
        if status is not None and status.get("finished"):
            return 0
        time.sleep(args.interval)


def cmd_list_figures(args: argparse.Namespace) -> int:
    """List the regenerable figures."""
    for name in sorted(FIGURES):
        print(name)
    return 0


def cmd_lint(args: argparse.Namespace) -> int:
    """Run the invariant linter (same engine as ``python -m repro.lint``)."""
    from repro.lint.runner import run_with_args

    return run_with_args(args, args._parser)


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction harness for the IMC'22 remote-piloting "
        "video-delivery study.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_parser = sub.add_parser("run", help="run one measurement flight")
    _add_scenario_arguments(run_parser)
    run_parser.set_defaults(func=cmd_run)

    dataset_parser = sub.add_parser("dataset", help="export a campaign dataset")
    dataset_parser.add_argument("--out", default="dataset")
    dataset_parser.add_argument("--environments", default="urban,rural")
    dataset_parser.add_argument("--methods", default="static,gcc,scream")
    dataset_parser.add_argument("--platform", default="air", choices=["air", "ground"])
    dataset_parser.add_argument("--duration", type=float, default=180.0)
    dataset_parser.add_argument("--seeds", type=int, default=2)
    _add_runner_arguments(dataset_parser)
    dataset_parser.set_defaults(func=cmd_dataset)

    figure_parser = sub.add_parser(
        "figure",
        help="regenerate a paper figure",
        description="Regenerate one of the paper's figures/tables. Campaigns "
        "fan out over --workers processes and reuse cached runs from "
        "--cache-dir; pass --no-cache to force fresh simulations.",
    )
    figure_parser.add_argument("name", help="figure id (see list-figures)")
    figure_parser.add_argument("--duration", type=float, default=150.0)
    figure_parser.add_argument("--seeds", type=int, default=2)
    _add_runner_arguments(figure_parser)
    figure_parser.set_defaults(func=cmd_figure)

    list_parser = sub.add_parser("list-figures", help="list regenerable figures")
    list_parser.set_defaults(func=cmd_list_figures)

    trace_parser = sub.add_parser(
        "trace",
        help="trace one run (or merge JSONL exports) into a timeline",
        description="Fly one instrumented measurement run and print the "
        "merged sim-time timeline of congestion-control, handover and "
        "jitter-buffer records; or, with --input, merge previously "
        "exported JSONL traces instead of simulating.",
    )
    _add_scenario_arguments(trace_parser)
    trace_parser.set_defaults(cc="gcc", duration=60.0)
    trace_parser.add_argument(
        "--input",
        action="append",
        default=[],
        metavar="FILE",
        help="JSONL trace export(s) to merge instead of running a session",
    )
    trace_parser.add_argument(
        "--follow",
        default=None,
        metavar="FILE",
        help="tail a growing JSONL export live, printing records as the "
        "writer appends them (tolerates the in-progress last line)",
    )
    trace_parser.add_argument(
        "--poll",
        type=float,
        default=0.5,
        help="seconds between --follow polls (default 0.5)",
    )
    trace_parser.add_argument(
        "--idle-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="stop --follow after this long without new records "
        "(default: follow forever)",
    )
    trace_parser.add_argument(
        "--out", default=None, metavar="FILE",
        help="also write the merged trace + metrics as JSONL",
    )
    trace_parser.add_argument(
        "--component",
        action="append",
        default=[],
        help="only show these components (repeatable or comma-separated; "
        "e.g. --component gcc,handover)",
    )
    trace_parser.add_argument(
        "--t0", type=float, default=None, help="window start, sim seconds"
    )
    trace_parser.add_argument(
        "--t1", type=float, default=None, help="window end, sim seconds"
    )
    trace_parser.add_argument(
        "--metrics",
        action="store_true",
        help="print the metric registry after the timeline",
    )
    trace_parser.add_argument(
        "--format",
        default="text",
        choices=["text", "json"],
        help="timeline rendering: aligned text table (default) or the "
        "JSONL export format (one record per line)",
    )
    trace_parser.set_defaults(func=cmd_trace)

    diagnose_parser = sub.add_parser(
        "diagnose",
        help="detect SLO violations and attribute their root causes",
        description="Evaluate the paper's remote-piloting SLOs (playback "
        "latency < 300 ms, zero stalls, bitrate, FPS) over a traced run "
        "— or a previously exported JSONL trace — and rank the causally "
        "relevant trace events (handover executions, loss bursts, "
        "capacity dips, CC rate cuts, ...) behind each violation.",
    )
    _add_scenario_arguments(diagnose_parser)
    diagnose_parser.set_defaults(cc="gcc", duration=60.0)
    diagnose_parser.add_argument(
        "--input",
        action="append",
        default=[],
        metavar="FILE",
        help="JSONL trace export(s) to diagnose instead of running a session",
    )
    diagnose_parser.add_argument(
        "--format",
        default="text",
        choices=["text", "markdown", "json"],
        help="report rendering (default text)",
    )
    diagnose_parser.add_argument(
        "--json-out",
        default=None,
        metavar="FILE",
        help="also write the machine-readable diagnosis JSON "
        "(schema-validated) to FILE",
    )
    diagnose_parser.add_argument(
        "--warmup",
        type=float,
        default=5.0,
        help="ignore violations before this sim time (default 5 s)",
    )
    diagnose_parser.add_argument(
        "--lag-horizon",
        type=float,
        default=2.0,
        help="max seconds between a cause ending and a violation "
        "starting (default 2 s)",
    )
    diagnose_parser.set_defaults(func=cmd_diagnose)

    profile_parser = sub.add_parser(
        "profile",
        help="profile a session or figure and write hot-spot reports",
        description="Run one workload under cProfile (or pyinstrument when "
        "installed) and write a ranked text report plus a JSON summary "
        "for CI archiving.",
    )
    profile_parser.add_argument(
        "target",
        nargs="?",
        default="session",
        help="'session' (default) or a figure id (see list-figures)",
    )
    _add_scenario_arguments(profile_parser)
    profile_parser.set_defaults(cc="gcc", duration=60.0)
    profile_parser.add_argument(
        "--seeds", type=int, default=1, help="seeds per figure campaign"
    )
    profile_parser.add_argument(
        "--fleet",
        type=int,
        default=0,
        metavar="N",
        help="profile an N-session shared-cell fleet run instead of a "
        "single session (session target only; runs the vectorized "
        "fleet fast path)",
    )
    profile_parser.add_argument(
        "--engine",
        default="auto",
        choices=["auto", "cprofile", "pyinstrument"],
        help="profiler backend (auto = pyinstrument if installed)",
    )
    profile_parser.add_argument(
        "--sort",
        default="cumulative",
        choices=["cumulative", "tottime"],
        help="ranking for the cProfile report",
    )
    profile_parser.add_argument(
        "--top", type=int, default=30, help="functions to keep in the reports"
    )
    profile_parser.add_argument(
        "--out", default="profiles", help="output directory (default profiles/)"
    )
    profile_parser.set_defaults(func=cmd_profile)

    fleet_parser = sub.add_parser(
        "fleet",
        help="sweep fleet density over shared PRB-contended cells",
        description="Run N concurrent video sessions per fleet on one "
        "shared cell layout (PRB scheduling, admission control, "
        "load-balancing handover offsets) and print per-session QoE "
        "vs. fleet density — the shared-cell contention axis the "
        "paper's single-UAV measurements could not reach.",
    )
    _add_scenario_arguments(fleet_parser)
    fleet_parser.set_defaults(cc="gcc", duration=120.0)
    fleet_parser.add_argument(
        "--densities",
        default="1,2,4,8",
        help="comma-separated fleet sizes to sweep (default 1,2,4,8)",
    )
    fleet_parser.add_argument(
        "--seeds", type=int, default=2, help="fleet runs per density"
    )
    fleet_parser.add_argument(
        "--spread-radius",
        type=float,
        default=50.0,
        help="horizontal ring radius (m) spreading fleet trajectories "
        "(small keeps the fleet on the same cells; default 50)",
    )
    fleet_parser.add_argument(
        "--obs",
        nargs="?",
        const="trace",
        default="off",
        choices=["off", "metrics", "trace"],
        help="observability level: 'metrics' keeps the vectorized fast "
        "path and adds per-member goodput/PRB/SINR histograms; 'trace' "
        "(the bare-flag default) runs fully instrumented and attributes "
        "latency violations to cell congestion",
    )
    _add_runner_arguments(fleet_parser)
    fleet_parser.set_defaults(func=cmd_fleet)

    watch_parser = sub.add_parser(
        "watch",
        help="live dashboard over a running campaign's status file",
        description="Render the live campaign dashboard (progress bar, "
        "per-worker activity, ETA, cache counters, per-cell occupancy) "
        "from the atomic JSON status file another repro process writes "
        "when launched with --status-file. Exits when the campaign "
        "finishes, or immediately with --once.",
    )
    watch_parser.add_argument(
        "--status",
        default="campaign_status.json",
        metavar="FILE",
        help="status file to watch (default campaign_status.json)",
    )
    watch_parser.add_argument(
        "--interval",
        type=float,
        default=1.0,
        help="seconds between refreshes (default 1)",
    )
    watch_parser.add_argument(
        "--once",
        action="store_true",
        help="render one snapshot and exit (exit 1 if no status yet)",
    )
    watch_parser.set_defaults(func=cmd_watch)

    lint_parser = sub.add_parser(
        "lint",
        help="check repo invariants (determinism, units, trace schema, "
        "RNG streams)",
        description="Whole-program invariant linter; exits 1 on findings, "
        "3 on internal analysis errors. Suppress a deliberate violation "
        "with '# repro-lint: ignore[RULE]  # reason'.",
    )
    from repro.lint.runner import add_lint_arguments

    add_lint_arguments(lint_parser)
    lint_parser.set_defaults(func=cmd_lint, _parser=lint_parser)
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
