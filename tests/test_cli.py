"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import FIGURES, build_parser, main


class TestParser:
    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.cc == "static"
        assert args.environment == "urban"

    def test_run_overrides(self):
        args = build_parser().parse_args(
            ["run", "--cc", "scream", "--environment", "rural", "--seed", "9"]
        )
        assert args.cc == "scream" and args.seed == 9

    def test_invalid_cc_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--cc", "bogus"])

    def test_figure_requires_name(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure"])

    def test_command_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestCommands:
    def test_list_figures(self, capsys):
        assert main(["list-figures"]) == 0
        out = capsys.readouterr().out
        for name in FIGURES:
            assert name in out

    def test_unknown_figure_errors(self, capsys):
        assert main(["figure", "fig99"]) == 2
        assert "unknown figure" in capsys.readouterr().out

    def test_run_prints_summary(self, capsys):
        code = main(["run", "--duration", "15", "--seed", "3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "goodput" in out
        assert "playback latency" in out

    def test_dataset_exports(self, capsys, tmp_path):
        code = main(
            [
                "dataset",
                "--out", str(tmp_path / "ds"),
                "--environments", "urban",
                "--methods", "static",
                "--duration", "10",
                "--seeds", "1",
            ]
        )
        assert code == 0
        assert (tmp_path / "ds" / "static-urban-air-P1-s1" / "meta.json").exists()

    def test_every_figure_name_resolves(self):
        import repro.experiments as experiments

        for runner_name, _ in FIGURES.values():
            assert hasattr(experiments, runner_name), runner_name


class TestRunnerFlags:
    def test_defaults(self):
        args = build_parser().parse_args(["figure", "fig6"])
        assert args.workers == 1
        assert args.no_cache is False
        assert args.cache_dir == ".repro-cache"

    def test_overrides(self):
        args = build_parser().parse_args(
            ["dataset", "--workers", "4", "--no-cache", "--cache-dir", "/tmp/c"]
        )
        assert args.workers == 4
        assert args.no_cache is True
        assert args.cache_dir == "/tmp/c"

    def test_help_mentions_workers_and_cache(self, capsys):
        import pytest as _pytest

        with _pytest.raises(SystemExit):
            build_parser().parse_args(["figure", "--help"])
        out = capsys.readouterr().out
        assert "--workers" in out
        assert "--no-cache" in out

    def test_dataset_uses_cache_dir(self, capsys, tmp_path):
        argv = [
            "dataset",
            "--out", str(tmp_path / "ds"),
            "--environments", "urban",
            "--methods", "static",
            "--duration", "10",
            "--seeds", "1",
            "--cache-dir", str(tmp_path / "cache"),
        ]
        assert main(argv) == 0
        assert "0 cached, 1 executed" in capsys.readouterr().out
        # Second invocation is served entirely from the cache.
        assert main(argv) == 0
        assert "1 cached, 0 executed" in capsys.readouterr().out

    def test_figure_accepts_runner_flags(self, capsys, tmp_path):
        code = main(
            [
                "figure", "fig13",
                "--duration", "40",
                "--seeds", "1",
                "--cache-dir", str(tmp_path / "cache"),
            ]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "Fig 13" in captured.out
        assert "executed" in captured.out
        assert "ignoring" not in captured.err

    def test_runnerless_figure_names_the_flags_it_ignores(self, capsys):
        code = main(
            ["figure", "per", "--duration", "5", "--seeds", "1", "--workers", "2"]
        )
        assert code == 0
        err = capsys.readouterr().err
        assert "figure per runs without the campaign runner" in err
        assert "ignoring --workers" in err
        assert "--cache-dir" not in err


class TestProfile:
    def test_defaults_target_headline_session(self):
        args = build_parser().parse_args(["profile"])
        assert args.target == "session"
        assert args.cc == "gcc"
        assert args.duration == 60.0
        assert args.engine == "auto"
        assert args.sort == "cumulative"
        assert args.out == "profiles"

    def test_invalid_engine_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["profile", "--engine", "perf"])

    def test_session_profile_writes_report(self, capsys, tmp_path):
        code = main(
            [
                "profile",
                "--duration", "5",
                "--seed", "2",
                "--engine", "cprofile",
                "--top", "10",
                "--out", str(tmp_path / "prof"),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "wall time" in out
        written = sorted(p.name for p in (tmp_path / "prof").iterdir())
        assert written == [
            "session-gcc-urban-air-P1-s2.json",
            "session-gcc-urban-air-P1-s2.txt",
        ]

    def test_profile_json_summary_schema(self, tmp_path):
        import json

        assert main(
            [
                "profile",
                "--duration", "5",
                "--engine", "cprofile",
                "--out", str(tmp_path),
            ]
        ) == 0
        (json_path,) = tmp_path.glob("*.json")
        summary = json.loads(json_path.read_text())
        assert summary["schema"] == 1
        assert summary["engine"] == "cprofile"
        assert summary["wall_time_s"] > 0
        rows = summary["top"]
        assert 0 < len(rows) <= 30
        assert {"function", "file", "line", "calls", "tottime_s", "cumtime_s"} <= set(
            rows[0]
        )

    def test_unknown_profile_target_errors(self, capsys):
        assert main(["profile", "fig99"]) == 2
        assert "unknown" in capsys.readouterr().out

    def test_fleet_profile_writes_report(self, capsys, tmp_path):
        code = main(
            [
                "profile",
                "--fleet", "2",
                "--cc", "static",
                "--duration", "5",
                "--seed", "3",
                "--engine", "cprofile",
                "--out", str(tmp_path / "prof"),
            ]
        )
        assert code == 0
        assert "wall time" in capsys.readouterr().out
        written = sorted(p.name for p in (tmp_path / "prof").iterdir())
        assert written == [
            "fleet2-static-urban-air-P1-s3.json",
            "fleet2-static-urban-air-P1-s3.txt",
        ]


class TestTrace:
    def test_defaults_target_gcc_minute(self):
        args = build_parser().parse_args(["trace"])
        assert args.cc == "gcc"
        assert args.duration == 60.0
        assert args.component == [] and args.input == []

    def test_traced_run_prints_timeline(self, capsys):
        code = main(["trace", "--duration", "20", "--seed", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "t (s)" in out
        assert "component" in out

    def test_component_and_window_filters(self, capsys):
        code = main(
            [
                "trace", "--duration", "20", "--seed", "1",
                "--component", "gcc,handover",
                "--t0", "5", "--t1", "15",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        for line in out.splitlines()[2:]:
            if "·" in line or "▶" in line:
                assert " gcc " in line or " handover " in line

    def test_metrics_flag_prints_registry(self, capsys):
        code = main(["trace", "--duration", "20", "--seed", "1", "--metrics"])
        assert code == 0
        out = capsys.readouterr().out
        assert "sender/packets_sent" in out

    def test_export_then_merge_inputs(self, capsys, tmp_path):
        first = tmp_path / "s1.jsonl"
        second = tmp_path / "s2.jsonl"
        assert main(
            ["trace", "--duration", "15", "--seed", "1", "--out", str(first)]
        ) == 0
        assert main(
            ["trace", "--duration", "15", "--seed", "2", "--out", str(second)]
        ) == 0
        capsys.readouterr()
        code = main(
            ["trace", "--input", str(first), "--input", str(second), "--metrics"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "t (s)" in out
        # Metrics from both runs merged: counters sum across inputs.
        assert "sender/packets_sent" in out

    def test_json_format_emits_jsonl_records(self, capsys):
        code = main(
            ["trace", "--duration", "15", "--seed", "1", "--format", "json"]
        )
        assert code == 0
        out = capsys.readouterr().out
        records = [json.loads(line) for line in out.splitlines()]
        assert records, "expected at least one JSONL record"
        assert {record["type"] for record in records} <= {"event", "span"}
        assert any(record["name"] == "session.config" for record in records)

    def test_json_format_with_metrics_appends_metric_lines(self, capsys):
        code = main(
            [
                "trace", "--duration", "15", "--seed", "1",
                "--format", "json", "--metrics",
            ]
        )
        assert code == 0
        types = [
            json.loads(line)["type"]
            for line in capsys.readouterr().out.splitlines()
        ]
        assert "metric" in types
        # Trace records come first, the metric snapshot last.
        assert types.index("metric") > types.count("metric") - 1

    def test_json_format_matches_out_file(self, capsys, tmp_path):
        out_file = tmp_path / "run.jsonl"
        code = main(
            [
                "trace", "--duration", "15", "--seed", "1",
                "--format", "json", "--metrics", "--out", str(out_file),
            ]
        )
        assert code == 0
        printed = capsys.readouterr().out
        assert printed == out_file.read_text()


class TestDiagnose:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["diagnose"])
        assert args.cc == "gcc"
        assert args.duration == 60.0
        assert args.format == "text"
        assert args.warmup == 5.0
        assert args.lag_horizon == 2.0

    def test_acceptance_handover_ranked_first(self, capsys):
        """The issue's end-to-end criterion: a seeded GCC session whose
        playback-latency violation is attributed to handover, straight
        from the CLI."""
        code = main(["diagnose", "--cc", "gcc", "--duration", "60", "--seed", "1"])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        violation_index = next(
            i for i, line in enumerate(lines)
            if "playback_latency:" in line
        )
        # The line right below the violation is its top-ranked cause.
        top_cause = lines[violation_index + 1]
        assert top_cause.startswith("    ")
        assert "handover" in top_cause

    def test_json_output_validates(self, capsys, tmp_path):
        json_out = tmp_path / "diagnosis.json"
        code = main(
            [
                "diagnose", "--duration", "20", "--seed", "2",
                "--format", "json", "--json-out", str(json_out),
            ]
        )
        assert code == 0
        from repro.obs import validate_diagnosis

        printed = json.loads(capsys.readouterr().out)
        assert validate_diagnosis(printed) == []
        assert json.loads(json_out.read_text()) == printed

    def test_markdown_format(self, capsys):
        code = main(
            ["diagnose", "--duration", "20", "--seed", "2", "--format", "markdown"]
        )
        assert code == 0
        assert "| SLO | signal |" in capsys.readouterr().out

    def test_input_roundtrip_from_trace_export(self, capsys, tmp_path):
        trace_file = tmp_path / "run.jsonl"
        assert main(
            [
                "trace", "--cc", "gcc", "--duration", "20", "--seed", "2",
                "--out", str(trace_file),
            ]
        ) == 0
        capsys.readouterr()
        live = main(
            ["diagnose", "--duration", "20", "--seed", "2", "--format", "json"]
        )
        assert live == 0
        live_payload = json.loads(capsys.readouterr().out)
        assert main(
            ["diagnose", "--input", str(trace_file), "--format", "json"]
        ) == 0
        replayed = json.loads(capsys.readouterr().out)
        assert replayed == live_payload


class TestObsLevelFlags:
    def test_fleet_obs_defaults_off(self):
        args = build_parser().parse_args(["fleet"])
        assert args.obs == "off"

    def test_fleet_bare_obs_flag_means_trace(self):
        args = build_parser().parse_args(["fleet", "--obs"])
        assert args.obs == "trace"

    def test_fleet_obs_accepts_metrics(self):
        args = build_parser().parse_args(["fleet", "--obs", "metrics"])
        assert args.obs == "metrics"

    def test_fleet_obs_rejects_unknown_level(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fleet", "--obs", "loud"])

    def test_status_file_flags_parse(self):
        args = build_parser().parse_args(
            ["dataset", "--status-file", "s.json", "--status-interval", "0.5"]
        )
        assert args.status_file == "s.json"
        assert args.status_interval == 0.5
        assert build_parser().parse_args(["dataset"]).status_file is None


class TestWatch:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["watch"])
        assert args.status == "campaign_status.json"
        assert args.interval == 1.0
        assert args.once is False

    def test_once_without_status_exits_nonzero(self, capsys, tmp_path):
        code = main(
            ["watch", "--status", str(tmp_path / "absent.json"), "--once"]
        )
        assert code == 1
        assert "no campaign status" in capsys.readouterr().out

    def test_once_renders_a_written_status(self, capsys, tmp_path):
        from repro.obs import CampaignStatusWriter

        path = tmp_path / "status.json"
        writer = CampaignStatusWriter(str(path), interval=0.0, workers=2)
        writer.begin(4)

        class _Record:
            worker, unit, wall_time, cache_hit = "w0", "probe:s1", 2.0, False

        writer.note(_Record(), 1, 4)
        assert main(["watch", "--status", str(path), "--once"]) == 0
        out = capsys.readouterr().out
        assert "1/4 units" in out
        assert "probe:s1" in out

    def test_watch_exits_when_campaign_finishes(self, capsys, tmp_path):
        from repro.obs import CampaignStatusWriter

        path = tmp_path / "status.json"
        writer = CampaignStatusWriter(str(path), interval=0.0)
        writer.begin(1)
        writer.finish()
        # Not --once: the loop sees finished=True and returns.
        assert main(["watch", "--status", str(path), "--interval", "0.01"]) == 0
        assert "done" in capsys.readouterr().out


class TestTraceFollow:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["trace"])
        assert args.follow is None
        assert args.poll == 0.5
        assert args.idle_timeout is None

    def test_follow_prints_records_until_idle(self, capsys, tmp_path):
        path = tmp_path / "live.jsonl"
        path.write_text(
            '{"type": "event", "name": "gcc.overuse", "t": 1.0}\n'
            '{"type": "event", "name": "jitter.gap", "t": 2.0}\n'
            '{"type": "event", "name": "loss.bu'  # in-progress tail
        )
        code = main(
            [
                "trace", "--follow", str(path),
                "--poll", "0.01", "--idle-timeout", "0.05",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "gcc.overuse" in out and "jitter.gap" in out
        assert "loss.bu" not in out  # partial tail withheld

    def test_follow_applies_component_filter(self, capsys, tmp_path):
        path = tmp_path / "live.jsonl"
        path.write_text(
            '{"type": "event", "name": "gcc.overuse", "t": 1.0}\n'
            '{"type": "event", "name": "jitter.gap", "t": 2.0}\n'
        )
        code = main(
            [
                "trace", "--follow", str(path), "--component", "gcc",
                "--poll", "0.01", "--idle-timeout", "0.05",
                "--format", "json",
            ]
        )
        assert code == 0
        records = [
            json.loads(line) for line in capsys.readouterr().out.splitlines()
        ]
        assert [record["name"] for record in records] == ["gcc.overuse"]


class TestFleetObsEndToEnd:
    def test_metrics_fleet_sweep_with_status_file(self, capsys, tmp_path):
        status = tmp_path / "status.json"
        code = main(
            [
                "fleet",
                "--cc", "static",
                "--densities", "1,2",
                "--seeds", "1",
                "--duration", "10",
                "--obs", "metrics",
                "--no-cache",
                "--status-file", str(status),
                "--status-interval", "0",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Per-session QoE" in out
        # metrics level: no diagnosis layer, so no attribution column values
        assert status.exists()
        payload = json.loads(status.read_text())
        assert payload["finished"] is True
        assert payload["done"] == payload["total"] == 2
        # The dashboard renders that same file.
        assert main(["watch", "--status", str(status), "--once"]) == 0
        assert "2/2 units" in capsys.readouterr().out
