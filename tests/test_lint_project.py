"""Tests for the whole-program lint engine and rules RPL007-010.

Fixture projects are plain ``{path: source}`` dicts fed straight to
:func:`build_project` / :func:`lint_project` — no disk needed — with
paths under ``src/repro/`` so callee keys resolve like real project
modules.
"""

from __future__ import annotations

import json
import warnings
from pathlib import Path

import pytest

from repro.lint import (
    Baseline,
    FactsCache,
    Finding,
    build_project,
    lint_project,
    render_json,
    render_sarif,
)
from repro.lint.crossrules import render_trace_schema, run_cross_rules
from repro.lint.project import content_hash, module_name_for
from repro.lint.runner import run_cli

REPO_ROOT = Path(__file__).resolve().parent.parent

# The whole-program analysis scope (mirrors DEFAULT_PATHS).
REPO_TARGETS = ["src", "tools", "examples", "benchmarks"]


def cross_ids(sources: dict[str, str]) -> list[str]:
    index, errors = build_project(sources)
    assert errors == []
    return sorted(f.rule_id for f in run_cross_rules(index))


def repo_sources() -> dict[str, str]:
    from repro.lint.runner import iter_python_files

    targets = [REPO_ROOT / name for name in REPO_TARGETS]
    return {
        str(path): path.read_text(encoding="utf-8")
        for path in iter_python_files([t for t in targets if t.exists()])
    }


# ----------------------------------------------------------------------
# engine: module naming, symbol table, call resolution
# ----------------------------------------------------------------------
class TestEngine:
    def test_module_name_for(self):
        assert module_name_for("src/repro/net/path.py") == "repro.net.path"
        assert module_name_for("src/repro/obs/__init__.py") == "repro.obs"
        assert module_name_for("tools/cc_bench.py") == "tools.cc_bench"
        assert (
            module_name_for("benchmarks/test_fig4_handover.py")
            == "benchmarks.test_fig4_handover"
        )

    def test_symbol_table_and_call_graph(self):
        sources = {
            "src/repro/fake_api.py": (
                "class Channel:\n"
                "    def __init__(self, capacity_bps):\n"
                "        self.capacity_bps = capacity_bps\n"
                "    def send(self, size_bytes):\n"
                "        return size_bytes\n"
                "\n"
                "def helper(duration_s):\n"
                "    return duration_s\n"
            ),
            "src/repro/fake_use.py": (
                "from repro.fake_api import Channel, helper\n"
                "\n"
                "def go(rate_bps, wait_s):\n"
                "    chan = Channel(rate_bps)\n"
                "    helper(wait_s)\n"
            ),
        }
        index, errors = build_project(sources)
        assert errors == []
        # Methods keyed module.Class.method; constructor aliased to the
        # bare class key so Channel(...) call sites resolve.
        assert "repro.fake_api.Channel.send" in index.symbols
        assert index.symbols["repro.fake_api.Channel"]["params"] == [
            "capacity_bps"
        ]
        assert index.symbols["repro.fake_api.helper"]["params"] == [
            "duration_s"
        ]
        callees = {
            call["callee"]
            for facts in index.files.values()
            for call in facts["calls"]
        }
        assert callees == {"repro.fake_api.Channel", "repro.fake_api.helper"}
        assert index.defined_in["repro.fake_api.helper"] == (
            "src/repro/fake_api.py"
        )

    def test_nested_defs_stay_out_of_symbol_table(self):
        sources = {
            "src/repro/fake_nest.py": (
                "def outer():\n"
                "    def helper(delay_ms):\n"
                "        return delay_ms\n"
                "    return helper\n"
            ),
        }
        index, _ = build_project(sources)
        assert "repro.fake_nest.outer" in index.symbols
        assert "repro.fake_nest.helper" not in index.symbols

    def test_return_unit_inference(self):
        sources = {
            "src/repro/fake_ret.py": (
                "def window_s():\n"
                "    return 1.5\n"
                "\n"
                "def forwarded():\n"
                "    return window_s()\n"
            ),
        }
        index, _ = build_project(sources)
        # Name suffix wins for window_s; forwarded() follows the chain.
        assert index.return_unit("repro.fake_ret.window_s") == "time:s"
        assert index.return_unit("repro.fake_ret.forwarded") == "time:s"

    def test_syntax_error_reported_not_fatal(self):
        sources = {
            "src/repro/fake_bad.py": "def broken(:\n",
            "src/repro/fake_ok.py": "x = 1\n",
        }
        index, errors = build_project(sources)
        assert [path for path, _exc in errors] == ["src/repro/fake_bad.py"]
        assert "src/repro/fake_ok.py" in index.files


# ----------------------------------------------------------------------
# engine: content-hash cache
# ----------------------------------------------------------------------
class TestFactsCache:
    def test_hit_and_invalidation_on_content_change(self, tmp_path):
        sources = {"src/repro/fake_c.py": "def f(delay_ms):\n    return 1\n"}
        cache = FactsCache(tmp_path)
        build_project(sources, cache=cache)
        assert (cache.hits, cache.misses) == (0, 1)
        cache.save(sources)

        warm = FactsCache(tmp_path)
        build_project(sources, cache=warm)
        assert (warm.hits, warm.misses) == (1, 0)

        edited = {"src/repro/fake_c.py": "def f(delay_ms):\n    return 2\n"}
        cold = FactsCache(tmp_path)
        build_project(edited, cache=cold)
        assert (cold.hits, cold.misses) == (0, 1)

    def test_save_prunes_to_linted_set(self, tmp_path):
        cache = FactsCache(tmp_path)
        cache.put("a.py", content_hash("x = 1\n"), {"facts": None})
        cache.put("b.py", content_hash("y = 2\n"), {"facts": None})
        cache.save(["a.py"])
        reloaded = FactsCache(tmp_path)
        assert reloaded.get("a.py", content_hash("x = 1\n")) is not None
        assert reloaded.get("b.py", content_hash("y = 2\n")) is None

    def test_corrupt_cache_degrades_to_empty(self, tmp_path):
        target = tmp_path / "lint" / "facts.json"
        target.parent.mkdir(parents=True)
        target.write_text("{not json", encoding="utf-8")
        cache = FactsCache(tmp_path)
        assert cache.get("a.py", "sha") is None

    def test_lint_project_warm_run_skips_analysis(self, tmp_path):
        sources = {
            "src/repro/fake_w.py": "import random\nrandom.random()\n",
        }
        cold = FactsCache(tmp_path)
        findings, summary = lint_project(sources=sources, cache=cold)
        cold.save(sources)
        assert [f.rule_id for f in findings] == ["RPL001"]
        assert summary["cache_misses"] == 1

        warm = FactsCache(tmp_path)
        findings2, summary2 = lint_project(sources=sources, cache=warm)
        assert summary2 == {"files": 1, "cache_hits": 1, "cache_misses": 0}
        assert findings2 == findings  # cached findings round-trip intact


# ----------------------------------------------------------------------
# RPL007 — unit-dimension inference
# ----------------------------------------------------------------------
class TestUnitDimensions:
    API = "def send(timeout_s):\n    return timeout_s\n"

    def test_cross_file_ms_into_s_parameter_fires(self):
        sources = {
            "src/repro/fake_api.py": self.API,
            "src/repro/fake_use.py": (
                "from repro.fake_api import send\n"
                "\n"
                "def go(delay_ms):\n"
                "    send(delay_ms)\n"
            ),
        }
        assert cross_ids(sources) == ["RPL007"]

    def test_matching_unit_is_silent(self):
        sources = {
            "src/repro/fake_api.py": self.API,
            "src/repro/fake_use.py": (
                "from repro.fake_api import send\n"
                "\n"
                "def go(delay_s):\n"
                "    send(delay_s)\n"
            ),
        }
        assert cross_ids(sources) == []

    def test_bits_into_bytes_positional_fires(self):
        sources = {
            "src/repro/fake_api.py": (
                "def enqueue(size_bytes=0):\n    return size_bytes\n"
            ),
            "src/repro/fake_use.py": (
                "from repro.fake_api import enqueue\n"
                "\n"
                "def go(frame_bits):\n"
                "    enqueue(frame_bits)\n"
            ),
        }
        assert cross_ids(sources) == ["RPL007"]

    def test_keyword_same_family_flow_deferred_to_rpl002(self):
        # f(size_bytes=frame_bits) is visible per-file from the keyword
        # name alone; RPL002 owns it and RPL007 must not double-report.
        sources = {
            "src/repro/fake_api.py": (
                "def enqueue(size_bytes=0):\n    return size_bytes\n"
            ),
            "src/repro/fake_use.py": (
                "from repro.fake_api import enqueue\n"
                "\n"
                "def go(frame_bits):\n"
                "    enqueue(size_bytes=frame_bits)\n"
            ),
        }
        assert cross_ids(sources) == []
        findings, _ = lint_project(sources=sources)
        assert [f.rule_id for f in findings] == ["RPL002"]

    def test_dimensionless_return_into_suffixed_slot_fires(self):
        sources = {
            "src/repro/fake_api.py": self.API,
            "src/repro/fake_use.py": (
                "from repro.fake_api import send\n"
                "\n"
                "def frame_budget():\n"
                "    return 33\n"
                "\n"
                "def go():\n"
                "    send(frame_budget())\n"
            ),
        }
        assert cross_ids(sources) == ["RPL007"]

    def test_suffixed_return_assigned_to_other_unit_fires(self):
        sources = {
            "src/repro/fake_api.py": (
                "def window_s():\n    return 1.5\n"
            ),
            "src/repro/fake_use.py": (
                "from repro.fake_api import window_s\n"
                "\n"
                "def go():\n"
                "    limit_ms = window_s()\n"
                "    return limit_ms\n"
            ),
        }
        assert cross_ids(sources) == ["RPL007"]

    def test_arithmetic_mixing_units_fires(self):
        sources = {
            "src/repro/fake_mix.py": (
                "def go(owd_ms, window_s):\n"
                "    return owd_ms + window_s\n"
            ),
        }
        assert cross_ids(sources) == ["RPL007"]

    def test_division_does_not_leak_return_unit(self):
        # bits / seconds is a rate, not bits: the real
        # to_mbps(bytes_to_bits(x) / duration) pattern must stay silent.
        units_src = (REPO_ROOT / "src/repro/util/units.py").read_text(
            encoding="utf-8"
        )
        sources = {
            "src/repro/util/units.py": units_src,
            "src/repro/fake_good.py": (
                "from repro.util.units import bytes_to_bits, to_mbps\n"
                "\n"
                "def goodput(total_bytes, duration):\n"
                "    return to_mbps(bytes_to_bits(total_bytes) / duration)\n"
            ),
        }
        assert cross_ids(sources) == []

    def test_units_helper_misuse_fires(self):
        units_src = (REPO_ROOT / "src/repro/util/units.py").read_text(
            encoding="utf-8"
        )
        sources = {
            "src/repro/util/units.py": units_src,
            "src/repro/fake_bad.py": (
                "from repro.util.units import to_ms\n"
                "\n"
                "def go(owd_ms):\n"
                "    return to_ms(owd_ms)\n"  # to_ms expects seconds
            ),
        }
        assert cross_ids(sources) == ["RPL007"]


# ----------------------------------------------------------------------
# RPL008 — trace-schema contracts
# ----------------------------------------------------------------------
EMITTER = (
    "class Sender:\n"
    "    def __init__(self, obs):\n"
    "        self.obs = obs\n"
    "    def run(self):\n"
    "        if self.obs.enabled:\n"
    "            self.obs.event(\"sender.tick\")\n"
)

CONSUMER = (
    "def scan(records):\n"
    "    return [r for r in records if r.name == \"sender.tick\"]\n"
)


def schema_module(trace: list[str], metric: list[str] | None = None) -> str:
    trace_body = "".join(f'    "{n}",\n' for n in trace)
    metric_body = "".join(f'    "{n}",\n' for n in metric or [])
    return (
        f"TRACE_NAMES = frozenset({{\n{trace_body}}})\n"
        f"METRIC_NAMES = frozenset({{\n{metric_body}}})\n"
    )


FOLD_EMITTER = (
    "class Sender:\n"
    "    def __init__(self, obs):\n"
    "        self.obs = obs\n"
    "        self.sent = 0\n"
    "        self.owd_ms = []\n"
    "    def stop(self):\n"
    "        if self.obs.enabled:\n"
    "            self.obs.count(\"x/sent\", self.sent)\n"
    "            self.obs.observe_many(\"y/owd_ms\", self.owd_ms)\n"
)


class TestTraceSchema:
    def test_registered_emit_and_matching_consumer_silent(self):
        sources = {
            "src/repro/fake_send.py": EMITTER,
            "src/repro/obs/fake_detect.py": CONSUMER,
            "src/repro/obs/schema.py": schema_module(["sender.tick"]),
        }
        assert cross_ids(sources) == []

    def test_unregistered_emit_fires(self):
        sources = {
            "src/repro/fake_send.py": EMITTER,
            "src/repro/obs/schema.py": schema_module(["sender.other"]),
        }
        # Two findings: the unregistered emit and the stale registry
        # entry for the name nothing emits.
        assert cross_ids(sources) == ["RPL008", "RPL008"]

    def test_consumer_of_never_emitted_name_fires(self):
        sources = {
            "src/repro/obs/fake_detect.py": CONSUMER,  # nothing emits
        }
        ids = cross_ids(sources)
        assert ids == ["RPL008"]

    def test_consumer_outside_repro_obs_is_not_checked(self):
        sources = {
            "src/repro/fake_tool.py": CONSUMER,  # ad-hoc analysis code
        }
        assert cross_ids(sources) == []

    def test_detector_constructor_counts_as_emit(self):
        sources = {
            "src/repro/fake_det.py": (
                "from repro.obs.detect import EwmaZScore\n"
                "\n"
                "def build(obs):\n"
                "    return EwmaZScore(obs, \"receiver.owd\", alpha=0.1)\n"
            ),
            "src/repro/obs/fake_use.py": (
                "def scan(records):\n"
                "    return [r for r in records"
                " if r.name == \"receiver.owd\"]\n"
            ),
        }
        assert cross_ids(sources) == []

    def test_bound_instrument_accessors_count_as_metric_emits(self):
        # Teardown folds (count + observe_many) are metric emits.
        sources = {
            "src/repro/fake_fold.py": FOLD_EMITTER,
            "src/repro/obs/schema.py": schema_module([], ["x/sent", "y/owd_ms"]),
        }
        index, _ = build_project(sources)
        emits = index.files["src/repro/fake_fold.py"]["emits"]
        assert sorted((e["name"], e["kind"], e["via"]) for e in emits) == [
            ("x/sent", "metric", "count"),
            ("y/owd_ms", "metric", "observe_many"),
        ]
        # Registered: silent, including the column argument.
        assert cross_ids(sources) == []

    def test_unregistered_bound_instrument_fires(self):
        sources = {
            "src/repro/fake_fold.py": FOLD_EMITTER,
            "src/repro/obs/schema.py": schema_module([], ["x/sent"]),
        }
        index, _ = build_project(sources)
        messages = [
            f.message for f in run_cross_rules(index) if f.rule_id == "RPL008"
        ]
        assert len(messages) == 1
        assert "unregistered metric name 'y/owd_ms'" in messages[0]

    def test_stale_entry_fires_when_last_bound_emitter_is_removed(self):
        sources = {
            "src/repro/fake_fold.py": FOLD_EMITTER.replace(
                "            self.obs.observe_many(\"y/owd_ms\", self.owd_ms)\n",
                "",
            ),
            "src/repro/obs/schema.py": schema_module([], ["x/sent", "y/owd_ms"]),
        }
        index, _ = build_project(sources)
        messages = [
            f.message for f in run_cross_rules(index) if f.rule_id == "RPL008"
        ]
        assert len(messages) == 1
        assert "'y/owd_ms' is no longer emitted" in messages[0]

    def test_seeded_typo_in_live_tree_is_caught(self):
        """Acceptance: cell.congestion -> cell.congested trips RPL008."""
        sources = repo_sources()
        channel = str(REPO_ROOT / "src/repro/cellular/channel.py")
        assert '"cell.congestion"' in sources[channel]
        sources[channel] = sources[channel].replace(
            '"cell.congestion"', '"cell.congested"'
        )
        index, _ = build_project(sources, root=REPO_ROOT)
        findings = [
            f for f in run_cross_rules(index) if f.rule_id == "RPL008"
        ]
        messages = "\n".join(f.message for f in findings)
        assert "cell.congested" in messages  # unregistered emit
        assert "cell.congestion" in messages  # orphaned consumer + stale

    def test_render_trace_schema_round_trips(self):
        sources = {"src/repro/fake_send.py": EMITTER}
        index, _ = build_project(sources)
        rendered = render_trace_schema(index)
        assert '"sender.tick"' in rendered
        sources["src/repro/obs/schema.py"] = rendered
        assert cross_ids(sources) == []


# ----------------------------------------------------------------------
# RPL009 — RNG stream aliasing
# ----------------------------------------------------------------------
class TestRngStreams:
    def test_duplicate_derive_in_one_scope_fires(self):
        sources = {
            "src/repro/fake_rng.py": (
                "def build(streams):\n"
                "    a = streams.derive(\"jitter\")\n"
                "    b = streams.derive(\"jitter\")\n"
                "    return a, b\n"
            ),
        }
        assert cross_ids(sources) == ["RPL009"]

    def test_distinct_labels_silent(self):
        sources = {
            "src/repro/fake_rng.py": (
                "def build(streams):\n"
                "    a = streams.derive(\"jitter\")\n"
                "    b = streams.derive(\"loss\")\n"
                "    return a, b\n"
            ),
        }
        assert cross_ids(sources) == []

    def test_cross_file_label_collision_fires(self):
        sources = {
            "src/repro/fake_callee.py": (
                "def setup(streams):\n"
                "    return streams.derive(\"jitter\")\n"
            ),
            "src/repro/fake_caller.py": (
                "from repro.fake_callee import setup\n"
                "\n"
                "def build(streams):\n"
                "    local = streams.derive(\"jitter\")\n"
                "    other = setup(streams)\n"
                "    return local, other\n"
            ),
        }
        assert cross_ids(sources) == ["RPL009"]

    def test_cross_file_distinct_labels_silent(self):
        sources = {
            "src/repro/fake_callee.py": (
                "def setup(streams):\n"
                "    return streams.derive(\"loss\")\n"
            ),
            "src/repro/fake_caller.py": (
                "from repro.fake_callee import setup\n"
                "\n"
                "def build(streams):\n"
                "    local = streams.derive(\"jitter\")\n"
                "    other = setup(streams)\n"
                "    return local, other\n"
            ),
        }
        assert cross_ids(sources) == []

    def test_module_scope_derive_fires(self):
        sources = {
            "src/repro/fake_mod.py": (
                "from repro.util.rng import RngStreams\n"
                "\n"
                "streams = RngStreams(1)\n"
                "gen = streams.derive(\"ambient\")\n"
            ),
        }
        assert cross_ids(sources) == ["RPL009"]

    def test_generator_shared_between_components_fires(self):
        sources = {
            "src/repro/fake_share.py": (
                "def build(streams, uplink, downlink):\n"
                "    gen = streams.derive(\"noise\")\n"
                "    uplink.attach(gen)\n"
                "    downlink.attach(gen)\n"
            ),
        }
        assert cross_ids(sources) == ["RPL009"]

    def test_generator_used_once_silent(self):
        sources = {
            "src/repro/fake_share.py": (
                "def build(streams, uplink):\n"
                "    gen = streams.derive(\"noise\")\n"
                "    uplink.attach(gen)\n"
            ),
        }
        assert cross_ids(sources) == []


# ----------------------------------------------------------------------
# RPL010 — sim-time/wall-time taint
# ----------------------------------------------------------------------
class TestWallTaint:
    def test_wall_clock_into_schedule_fires(self):
        sources = {
            "src/repro/fake_taint.py": (
                "import time\n"
                "\n"
                "class S:\n"
                "    def __init__(self, loop):\n"
                "        self.loop = loop\n"
                "    def go(self):\n"
                "        t = time.time()\n"
                "        self.loop.call_at(t, self.go)\n"
            ),
        }
        index, _ = build_project(sources)
        ids = [f.rule_id for f in run_cross_rules(index)]
        assert ids == ["RPL010"]

    def test_sim_clock_into_schedule_silent(self):
        sources = {
            "src/repro/fake_taint.py": (
                "class S:\n"
                "    def __init__(self, loop):\n"
                "        self.loop = loop\n"
                "    def go(self):\n"
                "        self.loop.call_at(self.loop.now + 1.0, self.go)\n"
            ),
        }
        assert cross_ids(sources) == []

    def test_wall_derived_return_into_trace_timestamp_fires(self):
        sources = {
            "src/repro/fake_clock.py": (
                "import time\n"
                "\n"
                "def stamp():\n"
                "    return time.time()\n"
            ),
            "src/repro/fake_emit.py": (
                "from repro.fake_clock import stamp\n"
                "\n"
                "def emit(obs):\n"
                "    obs.event(\"x.y\", t=stamp())\n"
            ),
        }
        index, _ = build_project(sources)
        findings = [
            f for f in run_cross_rules(index) if f.rule_id == "RPL010"
        ]
        assert len(findings) == 1
        assert findings[0].path == "src/repro/fake_emit.py"

    def test_wall_clock_into_bound_instrument_fires(self):
        # The column of an observe_many fold is a metric value sink.
        sources = {
            "src/repro/fake_taint.py": (
                "import time\n"
                "\n"
                "class S:\n"
                "    def __init__(self, obs):\n"
                "        self.obs = obs\n"
                "        self.ticks = 0\n"
                "    def stop(self, sent_at):\n"
                "        self.obs.count(\"x/ticks\", self.ticks)\n"
                "        self.obs.observe_many(\"x/lag_ms\", time.time() - sent_at)\n"
            ),
        }
        index, _ = build_project(sources)
        findings = [
            f for f in run_cross_rules(index) if f.rule_id == "RPL010"
        ]
        assert [f.line for f in findings] == [9]

    def test_wall_taint_survives_arithmetic(self):
        sources = {
            "src/repro/fake_taint.py": (
                "import time\n"
                "\n"
                "def emit(obs, t0):\n"
                "    elapsed = time.perf_counter() - t0\n"
                "    obs.gauge(\"x/elapsed\", elapsed * 1000)\n"
            ),
        }
        index, _ = build_project(sources)
        ids = [f.rule_id for f in run_cross_rules(index)]
        assert ids == ["RPL010"]


# ----------------------------------------------------------------------
# pragmas on cross-module findings
# ----------------------------------------------------------------------
class TestCrossPragmas:
    def test_pragma_on_any_line_of_multiline_call(self):
        source = (
            "import time\n"
            "\n"
            "class S:\n"
            "    def __init__(self, loop):\n"
            "        self.loop = loop\n"
            "    def go(self):\n"
            "        t = time.time()  # repro-lint: ignore[RPL001]\n"
            "        self.loop.call_at(\n"
            "            t,  # repro-lint: ignore[RPL010]  # wall replay\n"
            "            self.go,\n"
            "        )\n"
        )
        findings, _ = lint_project(
            sources={"src/repro/fake_p.py": source}
        )
        assert findings == []

    def test_unpragmad_multiline_call_still_fires(self):
        source = (
            "import time\n"
            "\n"
            "class S:\n"
            "    def __init__(self, loop):\n"
            "        self.loop = loop\n"
            "    def go(self):\n"
            "        t = time.time()  # repro-lint: ignore[RPL001]\n"
            "        self.loop.call_at(\n"
            "            t,\n"
            "            self.go,\n"
            "        )\n"
        )
        findings, _ = lint_project(
            sources={"src/repro/fake_p.py": source}
        )
        assert [f.rule_id for f in findings] == ["RPL010"]

    def test_skip_file_suppresses_findings_but_keeps_facts(self):
        # A skipped emitter must still register its trace names, or the
        # consumer in repro.obs would be misreported as orphaned.
        sources = {
            "src/repro/fake_send.py": (
                "# repro-lint: skip-file\n" + EMITTER
            ),
            "src/repro/obs/fake_detect.py": CONSUMER,
        }
        findings, _ = lint_project(sources=sources)
        assert findings == []


# ----------------------------------------------------------------------
# output formats + baseline
# ----------------------------------------------------------------------
class TestOutput:
    FINDING = Finding(
        path="src/x.py", line=3, col=1, rule_id="RPL007",
        message="mixed units", end_line=5,
    )

    def test_render_json_schema(self):
        payload = json.loads(render_json([self.FINDING], {"files": 1}))
        assert payload["version"] == 1
        assert payload["findings"] == [
            {
                "path": "src/x.py", "line": 3, "col": 1, "end_line": 5,
                "rule": "RPL007", "message": "mixed units",
            }
        ]

    def test_render_sarif_schema(self):
        log = json.loads(
            render_sarif([self.FINDING], [("RPL007", "units", "desc")])
        )
        assert log["version"] == "2.1.0"
        run = log["runs"][0]
        assert run["tool"]["driver"]["rules"][0]["id"] == "RPL007"
        result = run["results"][0]
        assert result["ruleId"] == "RPL007"
        region = result["locations"][0]["physicalLocation"]["region"]
        assert (region["startLine"], region["endLine"]) == (3, 5)

    def test_baseline_round_trip_and_new_findings(self, tmp_path):
        baseline_file = tmp_path / "baseline.json"
        Baseline.from_findings([self.FINDING]).save(baseline_file)
        loaded = Baseline.load(baseline_file)
        assert loaded.new_findings([self.FINDING]) == []
        other = Finding(
            path="src/y.py", line=1, col=1, rule_id="RPL008",
            message="orphan",
        )
        assert loaded.new_findings([self.FINDING, other]) == [other]

    def test_baseline_multiplicity(self, tmp_path):
        baseline_file = tmp_path / "baseline.json"
        Baseline.from_findings([self.FINDING]).save(baseline_file)
        # Two identical findings, one baselined: one is new.
        doubled = [self.FINDING, self.FINDING]
        assert Baseline.load(baseline_file).new_findings(doubled) == [
            self.FINDING
        ]

    def test_missing_baseline_is_empty(self, tmp_path):
        loaded = Baseline.load(tmp_path / "absent.json")
        assert loaded.new_findings([self.FINDING]) == [self.FINDING]

    def test_end_line_never_precedes_line(self):
        finding = Finding(
            path="a.py", line=9, col=1, rule_id="RPL007", message="m"
        )
        assert finding.end_line == 9


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
@pytest.fixture()
def fixture_tree(tmp_path, monkeypatch):
    """A tiny self-contained lintable tree, cwd switched into it."""
    monkeypatch.chdir(tmp_path)
    src = tmp_path / "src" / "repro"
    src.mkdir(parents=True)
    (src / "api.py").write_text(
        "def send(timeout_s):\n    return timeout_s\n", encoding="utf-8"
    )
    (src / "use.py").write_text(
        "from repro.api import send\n"
        "\n"
        "def go(delay_ms):\n"
        "    send(delay_ms)\n",
        encoding="utf-8",
    )
    return tmp_path


class TestCli:
    def test_text_format_and_exit_code(self, fixture_tree, capsys):
        assert run_cli(["src"]) == 1
        out = capsys.readouterr().out
        assert "RPL007" in out and "finding(s)" in out

    def test_json_format(self, fixture_tree, capsys):
        assert run_cli(["src", "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert [f["rule"] for f in payload["findings"]] == ["RPL007"]

    def test_sarif_format(self, fixture_tree, capsys):
        assert run_cli(["src", "--format", "sarif"]) == 1
        log = json.loads(capsys.readouterr().out)
        assert [r["ruleId"] for r in log["runs"][0]["results"]] == [
            "RPL007"
        ]

    def test_select_filters_cross_rules(self, fixture_tree, capsys):
        assert run_cli(["src", "--select", "RPL010"]) == 0
        capsys.readouterr()

    def test_baseline_write_then_check(self, fixture_tree, capsys):
        assert run_cli(["src", "--baseline", "write"]) == 0
        assert run_cli(["src", "--baseline", "check"]) == 0
        capsys.readouterr()

    def test_baseline_check_fails_on_new_finding(self, fixture_tree, capsys):
        assert run_cli(["src", "--baseline", "write"]) == 0
        extra = fixture_tree / "src" / "repro" / "extra.py"
        extra.write_text(
            "import random\nrandom.random()\n", encoding="utf-8"
        )
        assert run_cli(["src", "--baseline", "check"]) == 1
        out = capsys.readouterr().out
        assert "RPL001" in out and "RPL007" not in out

    def test_changed_filters_reported_files(
        self, fixture_tree, capsys, monkeypatch
    ):
        import repro.lint.runner as runner_module

        monkeypatch.setattr(
            runner_module,
            "changed_files",
            lambda base="HEAD": {"src/repro/api.py"},
        )
        # The finding is in use.py, which did not change.
        assert run_cli(["src", "--changed"]) == 0
        capsys.readouterr()

    def test_max_seconds_budget_exceeded(self, fixture_tree, capsys):
        assert run_cli(["src", "--select", "RPL010", "--max-seconds", "0"]) == 3
        assert "exceeded" in capsys.readouterr().out

    def test_internal_error_exits_3(self, fixture_tree, capsys, monkeypatch):
        import repro.lint.runner as runner_module

        def boom(**kwargs):
            raise RuntimeError("engine exploded")

        monkeypatch.setattr(runner_module, "lint_project", boom)
        assert run_cli(["src"]) == 3
        assert "internal error" in capsys.readouterr().out

    def test_write_trace_schema(self, fixture_tree, capsys):
        obs = fixture_tree / "src" / "repro" / "obs"
        obs.mkdir()
        (fixture_tree / "src" / "repro" / "emit.py").write_text(
            EMITTER, encoding="utf-8"
        )
        assert run_cli(["src", "--write-trace-schema"]) == 0
        schema = (obs / "schema.py").read_text(encoding="utf-8")
        assert '"sender.tick"' in schema
        capsys.readouterr()

    def test_cache_reused_across_invocations(self, fixture_tree, capsys):
        run_cli(["src", "--select", "RPL010"])
        capsys.readouterr()
        assert run_cli(["src", "--select", "RPL010", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"]["cache_misses"] == 0
        assert payload["summary"]["cache_hits"] == 2

    def test_repro_cli_lint_subcommand(self, fixture_tree, capsys):
        from repro.cli import main

        assert main(["lint", "src", "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert [f["rule"] for f in payload["findings"]] == ["RPL007"]


# ----------------------------------------------------------------------
# runtime schema warnings (Recorder debug mode)
# ----------------------------------------------------------------------
class TestRecorderSchemaWarnings:
    def test_unregistered_name_warns_once(self):
        from repro.obs.recorder import Recorder

        recorder = Recorder(warn_unregistered=True)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            recorder.event("gcc.overuse")  # registered: silent
            recorder.event("gcc.oversue")  # typo: warns
            recorder.event("gcc.oversue")  # repeat: silent
            recorder.count("gcc/overuse_events")  # registered metric
        assert len(caught) == 1
        assert "gcc.oversue" in str(caught[0].message)

    def test_bound_instrument_warns_once_at_resolution(self):
        from repro.obs.recorder import Recorder

        recorder = Recorder(warn_unregistered=True)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            recorder.observe_many("receiver/owd_ms", [1.0])  # registered
            recorder.observe_many("receiver/packtes", [1.0, 2.0])  # warns
            recorder.observe_many("receiver/packtes", [3.0])  # repeat: silent
        assert len(caught) == 1
        assert "receiver/packtes" in str(caught[0].message)
        assert caught[0].filename == __file__

    def test_default_mode_never_warns(self):
        from repro.obs.recorder import Recorder

        recorder = Recorder()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            recorder.event("totally.unknown")
        assert caught == []


# ----------------------------------------------------------------------
# live-repo gates and regressions
# ----------------------------------------------------------------------
class TestRepoGates:
    def test_repo_is_clean_whole_program(self):
        """The shipped tree passes RPL001-010 with an empty baseline."""
        findings, _ = lint_project(
            sources=repo_sources(), root=REPO_ROOT
        )
        assert findings == [], "\n".join(f.render() for f in findings)

    def test_checked_in_baseline_is_empty(self):
        payload = json.loads(
            (REPO_ROOT / "lint-baseline.json").read_text(encoding="utf-8")
        )
        assert payload["findings"] == []

    def test_trace_schema_is_fresh(self):
        """src/repro/obs/schema.py matches the current emit sites."""
        index, errors = build_project(repo_sources(), root=REPO_ROOT)
        assert errors == []
        expected = render_trace_schema(index)
        current = (REPO_ROOT / "src/repro/obs/schema.py").read_text(
            encoding="utf-8"
        )
        assert current == expected, (
            "schema registry is stale; run "
            "'python -m repro.lint --write-trace-schema'"
        )

    def test_cc_bench_import_is_side_effect_free(self):
        """Regression (RPL009): importing tools/cc_bench.py must not
        run a simulation or derive RNG streams at module scope."""
        import importlib.util

        spec = importlib.util.spec_from_file_location(
            "cc_bench_under_test", REPO_ROOT / "tools" / "cc_bench.py"
        )
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)  # fast: defs only
        assert callable(module.main)
