"""Tests for the campaign runner: pool fan-out, cache, telemetry."""

import pytest

from repro.core.config import ScenarioConfig
from repro.experiments import (
    ExperimentSettings,
    run_channel_probe,
    run_matrix,
    run_ping_probe,
)
from repro.obs import ObsLevel
from repro.runner import (
    WORK_CHANNEL_PROBE,
    WORK_PING_PROBE,
    WORK_SESSION,
    CampaignRunner,
    ResultCache,
    WorkUnit,
    execute_unit,
)
from repro.runner.cache import MISS
from repro.runner.work import make_unit

QUICK = ExperimentSettings(duration=12.0, seeds=(1, 2), warmup=2.0)
CONFIGS = [
    ScenarioConfig(cc="static", environment="urban"),
    ScenarioConfig(cc="static", environment="rural"),
]


def _headline(result):
    return (
        result.config.label(),
        result.packets_sent,
        result.frames_decoded,
        len(result.packet_log),
        len(result.playback),
        result.packets_lost_radio,
        result.packets_dropped_buffer,
    )


class TestWorkUnit:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            WorkUnit(kind="bogus", config=ScenarioConfig())

    def test_fingerprint_covers_config_fields(self):
        unit = make_unit(WORK_SESSION, ScenarioConfig(seed=7, duration=42.0))
        fp = unit.fingerprint()
        assert fp["config"]["seed"] == 7
        assert fp["config"]["duration"] == 42.0
        assert fp["kind"] == WORK_SESSION

    def test_params_canonically_sorted(self):
        a = make_unit(WORK_PING_PROBE, ScenarioConfig(), rate_hz=5.0, ping_bytes=92)
        b = make_unit(WORK_PING_PROBE, ScenarioConfig(), ping_bytes=92, rate_hz=5.0)
        assert a == b

    def test_execute_dispatches_probe_kinds(self):
        config = ScenarioConfig(cc="static", duration=5.0, seed=1)
        probe = execute_unit(make_unit(WORK_CHANNEL_PROBE, config))
        assert len(probe.uplink_samples) > 0
        pings = execute_unit(
            make_unit(WORK_PING_PROBE, config, rate_hz=5.0, ping_bytes=92)
        )
        assert len(pings) > 0


class TestCacheKeys:
    def test_stable_across_instances(self, tmp_path):
        cache = ResultCache(tmp_path)
        a = make_unit(WORK_SESSION, ScenarioConfig(seed=3, duration=20.0))
        b = make_unit(WORK_SESSION, ScenarioConfig(seed=3, duration=20.0))
        assert cache.key(a) == cache.key(b)

    def test_sensitive_to_seed_duration_kind_and_extra(self, tmp_path):
        cache = ResultCache(tmp_path)
        base = make_unit(WORK_SESSION, ScenarioConfig(seed=3, duration=20.0))
        keys = {
            cache.key(base),
            cache.key(make_unit(WORK_SESSION, ScenarioConfig(seed=4, duration=20.0))),
            cache.key(make_unit(WORK_SESSION, ScenarioConfig(seed=3, duration=21.0))),
            cache.key(
                make_unit(WORK_CHANNEL_PROBE, ScenarioConfig(seed=3, duration=20.0))
            ),
            cache.key(
                make_unit(
                    WORK_SESSION,
                    ScenarioConfig(seed=3, duration=20.0, extra={"a3": (2.0, 0.1)}),
                )
            ),
        }
        assert len(keys) == 5

    def test_every_spelling_of_an_obs_tier_gives_one_key(self, tmp_path):
        from repro.experiments.fleet import fleet_unit

        cache = ResultCache(tmp_path)
        config = ScenarioConfig(seed=3, duration=20.0)
        spellings = {
            "off": [{}, {"obs": None}, {"obs": False}, {"obs": "off"},
                    {"obs": ObsLevel.OFF}],
            "metrics": [{"obs": "metrics"}, {"obs": "METRICS"},
                        {"obs": ObsLevel.METRICS}],
            "trace": [{"obs": True}, {"obs": "trace"}, {"obs": ObsLevel.TRACE}],
        }
        for build in (
            lambda **obs: make_unit(WORK_SESSION, config, **obs),
            lambda **obs: fleet_unit(config, num_sessions=2, **obs),
        ):
            keys = {
                tier: {cache.key(build(**params)) for params in variants}
                for tier, variants in spellings.items()
            }
            assert all(len(tier_keys) == 1 for tier_keys in keys.values())
            assert len(set.union(*keys.values())) == 3

    def test_roundtrip_and_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        unit = make_unit(WORK_SESSION, ScenarioConfig(seed=1))
        assert cache.get(unit) is MISS
        cache.put(unit, {"payload": [1, 2, 3]})
        assert cache.get(unit) == {"payload": [1, 2, 3]}

    def test_corrupt_entry_degrades_to_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        unit = make_unit(WORK_SESSION, ScenarioConfig(seed=1))
        cache.put(unit, "ok")
        path = cache._path(cache.key(unit))
        path.write_bytes(b"not a pickle")
        with pytest.warns(RuntimeWarning, match=f"{path.name}.*UnpicklingError"):
            assert cache.get(unit) is MISS
        assert not path.exists()

    def test_clear_and_stats(self, tmp_path):
        cache = ResultCache(tmp_path)
        for seed in (1, 2, 3):
            cache.put(make_unit(WORK_SESSION, ScenarioConfig(seed=seed)), seed)
        stats = cache.stats()
        assert stats["entries"] == 3 and stats["bytes"] > 0
        assert cache.clear() == 3
        assert cache.stats()["entries"] == 0


class TestParallelEqualsSerial:
    def test_run_matrix_workers(self):
        serial = run_matrix(CONFIGS, QUICK, workers=1)
        parallel = run_matrix(CONFIGS, QUICK, workers=4)
        assert list(serial.keys()) == list(parallel.keys())
        for label in serial:
            assert [_headline(r) for r in serial[label]] == [
                _headline(r) for r in parallel[label]
            ]

    def test_channel_probe_workers(self):
        serial = run_channel_probe(CONFIGS[0], QUICK, workers=1)
        parallel = run_channel_probe(CONFIGS[0], QUICK, workers=4)
        assert serial.label == parallel.label
        assert len(serial.handovers) == len(parallel.handovers)
        assert serial.uplink_samples == parallel.uplink_samples
        assert serial.cells_seen == parallel.cells_seen
        assert serial.ping_pong == parallel.ping_pong

    def test_ping_probe_workers(self):
        serial = run_ping_probe(CONFIGS[0], QUICK, rate_hz=5.0, workers=1)
        parallel = run_ping_probe(CONFIGS[0], QUICK, rate_hz=5.0, workers=4)
        assert [(s.time, s.rtt, s.altitude) for s in serial] == [
            (s.time, s.rtt, s.altitude) for s in parallel
        ]


class TestCacheBehaviour:
    def test_warm_cache_skips_all_executions(self, tmp_path, monkeypatch):
        cache = ResultCache(tmp_path)
        cold = CampaignRunner(1, cache=cache)
        first = run_matrix(CONFIGS, QUICK, runner=cold)
        expected_units = len(CONFIGS) * len(QUICK.seeds)
        assert cold.telemetry.executed == expected_units
        assert cold.telemetry.cache_misses == expected_units
        assert cold.telemetry.cache_hits == 0

        # A warm campaign must perform zero run_session executions.
        import repro.runner.work as work_module

        def _boom(config):
            raise AssertionError("run_session called despite warm cache")

        monkeypatch.setattr(work_module, "run_session", _boom)
        warm = CampaignRunner(1, cache=cache)
        second = run_matrix(CONFIGS, QUICK, runner=warm)
        assert warm.telemetry.cache_hits == expected_units
        assert warm.telemetry.executed == 0
        assert list(first.keys()) == list(second.keys())
        for label in first:
            assert [_headline(r) for r in first[label]] == [
                _headline(r) for r in second[label]
            ]

    def test_partial_cache_executes_only_missing_seeds(self, tmp_path):
        cache = ResultCache(tmp_path)
        narrow = ExperimentSettings(duration=12.0, seeds=(1,), warmup=2.0)
        run_matrix(CONFIGS, narrow, runner=CampaignRunner(1, cache=cache))
        wide = CampaignRunner(1, cache=cache)
        run_matrix(CONFIGS, QUICK, runner=wide)
        assert wide.telemetry.cache_hits == len(CONFIGS)  # seed 1 reused
        assert wide.telemetry.executed == len(CONFIGS)  # seed 2 fresh

    def test_no_cache_means_no_files(self, tmp_path):
        runner = CampaignRunner(1, cache=None)
        run_channel_probe(CONFIGS[0], QUICK, runner=runner)
        assert runner.telemetry.cache_hits == 0
        assert runner.telemetry.cache_misses == len(QUICK.seeds)


class TestTelemetryAndProgress:
    def test_records_per_unit(self):
        runner = CampaignRunner(1)
        run_channel_probe(CONFIGS[0], QUICK, runner=runner)
        assert len(runner.telemetry.runs) == len(QUICK.seeds)
        for record in runner.telemetry.runs:
            assert record.wall_end >= record.wall_start
            assert record.sim_duration == QUICK.duration
            assert record.sim_wall_ratio > 0
            assert record.worker == "main"
            assert record.unit.startswith("channel-probe:")
        assert "2 units" in runner.telemetry.summary()

    def test_progress_callback_invoked(self):
        seen = []
        runner = CampaignRunner(
            1, progress=lambda done, total, rec: seen.append((done, total))
        )
        run_channel_probe(CONFIGS[0], QUICK, runner=runner)
        assert seen == [(1, 2), (2, 2)]

    def test_pool_workers_stamped(self):
        runner = CampaignRunner(2)
        run_ping_probe(CONFIGS[0], QUICK, rate_hz=5.0, runner=runner)
        workers = {record.worker for record in runner.telemetry.runs}
        assert all(w.startswith("worker-") for w in workers)

    def test_invalid_worker_count_rejected(self):
        with pytest.raises(ValueError):
            CampaignRunner(0)


# ----------------------------------------------------------------------
# seed-sweep batching (PR 8): planner + batched engine + resume
# ----------------------------------------------------------------------
from repro.runner import plan_batches  # noqa: E402
from repro.runner.work import WORK_FLEET  # noqa: E402

BATCH_SETTINGS = ExperimentSettings(duration=20.0, seeds=(0, 1, 2, 3, 4, 5), warmup=2.0)


def _probe_units(config, settings):
    return [
        make_unit(
            WORK_CHANNEL_PROBE,
            config.with_overrides(seed=seed, duration=settings.duration),
        )
        for seed in settings.seeds
    ]


class TestBatchPlanner:
    def test_groups_by_scenario_modulo_seed(self):
        units = _probe_units(CONFIGS[0], QUICK) + _probe_units(CONFIGS[1], QUICK)
        plans, scalar = plan_batches(list(enumerate(units)))
        assert scalar == []
        assert len(plans) == 2  # one sweep per scenario
        assert sorted(i for p in plans for i in p.indices) == list(range(len(units)))
        for plan in plans:
            environments = {u.config.environment for u in plan.units}
            assert len(environments) == 1

    def test_non_batchable_kinds_stay_scalar(self):
        config = ScenarioConfig(cc="static", duration=5.0)
        units = [
            make_unit(WORK_PING_PROBE, config.with_overrides(seed=s), rate_hz=5.0)
            for s in (1, 2)
        ] + [
            make_unit(WORK_SESSION, config.with_overrides(seed=s), obs=True)
            for s in (1, 2)
        ]
        plans, scalar = plan_batches(list(enumerate(units)))
        assert plans == []
        assert [i for i, _ in scalar] == list(range(len(units)))

    def test_fleet_units_batch_unless_instrumented(self):
        # Density sweeps plan their fleet units into per-worker
        # batches (executed whole, with per-unit cache fan-back);
        # instrumented fleets keep the scalar path like instrumented
        # sessions do.
        config = ScenarioConfig(cc="static", duration=5.0)
        units = [
            make_unit(WORK_FLEET, config.with_overrides(seed=s), num_sessions=2)
            for s in (1, 2, 3)
        ]
        plans, scalar = plan_batches(list(enumerate(units)))
        assert scalar == []
        assert len(plans) == 1 and plans[0].indices == (0, 1, 2)
        traced = [
            make_unit(
                WORK_FLEET, config.with_overrides(seed=s), num_sessions=2,
                obs=True,
            )
            for s in (1, 2)
        ]
        plans, scalar = plan_batches(list(enumerate(traced)))
        assert plans == []
        assert [i for i, _ in scalar] == [0, 1]

    def test_singleton_and_duplicate_seeds_stay_scalar(self):
        config = ScenarioConfig(cc="static", duration=5.0)
        lone = [make_unit(WORK_SESSION, config.with_overrides(seed=1))]
        plans, scalar = plan_batches(list(enumerate(lone)))
        assert plans == [] and len(scalar) == 1
        dupes = [
            make_unit(WORK_SESSION, config.with_overrides(seed=s))
            for s in (1, 2, 1)
        ]
        plans, scalar = plan_batches(list(enumerate(dupes)))
        assert len(plans) == 1 and plans[0].indices == (0, 1)
        assert [i for i, _ in scalar] == [2]

    def test_worker_chunking_splits_large_sweeps(self):
        units = _probe_units(CONFIGS[0], BATCH_SETTINGS)
        plans, scalar = plan_batches(list(enumerate(units)), workers=3)
        assert scalar == []
        assert len(plans) == 3
        assert all(len(p.units) == 2 for p in plans)


class TestBatchedCampaign:
    def test_batched_probe_matches_scalar_runner(self):
        scalar = run_channel_probe(
            CONFIGS[0], BATCH_SETTINGS, runner=CampaignRunner(1)
        )
        runner = CampaignRunner(1, batch=True)
        batched = run_channel_probe(CONFIGS[0], BATCH_SETTINGS, runner=runner)
        assert batched.uplink_samples == scalar.uplink_samples
        assert batched.altitudes == scalar.altitudes
        assert len(batched.handovers) == len(scalar.handovers)
        assert batched.ping_pong == scalar.ping_pong
        # per-unit telemetry survives batching
        assert runner.telemetry.executed == len(BATCH_SETTINGS.seeds)
        assert len(runner.telemetry.runs) == len(BATCH_SETTINGS.seeds)
        assert all(
            r.worker == f"main/batch{len(BATCH_SETTINGS.seeds)}"
            for r in runner.telemetry.runs
        )

    def test_interrupted_campaign_resumes_incrementally(self, tmp_path):
        """Interrupt after K of N units; the re-run executes only N-K
        and the merged result equals an uninterrupted campaign."""
        expected = run_channel_probe(
            CONFIGS[0], BATCH_SETTINGS, runner=CampaignRunner(1, batch=True)
        )
        total = len(BATCH_SETTINGS.seeds)
        interrupt_after = 2
        cache = ResultCache(tmp_path)

        class Interrupted(RuntimeError):
            pass

        def _abort(done, _total, _record):
            if done >= interrupt_after:
                raise Interrupted

        first = CampaignRunner(1, cache=cache, progress=_abort, batch=True)
        with pytest.raises(Interrupted):
            run_channel_probe(CONFIGS[0], BATCH_SETTINGS, runner=first)
        assert cache.stats()["entries"] == interrupt_after

        resumed = CampaignRunner(1, cache=cache, batch=True)
        merged = run_channel_probe(CONFIGS[0], BATCH_SETTINGS, runner=resumed)
        assert resumed.telemetry.cache_hits == interrupt_after
        assert resumed.telemetry.executed == total - interrupt_after
        assert merged.uplink_samples == expected.uplink_samples
        assert merged.altitudes == expected.altitudes
        assert len(merged.handovers) == len(expected.handovers)
        assert merged.ping_pong == expected.ping_pong


class TestMetricsLevelBatching:
    """Metrics-tier obs must keep the batch planner engaged (PR 10)."""

    def test_metrics_sessions_and_fleets_still_batch(self):
        from repro.runner.batch import batch_key

        config = ScenarioConfig(cc="static", duration=5.0)
        for kind, extra in (
            (WORK_SESSION, {}),
            (WORK_FLEET, {"num_sessions": 2}),
        ):
            units = [
                make_unit(
                    kind, config.with_overrides(seed=s),
                    obs="metrics", **extra,
                )
                for s in (1, 2, 3)
            ]
            assert all(batch_key(u) is not None for u in units)
            plans, scalar = plan_batches(list(enumerate(units)))
            assert scalar == []
            assert len(plans) == 1 and plans[0].indices == (0, 1, 2)

    def test_obs_tiers_never_share_a_group(self):
        from repro.runner.batch import batch_key

        config = ScenarioConfig(cc="static", duration=5.0)
        dark = make_unit(WORK_SESSION, config.with_overrides(seed=1))
        metered = make_unit(
            WORK_SESSION, config.with_overrides(seed=2), obs="metrics"
        )
        assert batch_key(dark) != batch_key(metered)

    def test_batched_metrics_fleet_campaign_carries_the_plane(self):
        settings = ExperimentSettings(duration=8.0, seeds=(1, 2), warmup=2.0)
        from repro.experiments.fleet import fleet_unit

        units = [
            fleet_unit(
                CONFIGS[0].with_overrides(seed=seed, duration=settings.duration),
                num_sessions=2,
                obs="metrics",
            )
            for seed in settings.seeds
        ]
        with CampaignRunner(1, batch=True) as runner:
            results = runner.run(units)
        assert runner.telemetry.executed == len(units)
        for result in results:
            plane = [
                r for r in result.extra["metrics"]
                if r["name"] == "fleet/ticks"
            ]
            assert len(plane) == 2  # one per member
            assert "obs_overhead" not in result.extra
        # The campaign-side registry merged every fleet's plane.
        assert runner.metrics.get("fleet/ticks", member=0).value > 0


class TestTelemetryExport:
    def test_to_dict_roundtrips_every_run(self):
        runner = CampaignRunner(1)
        run_channel_probe(CONFIGS[0], QUICK, runner=runner)
        payload = runner.telemetry.to_dict()
        assert payload["executed"] == len(QUICK.seeds)
        assert payload["cache_hits"] == 0
        assert len(payload["runs"]) == len(QUICK.seeds)
        for entry in payload["runs"]:
            assert entry["unit"].startswith("channel-probe:")
            assert entry["wall_time"] >= 0.0
            assert entry["cache_hit"] is False
        assert payload["summary"] == runner.telemetry.summary()

    def test_write_json_is_valid_and_atomic(self, tmp_path):
        import json as json_module

        runner = CampaignRunner(1)
        run_channel_probe(CONFIGS[0], QUICK, runner=runner)
        path = tmp_path / "telemetry.json"
        runner.telemetry.write_json(path)
        loaded = json_module.loads(path.read_text())
        assert loaded == runner.telemetry.to_dict()
        assert not list(tmp_path.glob("*.tmp*"))


class TestCampaignStatusFile:
    def test_runner_maintains_the_status_file(self, tmp_path):
        from repro.obs import read_status

        path = tmp_path / "status.json"
        runner = CampaignRunner(1, status_path=str(path), status_interval=0.0)
        try:
            run_channel_probe(CONFIGS[0], QUICK, runner=runner)
        finally:
            runner.close()
        status = read_status(str(path))
        assert status["finished"] is True
        assert status["done"] == status["total"] == len(QUICK.seeds)
        assert status["executed"] == len(QUICK.seeds)
        assert status["workers"]  # per-worker activity recorded

    def test_fleet_campaign_status_reports_cell_occupancy(self, tmp_path):
        from repro.experiments.fleet import fleet_unit
        from repro.obs import read_status

        path = tmp_path / "status.json"
        settings = ExperimentSettings(duration=8.0, seeds=(1,), warmup=2.0)
        unit = fleet_unit(
            CONFIGS[0].with_overrides(seed=1, duration=settings.duration),
            num_sessions=2,
        )
        runner = CampaignRunner(1, status_path=str(path), status_interval=0.0)
        try:
            runner.run([unit])
        finally:
            runner.close()
        status = read_status(str(path))
        assert status["finished"] is True
        assert status["cells"]  # harvested from the fleet result
        for entry in status["cells"].values():
            assert entry["peak"] >= entry["last"] >= 0


# ----------------------------------------------------------------------
# SessionResult's column-wise pickle form across the cache and the pool
# ----------------------------------------------------------------------
import copyreg  # noqa: E402
import io  # noqa: E402
import pickle  # noqa: E402

from repro.core.fingerprint import digest, session_fingerprint  # noqa: E402
from repro.core.receiver import PacketLogEntry  # noqa: E402
from repro.core.session import SessionResult, run_session  # noqa: E402

CODEC_CONFIG = ScenarioConfig(cc="gcc", environment="urban", duration=8.0, seed=2)


def _pickle_with(reducer, obj) -> bytes:
    """Pickle ``obj`` with ``reducer`` overriding SessionResult's form."""

    class Pickler(pickle.Pickler):
        def reducer_override(self, value):
            if type(value) is SessionResult:
                return reducer(value)
            return NotImplemented

    buffer = io.BytesIO()
    Pickler(buffer, protocol=pickle.HIGHEST_PROTOCOL).dump(obj)
    return buffer.getvalue()


def _object_form(result):
    """The per-object form caches held before the column encoding."""
    return copyreg.__newobj__, (type(result),), vars(result)


def _permuted_packet_fields(result):
    """Column form whose packet-log field names are out of date."""
    rebuild, (cls, names, values, logs) = result.__reduce__()
    log_cls, log_names, columns = logs["packet_log"]
    logs = {**logs, "packet_log": (log_cls, log_names[::-1], columns[::-1])}
    return rebuild, (cls, names, values, logs)


class TestCachedSessionEncoding:
    @pytest.fixture(scope="class")
    def session(self):
        return run_session(CODEC_CONFIG)

    def test_object_form_entries_still_load(self, tmp_path, session):
        cache = ResultCache(tmp_path)
        unit = make_unit(WORK_SESSION, CODEC_CONFIG)
        path = cache._path(cache.key(unit))
        path.parent.mkdir(parents=True)
        path.write_bytes(_pickle_with(_object_form, session))
        loaded = cache.get(unit)
        assert repr(loaded) == repr(session)
        assert digest(session_fingerprint(loaded)) == digest(
            session_fingerprint(session)
        )

    def test_cache_read_builds_no_packet_records(self, tmp_path, session, monkeypatch):
        """A cached session's packet log loads as typed buffers: the read
        builds no :class:`PacketLogEntry` (a load that rebuilds records
        builds one per packet)."""
        cache = ResultCache(tmp_path)
        unit = make_unit(WORK_SESSION, CODEC_CONFIG)
        cache.put(unit, session)
        built = []
        original = PacketLogEntry.__init__

        def counting_init(self, *args, **kwargs):
            built.append(1)
            original(self, *args, **kwargs)

        monkeypatch.setattr(PacketLogEntry, "__init__", counting_init)
        loaded = cache.get(unit)
        assert len(loaded.packet_log) == len(session.packet_log) > 0
        assert built == []

    def test_stale_field_names_evict_with_a_warning(self, tmp_path, session):
        cache = ResultCache(tmp_path)
        unit = make_unit(WORK_SESSION, CODEC_CONFIG)
        path = cache._path(cache.key(unit))
        path.parent.mkdir(parents=True)
        path.write_bytes(_pickle_with(_permuted_packet_fields, session))
        with pytest.warns(RuntimeWarning, match=f"{path.name}.*ValueError.*stale"):
            assert cache.get(unit) is MISS
        assert not path.exists()

    def test_pool_handback_matches_in_process_batch(self):
        configs = [
            CODEC_CONFIG.with_overrides(cc="scream", duration=5.0, seed=seed)
            for seed in (1, 2, 3, 4)
        ]
        units = [make_unit(WORK_SESSION, config) for config in configs]
        serial = CampaignRunner(1, batch=True).run(units)
        with CampaignRunner(2, batch=True) as pooled:
            parallel = pooled.run(units)
        # Two 2-seed batches ran in pool workers and came back pickled.
        assert all(
            r.worker.startswith("worker-") and r.worker.endswith("/batch2")
            for r in pooled.telemetry.runs
        )
        assert [digest(session_fingerprint(r)) for r in parallel] == [
            digest(session_fingerprint(r)) for r in serial
        ]
        assert [repr(r) for r in parallel] == [repr(r) for r in serial]
