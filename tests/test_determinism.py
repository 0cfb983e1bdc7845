"""Results are pure functions of their unit.

Two runs of one (config, seed, obs tier) must pickle to the same bytes
at every tier, so no host timing or other run-dependent value rides in
a result, and a cache hit must serve exactly what a fresh run returns.
"""

import pickle

import pytest

from repro.core.config import ScenarioConfig
from repro.core.fleet import FleetConfig, run_fleet
from repro.core.session import run_session
from repro.experiments.fleet import fleet_unit
from repro.runner import WORK_SESSION, CampaignRunner, ResultCache, execute_unit
from repro.runner.work import make_unit

SESSION = ScenarioConfig(
    environment="rural", platform="air", cc="scream", duration=5.0, seed=3
)
FLEET = FleetConfig(base=SESSION, num_sessions=3, trace_members=(1,))

UNITS = {
    "session-metrics": make_unit(WORK_SESSION, SESSION, obs="metrics"),
    "session-trace": make_unit(WORK_SESSION, SESSION, obs="trace"),
    "fleet-metrics-sampled": fleet_unit(
        SESSION, num_sessions=3, obs="metrics", trace_members=(1,)
    ),
}


@pytest.mark.parametrize("obs", ["metrics", "trace"])
def test_two_session_runs_pickle_identically(obs):
    first = pickle.dumps(run_session(SESSION, obs=obs))
    assert pickle.dumps(run_session(SESSION, obs=obs)) == first


def test_two_sampled_metrics_fleet_runs_pickle_identically():
    first = pickle.dumps(run_fleet(FLEET, obs="metrics"))
    assert pickle.dumps(run_fleet(FLEET, obs="metrics")) == first


@pytest.mark.parametrize("name", sorted(UNITS))
def test_cache_hit_equals_a_fresh_run(tmp_path, name):
    unit = UNITS[name]
    with CampaignRunner(1, cache=ResultCache(tmp_path)) as runner:
        runner.run([unit])
    with CampaignRunner(1, cache=ResultCache(tmp_path)) as runner:
        (hit,) = runner.run([unit])
        assert runner.telemetry.cache_hits == 1
    fresh = execute_unit(unit)
    assert repr(hit) == repr(fresh)
    # A fresh result's first pickle can differ from a loaded one's by
    # pickle memo references alone, so compare after one round trip.
    loaded = pickle.loads(pickle.dumps(fresh))
    assert pickle.dumps(hit) == pickle.dumps(loaded)
