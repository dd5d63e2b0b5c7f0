"""The run pipeline: one rule, one config.

``RunPipeline`` is *recorder-bypass | cache → execute_workload*; these
tests pin that a hit never runs, what a traced pipeline skips, that no
search forks, and that a worker process needs nothing but the pickled
``RunConfig``.
"""

import dataclasses
import json
import os
import pickle
import subprocess
import sys

import pytest

import repro.core.pipeline as pipeline_module
from repro.cache import runcache
from repro.core.pipeline import RunConfig, RunPipeline
from repro.failures import get_case
from repro.obs import TraceRecorder

LEGS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "pipeline_legs.py")
SRC = os.path.join(os.path.dirname(LEGS), "..", "..", "src")

def boom_workload(cluster):
    """Logs the symptom at t=0.5, writes disk at t=2.0, idles on."""
    log = cluster.logger()

    def driver():
        yield cluster.sleep(0.5)
        log.info("boom happened")
        yield cluster.sleep(1.5)
        cluster.env.disk_write("/gate", b"x")
        while True:
            yield cluster.sleep(0.5)

    cluster.spawn("driver", driver())


@pytest.fixture(autouse=True)
def isolated_cache():
    runcache.reset()
    yield
    runcache.reset()


@pytest.fixture()
def runs(monkeypatch):
    """The keyword arguments of every real execution, in order."""
    seen = []
    real = pipeline_module.execute_workload

    def counting(workload, horizon, seed=0, plan=None, **kwargs):
        seen.append(kwargs)
        return real(workload, horizon=horizon, seed=seed, plan=plan, **kwargs)

    monkeypatch.setattr(pipeline_module, "execute_workload", counting)
    return seen


# ------------------------------------------------------------------ config


def test_run_config_is_the_two_runner_knobs_and_pickles():
    assert [field.name for field in dataclasses.fields(RunConfig)] == [
        "cache_dir", "events",
    ]
    config = RunConfig(cache_dir="/somewhere", events=True)
    assert pickle.loads(pickle.dumps(config)) == config
    with pytest.raises(dataclasses.FrozenInstanceError):
        config.cache_dir = None


def test_here_reads_the_cache_tier_back_from_the_process(tmp_path):
    assert RunConfig.here() == RunConfig()
    RunConfig(cache_dir=str(tmp_path)).install()
    assert RunConfig.here() == RunConfig(cache_dir=str(tmp_path))
    RunConfig().install()
    assert runcache.active().disk_dir is None


# ------------------------------------------------------------- the cache


def same_run(served, original) -> bool:
    """Whether a result decoded from the cache equals the run stored
    (the cache keeps records, so a hit is never the same object)."""
    return (
        served is not original
        and served.log.records == original.log.records
        and dataclasses.replace(served, log=original.log) == original
    )


def test_hit_serves_without_running_and_miss_runs_once(runs, cache_counters):
    pipeline = RunPipeline(boom_workload, 10.0, 1)
    first = pipeline.run(1, None)
    assert same_run(pipeline.run(1, None), first)
    assert len(runs) == 1
    assert (cache_counters["misses"], cache_counters["hits"]) == (1, 1)


def test_a_search_runs_its_rounds_serially():
    case = get_case("f1")
    case.explorer()
    case.explorer(jobs=1)
    with pytest.raises(ValueError, match="compare --jobs"):
        case.explorer(jobs=2)


# ---------------------------------------------------------- the recorder rule


def test_traced_pipeline_bypasses_the_cache(runs, cache_counters):
    recorder = TraceRecorder()
    pipeline = RunPipeline(boom_workload, 10.0, 1, recorder=recorder)
    pipeline.run(1, None)
    pipeline.run(1, None)
    assert runs == [{"recorder": recorder}] * 2
    lookups = ("hits", "misses")
    assert [cache_counters[name] for name in lookups] == [0, 0]


# ------------------------------------------------- across a process boundary


def run_leg(*argv):
    """Run one ``pipeline_legs.py`` leg with no ``REPRO_*`` in its environment."""
    env = {
        key: value
        for key, value in os.environ.items()
        if not key.startswith("REPRO_")
    }
    env["PYTHONPATH"] = os.path.abspath(SRC)
    finished = subprocess.run(
        [sys.executable, LEGS, *argv],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert finished.returncode == 0, finished.stderr
    return json.loads(finished.stdout.splitlines()[-1])


@pytest.mark.parametrize("leg", ["leak-explorer", "leak-strategy"])
def test_a_raising_round_loop_leaves_no_child_behind(leg):
    """Asked for checkpointing on a case whose runs are long enough to
    fork, a search still runs every round inline."""
    document = run_leg(leg)
    assert document["holders_opened"] == 0
    assert document["children"] is False


def test_pool_worker_is_configured_by_its_pickled_config_alone(tmp_path):
    document = run_leg("worker-config", str(tmp_path))
    assert document["inline_fallbacks"] == 0
    assert document["reproduced"] == [True, True]
    assert document["cache_entries"] > 0
    assert document["round_events_from"] == ["f1", "f3"]
