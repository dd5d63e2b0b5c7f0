"""The run pipeline: one layer stack, one owner of the pool, one config.

``RunPipeline`` is *recorder-bypass | cache → checkpoint pool →
execute_workload*; these tests pin the order of those layers,
what a traced pipeline skips, who reaps the checkpoint holders, and that
a worker process needs nothing but the pickled ``RunConfig``.
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
from repro.injection.fir import InjectionPlan
from repro.injection.sites import FaultInstance
from repro.obs import TraceRecorder
from repro.sim.checkpoint import checkpoint_supported

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


def boom_pipeline(**knobs):
    return RunPipeline(boom_workload, 10.0, 1, RunConfig.here(**knobs))


class FakePool:
    opened = []

    def __init__(self, *args, **kwargs):
        self.broken = False
        self.closes = 0
        FakePool.opened.append(self)

    def close(self):
        self.closes += 1


@pytest.fixture()
def fake_pool(monkeypatch):
    FakePool.opened = []
    monkeypatch.setattr(pipeline_module, "CheckpointPool", FakePool)
    monkeypatch.setattr(pipeline_module, "checkpoint_supported", lambda: True)
    return FakePool


# ------------------------------------------------------------------ config


def test_run_config_is_the_five_runner_knobs_and_pickles():
    assert [field.name for field in dataclasses.fields(RunConfig)] == [
        "cache", "cache_dir", "checkpoint", "events", "jobs",
    ]
    config = RunConfig(cache=True, cache_dir="/somewhere", jobs=3)
    assert pickle.loads(pickle.dumps(config)) == config
    with pytest.raises(dataclasses.FrozenInstanceError):
        config.jobs = 4


def test_here_reads_the_cache_tier_back_from_the_process(tmp_path):
    assert RunConfig.here() == RunConfig()
    RunConfig(cache=True, cache_dir=str(tmp_path)).install()
    assert RunConfig.here(checkpoint=True) == RunConfig(
        cache=True, cache_dir=str(tmp_path), checkpoint=True
    )


# ------------------------------------------------------------- layer order


def same_run(served, original) -> bool:
    """Whether a result decoded from the cache equals the run stored
    (the cache keeps records, so a hit is never the same object)."""
    return (
        served is not original
        and served.log.records == original.log.records
        and dataclasses.replace(served, log=original.log) == original
    )


def test_hit_serves_without_running_and_miss_runs_once(runs):
    runcache.configure(enabled=True)
    pipeline = boom_pipeline()
    first = pipeline.run(1, None)
    assert same_run(pipeline.run(1, None), first)
    assert len(runs) == 1
    stats = runcache.active().stats
    assert (stats.misses, stats.hits) == (1, 1)


@pytest.mark.skipif(not checkpoint_supported(), reason="requires os.fork (POSIX)")
def test_probe_is_never_monitored_and_never_fork_served(runs, monkeypatch):
    case = get_case("f12")
    with RunPipeline(
        case.workload, case.horizon, case.seed, RunConfig(checkpoint=True),
    ) as pipeline:
        probe = pipeline.probe()
        assert runs == [{}]
        pipeline.arm(probe.trace)

        def never(*args, **kwargs):
            raise AssertionError("the probe went to the checkpoint pool")

        monkeypatch.setattr(pipeline_module.CheckpointPool, "runner", never)
        event = probe.trace[len(probe.trace) // 2]
        armed = InjectionPlan.single(
            FaultInstance(event.site_id, "IOException", event.occurrence)
        )
        assert pipeline.probe(armed).injected
        assert runs == [{}, {}]


def test_arm_is_a_noop_when_disabled_traced_or_unsupported(fake_pool, monkeypatch):
    disabled = boom_pipeline()
    traced = RunPipeline(
        boom_workload, 10.0, 1, RunConfig(checkpoint=True),
        recorder=TraceRecorder(),
    )
    for pipeline in (disabled, traced):
        pipeline.arm([])
    monkeypatch.setattr(pipeline_module, "checkpoint_supported", lambda: False)
    boom_pipeline(checkpoint=True).arm([])
    assert fake_pool.opened == []


def test_close_is_idempotent_and_arm_opens_one_pool(fake_pool):
    pipeline = boom_pipeline(checkpoint=True)
    pipeline.arm([])
    pipeline.arm([])
    (pool,) = fake_pool.opened
    pipeline.close()
    pipeline.close()
    assert pool.closes == 1


def test_a_retired_pool_is_bypassed(fake_pool, runs):
    pipeline = boom_pipeline(checkpoint=True)
    pipeline.arm([])
    fake_pool.opened[0].broken = True
    pipeline.run(1, None)
    assert len(runs) == 1


def test_a_search_runs_its_rounds_serially():
    case = get_case("f1")
    case.explorer()
    case.explorer(jobs=1)
    with pytest.raises(ValueError, match="compare --jobs"):
        case.explorer(jobs=2)


# ---------------------------------------------------------- the recorder rule


def test_traced_pipeline_bypasses_the_cache(runs):
    runcache.configure(enabled=True)
    recorder = TraceRecorder()
    pipeline = RunPipeline(
        boom_workload, 10.0, 1, RunConfig.here(checkpoint=True),
        recorder=recorder,
    )
    pipeline.probe()
    pipeline.run(1, None)
    assert runs == [{"recorder": recorder}] * 2
    assert runcache.active().stats.lookups == 0


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


@pytest.mark.skipif(not checkpoint_supported(), reason="requires os.fork (POSIX)")
@pytest.mark.parametrize("leg", ["leak-explorer", "leak-strategy"])
def test_a_raising_round_loop_leaves_no_child_behind(leg):
    document = run_leg(leg)
    assert document["holders_opened"] >= 1
    assert document["children"] is False


def test_pool_worker_is_configured_by_its_pickled_config_alone(tmp_path):
    document = run_leg("worker-config", str(tmp_path))
    assert document["inline_fallbacks"] == 0
    assert document["reproduced"] == [True, True]
    assert document["cache_entries"] > 0
    assert document["round_events_from"] == ["f1", "f3"]
