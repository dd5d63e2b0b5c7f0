"""The propagation-graph cache: memo tiers, disk persistence, corruption."""

import json

import pytest

from repro.analysis import analyze_package, build_propagation_graph
from repro.cache import cached_propagation_graph, configure, workload_fingerprint
from repro.cache import flowcache
from repro.cache import runcache


@pytest.fixture(autouse=True)
def isolated_caches():
    runcache.reset()
    flowcache.reset()
    yield
    runcache.reset()
    flowcache.reset()


def workload_a(cluster):
    log = cluster.logger()

    def task():
        cluster.env.disk_write("/a", b"x")
        log.info("a done")
        yield cluster.sleep(0.01)

    cluster.spawn("worker", task())


@pytest.fixture(scope="module")
def model():
    return analyze_package("repro.systems.minizk")


def test_fingerprinted_builds_are_memoized(model):
    first = cached_propagation_graph(model, workload=workload_a)
    second = cached_propagation_graph(model, workload=workload_a)
    assert second is first
    assert first.paths == build_propagation_graph(model).paths


def test_no_workload_memoizes_per_model_object(model):
    first = cached_propagation_graph(model)
    assert cached_propagation_graph(model) is first
    other = analyze_package("repro.systems.minizk")
    assert cached_propagation_graph(other) is not first


def test_disk_tier_follows_run_cache_configuration(model, tmp_path):
    # The flow tier lives *under* the run cache's directory, so the one
    # --cache-dir flag relocates it too.
    configure(enabled=True, disk_dir=str(tmp_path / "run"))
    graph = cached_propagation_graph(model, workload=workload_a)
    fingerprint = workload_fingerprint(workload_a)
    entry = tmp_path / "run" / "flow" / f"{fingerprint}.json"
    assert entry.exists()
    # A fresh process (cleared memo) is served from disk.
    flowcache._MEMO.clear()
    restored = cached_propagation_graph(model, workload=workload_a)
    assert restored is not graph
    assert restored.paths == graph.paths
    assert restored.dead_pairs() == graph.dead_pairs()


def test_without_disk_cache_nothing_is_persisted(model, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cache = configure(enabled=True, disk_dir=None)
    cached_propagation_graph(model, workload=workload_a)
    assert cache.tier("flow") is None
    assert list(tmp_path.iterdir()) == []


def test_corrupt_entry_warns_once_and_rebuilds(model, tmp_path):
    cache = configure(enabled=True, disk_dir=str(tmp_path / "run"))
    graph = cached_propagation_graph(model, workload=workload_a)
    fingerprint = workload_fingerprint(workload_a)
    entry = tmp_path / "run" / "flow" / f"{fingerprint}.json"
    entry.write_text("{not json")
    flowcache._MEMO.clear()
    with pytest.warns(RuntimeWarning, match="corrupt flow-cache entry"):
        rebuilt = cached_propagation_graph(model, workload=workload_a)
    assert rebuilt.paths == graph.paths
    # The corrupt file was replaced by the rebuilt entry, and the
    # degradation shows where the run cache's own does.
    assert json.loads(entry.read_text())["fingerprint"] == fingerprint
    assert cache.stats.disk_errors == 1


def test_fingerprint_mismatch_entry_rejected(model, tmp_path):
    configure(enabled=True, disk_dir=str(tmp_path / "run"))
    graph = cached_propagation_graph(model, workload=workload_a)
    fingerprint = workload_fingerprint(workload_a)
    entry = tmp_path / "run" / "flow" / f"{fingerprint}.json"
    payload = json.loads(entry.read_text())
    payload["fingerprint"] = "someone-else"
    entry.write_text(json.dumps(payload))
    flowcache._MEMO.clear()
    with pytest.warns(RuntimeWarning):
        rebuilt = cached_propagation_graph(model, workload=workload_a)
    assert rebuilt.paths == graph.paths


def test_unwritable_disk_dir_degrades_to_memory(model, tmp_path):
    blocked = tmp_path / "blocked"
    blocked.write_text("not a directory")
    configure(enabled=True, disk_dir=str(blocked))
    with pytest.warns(RuntimeWarning):
        first = cached_propagation_graph(model, workload=workload_a)
    assert cached_propagation_graph(model, workload=workload_a) is first
