"""The propagation-graph cache: memo tiers, disk persistence, corruption."""

import json

import pytest

from repro.analysis import analyze_package, build_propagation_graph
from repro.cache import cached_propagation_graph, configure, workload_fingerprint
from repro.cache import flowcache
from repro.cache import runcache
from repro.cache.disk import _SUFFIX


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


def flow_segment(tmp_path):
    """The one segment the flow tier of ``tmp_path/run`` holds so far."""
    (segment,) = (tmp_path / "run" / "flow").glob("*" + _SUFFIX)
    return segment


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
    assert fingerprint.encode() in flow_segment(tmp_path).read_bytes()
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
    segment = flow_segment(tmp_path)
    data = segment.read_bytes()
    segment.write_bytes(data.replace(b'{"version"', b'{not json '))
    flowcache._MEMO.clear()
    runcache.active().close()  # what a fresh process starts with
    with pytest.warns(RuntimeWarning, match="skipping flow-cache entry"):
        rebuilt = cached_propagation_graph(model, workload=workload_a)
    assert rebuilt.paths == graph.paths
    # The degradation shows where the run cache's own does, and the
    # rebuilt graph went into a later segment: the next fresh process
    # reads that record (last wins) and never touches the corrupt one.
    assert cache.stats.disk_errors == 1
    assert len(list(segment.parent.iterdir())) == 2
    flowcache._MEMO.clear()
    runcache.active().close()
    assert cached_propagation_graph(model, workload=workload_a).paths == graph.paths
    assert cache.stats.disk_errors == 1


def test_fingerprint_mismatch_entry_rejected(model, tmp_path):
    configure(enabled=True, disk_dir=str(tmp_path / "run"))
    graph = cached_propagation_graph(model, workload=workload_a)
    fingerprint = workload_fingerprint(workload_a)
    # A record filed under this fingerprint whose document names another
    # (a valid record: only the decoder can tell).
    tier = runcache.active().tier("flow")
    tier.write(fingerprint, lambda: json.dumps({
        "version": flowcache.SCHEMA_VERSION, "fingerprint": "someone-else",
        "graph": graph.to_dict(),
    }).encode())
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
