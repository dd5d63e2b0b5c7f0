"""The run cache: key hygiene, disk-tier robustness, noop aliasing,
that no tier retains a live result, and the hard invariant that caching
never changes a search outcome.  (The segment store's own failure
surface — torn tails, killed and concurrent writers, forks — is
``test_segments.py``.)
"""

import dataclasses
import gc
import pickle
import warnings
import weakref

import pytest

from repro.cache import (
    RunCache,
    active,
    cached_execute,
    configure,
    reset,
    workload_fingerprint,
)
from repro.cache.disk import _FIELDS, _HEAD_SIZE, _SUFFIX
from repro.cache.runcache import ALIAS, HIT, MISS, UNCACHED
from repro.failures import get_case
from repro.injection.fir import InjectionPlan
from repro.injection.sites import FaultInstance
from repro.sim.cluster import execute_workload


@pytest.fixture(autouse=True)
def isolated_cache():
    """No process-global cache leaks into (or out of) any test here."""
    reset()
    yield
    reset()


def workload_a(cluster):
    log = cluster.logger()

    def task():
        cluster.env.disk_write("/a", b"x")
        log.info("a done")
        yield cluster.sleep(0.01)

    cluster.spawn("worker", task())


def workload_b(cluster):
    log = cluster.logger()

    def task():
        cluster.env.disk_write("/b", b"y")
        log.info("b done")
        yield cluster.sleep(0.01)

    cluster.spawn("worker", task())


def counting_runner():
    calls = []

    def runner(workload, horizon, seed=0, plan=None, **kwargs):
        calls.append((horizon, seed, plan.key() if plan else None))
        return execute_workload(workload, horizon=horizon, seed=seed, plan=plan)

    return runner, calls


def segments(directory):
    """The segment files directly under ``directory``."""
    return sorted(directory.glob("*" + _SUFFIX))


def same_run(served, original) -> bool:
    """Whether a result decoded from the cache equals the run stored
    (``LogFile`` compares by identity, so its records are compared)."""
    return (
        served.log.records == original.log.records
        and dataclasses.replace(served, log=original.log) == original
    )


def plan_of(*triples, always=()):
    return InjectionPlan.of(
        [FaultInstance(*t) for t in triples],
        always=[FaultInstance(*t) for t in always],
    )


# ------------------------------------------------------------- fingerprints


def test_fingerprint_is_stable_and_distinguishes_functions():
    assert workload_fingerprint(workload_a) == workload_fingerprint(workload_a)
    assert workload_fingerprint(workload_a) != workload_fingerprint(workload_b)


def test_unfingerprintable_workload_bypasses_the_cache():
    # A callable with no qualified name and no retrievable source cannot
    # be keyed safely; the cache must execute it every time.
    opaque = eval("lambda cluster: None")
    opaque.__module__ = ""
    opaque.__qualname__ = ""
    assert workload_fingerprint(opaque) is None
    cache = RunCache()
    runs = []
    _, outcome = cache.execute(
        opaque, 1.0, runner=lambda *a, **k: runs.append(1) or object()
    )
    assert outcome == UNCACHED
    assert runs == [1]


# -------------------------------------------------------------- key hygiene


def test_same_inputs_hit_different_inputs_miss():
    cache = RunCache()
    runner, calls = counting_runner()
    case_args = dict(runner=runner)

    first, outcome = cache.execute(workload_a, 1.0, seed=3, **case_args)
    assert outcome == MISS
    again, outcome = cache.execute(workload_a, 1.0, seed=3, **case_args)
    assert outcome == HIT
    assert same_run(again, first)
    assert len(calls) == 1

    # Horizon, seed, and workload changes must each miss.
    cache.execute(workload_a, 2.0, seed=3, **case_args)
    cache.execute(workload_a, 1.0, seed=4, **case_args)
    cache.execute(workload_b, 1.0, seed=3, **case_args)
    assert len(calls) == 4
    assert cache.stats.hits == 1
    assert cache.stats.misses == 4


def test_distinct_plans_never_collide():
    cache = RunCache()
    case = get_case("f1")
    site = case.ground_truth_instance().site_id
    exc = case.ground_truth_instance().exception
    plans = [
        None,
        plan_of((site, exc, 1)),
        plan_of((site, exc, 2)),
        plan_of((site, exc, 1), (site, exc, 2)),
        plan_of((site, exc, 1), always=((site, exc, 2),)),
        plan_of(always=((site, exc, 1),)),
    ]
    keys = {
        cache._key(case.workload, case.horizon, case.seed, plan)
        for plan in plans
    }
    assert len(keys) == len(plans)
    names = {RunCache._name(key) for key in keys}
    assert len(names) == len(plans)


def test_base_fault_changes_miss():
    # Same window, different ``always`` faults: a different run.
    cache = RunCache()
    case = get_case("f1")
    truth = case.ground_truth_instance()
    runner, calls = counting_runner()
    window = plan_of((truth.site_id, truth.exception, 1))
    with_base = InjectionPlan.of(window.instances, always=[truth])
    cache.execute(case.workload, case.horizon, case.seed, window, runner)
    cache.execute(case.workload, case.horizon, case.seed, with_base, runner)
    assert len(calls) == 2
    assert cache.stats.misses == 2


# ---------------------------------------------------------------- disk tier


def test_disk_tier_shared_between_cache_instances(tmp_path):
    writer = RunCache(disk_dir=str(tmp_path))
    runner, calls = counting_runner()
    writer.execute(workload_a, 1.0, seed=1, runner=runner)
    assert len(calls) == 1

    reader = RunCache(disk_dir=str(tmp_path))
    _result, outcome = reader.execute(workload_a, 1.0, seed=1, runner=runner)
    assert outcome == HIT
    assert reader.stats.disk_hits == 1
    assert len(calls) == 1  # never re-executed


def test_corrupt_disk_entry_is_skipped_with_one_warning(tmp_path):
    cache = RunCache(disk_dir=str(tmp_path))
    runner, calls = counting_runner()
    cache.execute(workload_a, 1.0, seed=1, runner=runner)
    (segment,) = segments(tmp_path)
    segment.write_bytes(b"not a segment record, whatever this file once was" * 8)

    fresh = RunCache(disk_dir=str(tmp_path))
    with pytest.warns(RuntimeWarning, match="skipping run-cache entry"):
        _result, outcome = fresh.execute(workload_a, 1.0, seed=1, runner=runner)
    assert outcome == MISS  # corrupt entry never served
    assert fresh.stats.disk_errors == 1
    # The miss re-executed and appended a valid record to its own segment.
    (_corpse, own) = segments(tmp_path)
    with pytest.warns(RuntimeWarning):  # a third process skips the corpse too
        _result, outcome = RunCache(disk_dir=str(tmp_path)).execute(
            workload_a, 1.0, seed=1, runner=runner
        )
    assert outcome == HIT

    # Later corruption on the same cache degrades silently.
    data = bytearray(own.read_bytes())
    data[-1] ^= 0x01
    own.write_bytes(bytes(data))
    fresh._memory.clear()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _result, outcome = fresh.execute(workload_a, 1.0, seed=1, runner=runner)
    assert outcome == MISS
    assert fresh.stats.disk_errors == 2


def _flip(path, at: int) -> None:
    data = bytearray(path.read_bytes())
    data[at] ^= 0x10
    path.write_bytes(bytes(data))


def test_key_mismatch_entry_rejected(tmp_path):
    # A record's name sits in its checksummed header: one whose name no
    # longer matches what was written (here: a flipped bit) must not be
    # served under either name.
    cache = RunCache(disk_dir=str(tmp_path))
    runner, calls = counting_runner()
    cache.execute(workload_a, 1.0, seed=1, runner=runner)
    (segment,) = segments(tmp_path)
    _flip(segment, _HEAD_SIZE + 3)

    fresh = RunCache(disk_dir=str(tmp_path))
    with pytest.warns(RuntimeWarning):
        _result, outcome = fresh.execute(workload_a, 1.0, seed=1, runner=runner)
    assert outcome == MISS and len(calls) == 2
    assert fresh.stats.disk_errors == 1


def test_stale_version_entry_rejected(tmp_path):
    cache = RunCache(disk_dir=str(tmp_path))
    runner, _calls = counting_runner()
    cache.execute(workload_a, 1.0, seed=1, runner=runner)
    (segment,) = segments(tmp_path)
    # Segments of another format version are not even opened ...
    other = segment.with_suffix(".seg6")
    other.write_bytes(segment.read_bytes())
    (tmp_path / "0123abcd.pkl").write_bytes(b"a version-6 entry")
    # ... and a record claiming another version inside one is rejected.
    data = bytearray(segment.read_bytes())
    assert data[2] == 7
    data[2] = 8
    segment.write_bytes(bytes(data))
    fresh = RunCache(disk_dir=str(tmp_path))
    with pytest.warns(RuntimeWarning):
        _result, outcome = fresh.execute(workload_a, 1.0, seed=1, runner=runner)
    assert outcome == MISS
    assert fresh.stats.disk_errors == 1
    assert other.name not in fresh._disk._segments


# ------------------------------------------------------------ entry codec


def _stored_then_read(tmp_path, case, plan):
    """``(original, decoded)``: a real run, and what a cold process reads
    back from the entry that run wrote."""
    writer = RunCache(disk_dir=str(tmp_path))
    original, outcome = writer.execute(
        case.workload, case.horizon, case.seed, plan, execute_workload
    )
    assert outcome == MISS
    reader = RunCache(disk_dir=str(tmp_path))
    decoded, outcome = reader.execute(
        case.workload, case.horizon, case.seed, plan, execute_workload
    )
    assert outcome == HIT and reader.stats.disk_hits == 1
    return original, decoded


@pytest.mark.parametrize("with_plan", [False, True])
def test_entry_round_trip_equals_the_original_result(tmp_path, with_plan):
    case = get_case("f11")
    plan = InjectionPlan.single(case.ground_truth_instance()) if with_plan else None
    original, decoded = _stored_then_read(tmp_path, case, plan)
    assert decoded is not original
    # A record carries a trace iff its run armed nothing.
    if with_plan:
        assert original.trace is None and decoded.trace is None
    else:
        assert decoded.trace == original.trace and len(original.trace) > 0
    assert decoded.log.records == original.log.records
    # (LogFile compares by identity; its records were compared above.)
    assert dataclasses.replace(decoded, log=original.log) == original
    shipped = pickle.loads(pickle.dumps(decoded))
    assert shipped.trace == original.trace


def test_decoded_log_records_are_interned(tmp_path):
    case = get_case("f11")
    truth = case.ground_truth_instance()
    _, noop = _stored_then_read(tmp_path / "noop", case, None)
    _, faulty = _stored_then_read(tmp_path / "fault", case, InjectionPlan.single(truth))
    shared = {id(record) for record in noop.log} & {id(record) for record in faulty.log}
    # The two runs log the same prefix: one record object serves both.
    assert shared
    assert all(record.level.name for record in faulty.log)
    sources = {id(r.source): r.source for r in noop.log if r.source is not None}
    assert len(sources) == len(set(sources.values()))


def test_alias_prediction_from_a_lazily_decoded_noop_entry(tmp_path):
    case = get_case("f1")
    truth = case.ground_truth_instance()
    RunCache(disk_dir=str(tmp_path)).execute(
        case.workload, case.horizon, case.seed, None, execute_workload
    )
    runner, calls = counting_runner()
    cold = RunCache(disk_dir=str(tmp_path))
    ghost = plan_of((truth.site_id, truth.exception, 10**6))
    result, outcome = cold.execute(case.workload, case.horizon, case.seed, ghost, runner)
    assert outcome == ALIAS and not calls
    firing = plan_of((truth.site_id, truth.exception, truth.occurrence))
    _result, outcome = cold.execute(case.workload, case.horizon, case.seed, firing, runner)
    assert outcome == MISS and len(calls) == 1
    reference = execute_workload(case.workload, case.horizon, case.seed)
    assert result.trace == reference.trace


def _flip_bit(data: bytes, needle: bytes) -> bytes:
    """``data`` with one bit flipped in the middle of ``needle``."""
    at = data.index(needle) + len(needle) // 2
    return data[:at] + bytes([data[at] ^ 0x10]) + data[at + 1:]


#: damage -> the ``RuntimeWarning``s and ``disk_errors`` it may cost: a
#: tail that is not (or not yet) all there is no error, just not there.
DAMAGE = {
    "truncated": 0, "trace blob": 1, "log text": 1, "empty": 0,
    "header": 1, "half a header": 0,
}


@pytest.mark.parametrize("damage", list(DAMAGE))
def test_damaged_entry_is_skipped_and_removed(tmp_path, damage):
    """Whatever happened to a record, it is a miss — dropped from the
    index, never an exception — and the writer after it is unaffected."""
    case = get_case("f1")
    RunCache(disk_dir=str(tmp_path)).execute(
        case.workload, case.horizon, case.seed, None, execute_workload
    )
    (segment,) = segments(tmp_path)
    data = segment.read_bytes()
    _magic, name_size, length, _crc = _FIELDS.unpack_from(data)
    assert len(data) == _HEAD_SIZE + name_size + length  # one record
    log_rows, trace_rows, *_rest = pickle.loads(data[-length:])
    if damage == "truncated":
        data = data[: len(data) // 2]
    elif damage == "trace blob":
        # A site id in the probe's trace rows: a flip that still
        # unpickles, so only the checksum stands between it and a wrong
        # occurrence index.
        data = _flip_bit(data, trace_rows[0][0].encode())
    elif damage == "log text":
        data = _flip_bit(data, log_rows[0][3].encode())
    elif damage == "header":
        data = _flip_bit(data, data[4:_HEAD_SIZE])
    elif damage == "half a header":
        data = data[: _HEAD_SIZE // 2]
    else:
        data = b""
    segment.write_bytes(data)

    runner, calls = counting_runner()
    cold = RunCache(disk_dir=str(tmp_path))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        _result, outcome = cold.execute(
            case.workload, case.horizon, case.seed, None, runner
        )
    assert outcome == MISS and len(calls) == 1
    assert cold.stats.disk_errors == DAMAGE[damage]
    assert [w.category for w in caught] == [RuntimeWarning] * DAMAGE[damage]
    # The miss appended the run, whole, to its own segment.
    later = RunCache(disk_dir=str(tmp_path))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the old damage is still there
        _result, outcome = later.execute(
            case.workload, case.horizon, case.seed, None, runner
        )
    assert outcome == HIT and len(calls) == 1


def test_cache_dir_relocates_every_persistent_tier(tmp_path):
    from repro.analysis.system_model import analyze_package, clear_facts_cache
    from repro.cache import flowcache

    flowcache.reset()
    clear_facts_cache()
    configure(enabled=True, disk_dir=str(tmp_path))
    analyze_package("repro.systems.minizk")
    get_case("f1").explorer(prune="static", max_rounds=2).explore()
    # One segment per tier for this one writing process, and nothing else:
    # no per-entry file, no temp file.
    files = sorted(str(p.relative_to(tmp_path).parent) for p in tmp_path.rglob("*") if p.is_file())
    assert files == [".", "facts", "flow"]
    assert all(p.name.endswith(_SUFFIX) for p in tmp_path.rglob("*") if p.is_file())
    assert b"repro.systems.minizk.node" in segments(tmp_path / "facts")[0].read_bytes()


# ------------------------------------------------------------ noop aliasing


def test_never_firing_plan_served_from_noop_run():
    cache = RunCache()
    case = get_case("f1")
    truth = case.ground_truth_instance()
    runner, calls = counting_runner()

    noop, outcome = cache.execute(
        case.workload, case.horizon, case.seed, None, runner
    )
    assert outcome == MISS
    # Arm an occurrence far beyond anything the trace contains: the
    # window can never fire, so the noop result answers without a run.
    ghost = plan_of((truth.site_id, truth.exception, 10**6))
    result, outcome = cache.execute(
        case.workload, case.horizon, case.seed, ghost, runner
    )
    assert outcome == ALIAS
    assert same_run(result, noop)
    assert len(calls) == 1
    assert cache.stats.alias_hits == 1

    # The aliased key is now a plain memory hit.
    _result, outcome = cache.execute(
        case.workload, case.horizon, case.seed, ghost, runner
    )
    assert outcome == HIT


def test_firing_plan_is_not_aliased():
    cache = RunCache()
    case = get_case("f1")
    truth = case.ground_truth_instance()
    runner, calls = counting_runner()
    cache.execute(case.workload, case.horizon, case.seed, None, runner)
    firing = plan_of((truth.site_id, truth.exception, truth.occurrence))
    result, outcome = cache.execute(
        case.workload, case.horizon, case.seed, firing, runner
    )
    assert outcome == MISS
    assert len(calls) == 2
    assert result.injected_instance is not None


def test_a_probe_is_never_served_an_armed_run():
    """Only a window-less run writes under a noop key.  An armed plan
    that never fires, run at a seed no probe has used, must leave that
    seed's probe a miss that records the trace an uncached probe does —
    not an alias of the armed run, which recorded none."""
    cache = RunCache()
    case = get_case("f1")
    truth = case.ground_truth_instance()
    seed = case.seed + 101
    runner, calls = counting_runner()
    ghost = plan_of((truth.site_id, truth.exception, 10**6))
    armed, outcome = cache.execute(case.workload, case.horizon, seed, ghost, runner)
    assert outcome == MISS
    assert armed.injected_instance is None and armed.trace is None
    probe, outcome = cache.execute(case.workload, case.horizon, seed, None, runner)
    assert outcome == MISS and len(calls) == 2
    uncached = execute_workload(case.workload, case.horizon, seed)
    assert probe.trace == uncached.trace and len(uncached.trace) > 0


@pytest.mark.parametrize("case_id", ["f1", "f11"])
def test_alias_decision_from_site_counts_equals_the_noop_trace(case_id):
    """A pair ``(site, occurrence)`` is in the noop run's trace iff
    ``0 < occurrence <= site_counts[site]``: for every candidate of the
    case's fault space, armed as it is (firing) and shifted past the
    noop run's count (ghost), the cache aliases exactly the plans whose
    pair the noop trace lacks."""
    from repro.core.prepared import prepared_case

    case = get_case(case_id)
    space = prepared_case(
        case.model(), case.workload, case.horizon, case.seed, case.failure_log()
    ).fault_space
    cache = RunCache(capacity=1 << 16)
    noop, _ = cache.execute(
        case.workload, case.horizon, case.seed, None, execute_workload
    )
    in_trace = {(event.site_id, event.occurrence) for event in noop.trace}
    decisions = []
    for site, spec, occurrence in sorted(space):
        ghost = occurrence + noop.site_counts.get(site, 0)
        for armed in (occurrence, ghost):
            plan = plan_of((site, spec, armed))
            key = cache._key(case.workload, case.horizon, case.seed, plan)
            aliased = cache._alias_lookup(key, cache._name(key), plan) is not None
            assert aliased == ((site, armed) not in in_trace), (site, armed)
            decisions.append(aliased)
    assert True in decisions and False in decisions


# ------------------------------------------------------------- no retention


@pytest.mark.parametrize("disk", [False, True])
def test_the_cache_retains_no_live_result(tmp_path, disk):
    """Both tiers keep the packed record: once the caller lets go of a
    result — the one a miss ran, or one a hit decoded — it is garbage."""
    case = get_case("f1")
    cache = RunCache(disk_dir=str(tmp_path) if disk else None)

    for wanted in (MISS, HIT, HIT):
        result, outcome = cache.execute(
            case.workload, case.horizon, case.seed, None, execute_workload
        )
        assert outcome == wanted and result.log.records
        # (a plain list takes no weak reference: the LogFile that owns
        # the record list stands in for it)
        result_ref, log_ref = weakref.ref(result), weakref.ref(result.log)
        del result
        gc.collect()
        assert result_ref() is None and log_ref() is None
    assert all(type(record) is bytes for record in cache._memory.values())


def test_alias_decisions_decode_the_noop_record_once(monkeypatch):
    """``_noop_counts`` remembers the noop run's ``site_counts``: the
    first never-firing window decodes the noop record to learn them,
    and every alias hit after that decodes only the result it serves."""
    from repro.cache import runcache

    case = get_case("f1")
    truth = case.ground_truth_instance()
    cache = RunCache()
    cache.execute(case.workload, case.horizon, case.seed, None, execute_workload)
    decoded = []
    real = runcache._decode_result
    monkeypatch.setattr(
        runcache, "_decode_result",
        lambda payload: decoded.append(1) or real(payload),
    )
    for occurrence in (10**6, 10**6 + 1, 10**6 + 2):
        ghost = plan_of((truth.site_id, truth.exception, occurrence))
        result, outcome = cache.execute(
            case.workload, case.horizon, case.seed, ghost, execute_workload
        )
        assert outcome == ALIAS
    assert len(decoded) == 1 + 3
    assert list(cache._noop_counts.values()) == [result.site_counts]


# --------------------------------------------------------------- LRU bounds


def test_memory_tier_evicts_least_recently_used():
    cache = RunCache(capacity=2)
    runner, calls = counting_runner()
    cache.execute(workload_a, 1.0, seed=1, runner=runner)
    cache.execute(workload_a, 1.0, seed=2, runner=runner)
    cache.execute(workload_a, 1.0, seed=1, runner=runner)  # refresh seed=1
    cache.execute(workload_a, 1.0, seed=3, runner=runner)  # evicts seed=2
    assert len(cache._memory) == 2
    _result, outcome = cache.execute(workload_a, 1.0, seed=2, runner=runner)
    assert outcome == MISS  # seed=2 was the least recently used
    # Storing seed=2 back evicted seed=1; seed=3 is still resident.
    _result, outcome = cache.execute(workload_a, 1.0, seed=3, runner=runner)
    assert outcome == HIT


# --------------------------------------------------- process-global wiring


def test_active_defaults_to_off_and_ignores_the_environment(monkeypatch):
    """Only ``configure`` turns the cache on: worker processes get their
    configuration as a pickled RunConfig, never from ``REPRO_CACHE``."""
    assert active() is None
    monkeypatch.setenv("REPRO_CACHE", "1")
    reset()
    assert active() is None
    assert configure(enabled=True) is active()


def test_cached_execute_without_cache_uses_runner_directly():
    sentinel = object()
    result = cached_execute(
        workload_a, horizon=1.0, runner=lambda *a, **k: sentinel
    )
    assert result is sentinel


def test_configured_cache_serves_cached_execute():
    configure(enabled=True)
    runner, calls = counting_runner()
    first = cached_execute(workload_a, horizon=1.0, seed=7, runner=runner)
    second = cached_execute(workload_a, horizon=1.0, seed=7, runner=runner)
    assert second is not first and same_run(second, first)
    assert len(calls) == 1


# ------------------------------------------------------ outcome invariance


@pytest.mark.parametrize("case_id", ["f1", "f13"])
def test_search_outcome_invariant_under_cache(case_id, tmp_path):
    case = get_case(case_id)
    reset()
    baseline = case.explorer(max_rounds=60).explore()
    configure(enabled=True, disk_dir=str(tmp_path))
    cold = case.explorer(max_rounds=60).explore()
    warm = case.explorer(max_rounds=60).explore()
    assert cold.signature() == baseline.signature()
    assert warm.signature() == baseline.signature()
    cache = active()
    assert cache is not None
    assert cache.stats.hits > 0  # the warm pass was actually served
