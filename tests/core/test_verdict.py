"""Early-verdict cutoff (DESIGN §13): compilation, monitoring, legality.

Four layers, bottom up:

* ``oracle_spec``/``compile_cutoff`` decidability: exactly the trees
  that can latch ``True`` mid-run compile; everything else returns
  ``None`` so callers pay zero overhead.
* ``VerdictMonitor`` unit behavior: leaf latching, Kleene composition,
  the injection-truthfulness (fired) gate, and cutoff enable/disable.
* Simulator integration: satisfied runs truncate to a prefix of the
  full run with the oracle still satisfied post-hoc; unsatisfied runs
  always reach the horizon; the run cache segregates truncated entries
  under the monitor-extended key and never aliases them.
* The hard invariant: ``ExplorationResult.signature()`` is byte-equal
  with the cutoff on and off, at jobs 1 and 4 — plus hypothesis sweeps
  tying the incremental verdict to post-hoc ``Oracle.satisfied``.
"""

from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import RunCache, reset as cache_reset
from repro.core.oracle import (
    AllOf,
    AnyOf,
    CrashedTaskOracle,
    LogMessageOracle,
    Not,
    StatePredicateOracle,
    StuckTaskOracle,
)
from repro.core.verdict import (
    compile_cutoff,
    monitor_key,
    oracle_spec,
)
from repro.failures import get_case
from repro.injection.fir import InjectionPlan
from repro.injection.sites import FaultInstance
from repro.logs.record import Level, LogRecord
from repro.sim.cluster import execute_workload
from repro.sim.errors import IOException


@pytest.fixture(autouse=True)
def isolated_cache():
    cache_reset()
    yield
    cache_reset()


LOG = LogMessageOracle("boom happened")
CRASH = CrashedTaskOracle(task_prefix="crasher", error_type="ValueError")
STUCK = StuckTaskOracle("never_signaled_wait")
MONO = StatePredicateOracle(
    lambda state: state.get("flag") is True, "flag set", monotone=True
)
PLAIN = StatePredicateOracle(
    lambda state: state.get("count", 0) == 2, "count exactly two"
)


# ------------------------------------------------------------- decidability


class TestCompileDecidability:
    def test_latchable_leaves_compile(self):
        for oracle in (LOG, CRASH, MONO):
            assert compile_cutoff(oracle) is not None, oracle.description

    def test_undecidable_leaves_do_not_compile(self):
        for oracle in (STUCK, PLAIN):
            assert compile_cutoff(oracle) is None, oracle.description

    def test_all_requires_every_branch_latchable(self):
        assert compile_cutoff(LOG & CRASH) is not None
        assert compile_cutoff(LOG & STUCK) is None
        assert compile_cutoff(LOG & PLAIN) is None

    def test_any_requires_one_latchable_branch(self):
        assert compile_cutoff(LOG | STUCK) is not None
        assert compile_cutoff(STUCK | PLAIN) is None

    def test_not_inverts_decidability(self):
        # Leaves never decide False mid-run (absence is only provable at
        # the horizon), so a bare negation cannot decide True...
        assert compile_cutoff(~LOG) is None
        # ...but a double negation can, and a Not *inside* a latchable
        # AnyOf does not stop the other branch from deciding the root.
        assert compile_cutoff(~(~LOG)) is not None
        assert compile_cutoff((~LOG) | CRASH) is not None

    def test_oracle_subclasses_are_opaque(self):
        class Sneaky(LogMessageOracle):
            def satisfied(self, result):
                return not super().satisfied(result)

        # An overridden ``satisfied`` invalidates the leaf's latching
        # semantics; exact-type dispatch must refuse to compile it.
        assert oracle_spec(Sneaky("boom happened"))[0] == "opaque"
        assert compile_cutoff(Sneaky("boom happened")) is None

    def test_monitor_key_is_stable_and_discriminating(self):
        assert monitor_key(oracle_spec(LOG)) == monitor_key(oracle_spec(LOG))
        assert monitor_key(oracle_spec(LOG)) != monitor_key(oracle_spec(CRASH))

    def test_registry_cases_compile_as_audited(self):
        # Spot checks against the dataset: declared-monotone cases
        # compile, f18's genuinely non-monotone predicate does not.
        for case_id in ("f1", "f5", "f12", "f23", "f24", "f26", "f27"):
            assert compile_cutoff(get_case(case_id).oracle) is not None, case_id
        assert compile_cutoff(get_case("f18").oracle) is None


# ------------------------------------------------------------- monitor unit


def record(message, level=Level.INFO):
    return LogRecord(1.0, "main", level, message)


class TestVerdictMonitor:
    def test_log_leaf_latches_once(self):
        monitor = compile_cutoff(LOG).factory()
        assert monitor.verdict() is None
        assert not monitor.should_stop()
        monitor._on_log(record("nothing to see"))
        assert not monitor.should_stop()
        monitor._on_log(record("boom happened at last"))
        assert monitor.verdict() is True
        assert monitor.should_stop()

    def test_level_filter_respected(self):
        monitor = compile_cutoff(
            LogMessageOracle("boom", level="ERROR")
        ).factory()
        monitor._on_log(record("boom"))  # INFO, filtered
        assert not monitor.should_stop()
        monitor._on_log(record("boom", level=Level.ERROR))
        assert monitor.should_stop()

    def test_crash_leaf_matches_prefix_and_type(self):
        monitor = compile_cutoff(CRASH).factory()
        monitor._on_crash(
            SimpleNamespace(name="other-task", error=ValueError("x"))
        )
        assert not monitor.should_stop()
        monitor._on_crash(
            SimpleNamespace(name="crasher-1", error=TypeError("x"))
        )
        assert not monitor.should_stop()
        monitor._on_crash(
            SimpleNamespace(name="crasher-1", error=ValueError("x"))
        )
        assert monitor.should_stop()

    def test_state_leaf_tolerates_raising_predicate(self):
        raising = StatePredicateOracle(
            lambda state: state["missing"] > 0, "raises early", monotone=True
        )
        monitor = compile_cutoff(raising).factory()
        monitor._on_state({})  # KeyError swallowed, not latched
        assert not monitor.should_stop()
        monitor._on_state({"missing": 3})
        assert monitor.should_stop()

    def test_all_of_waits_for_every_branch(self):
        monitor = compile_cutoff(LOG & CRASH).factory()
        monitor._on_log(record("boom happened"))
        assert monitor.verdict() is None
        assert not monitor.should_stop()
        monitor._on_crash(
            SimpleNamespace(name="crasher-1", error=ValueError("x"))
        )
        assert monitor.should_stop()

    def test_any_of_decides_on_first_branch(self):
        monitor = compile_cutoff(LOG | STUCK).factory()
        monitor._on_log(record("boom happened"))
        assert monitor.verdict() is True
        assert monitor.should_stop()

    def test_undecided_branch_blocks_all_of(self):
        # A stuck-task leaf never decides mid-run: inside the AllOf it
        # pins the branch at undecided even though its sibling latched;
        # only the crash branch can decide the AnyOf.
        monitor = compile_cutoff((LOG & STUCK) | CRASH).factory()
        monitor._on_log(record("boom happened"))
        assert monitor.verdict() is None
        assert not monitor.should_stop()
        monitor._on_crash(
            SimpleNamespace(name="crasher-1", error=ValueError("x"))
        )
        assert monitor.should_stop()

    def test_not_flips_a_latched_subtree(self):
        monitor = compile_cutoff((~LOG) | CRASH).factory()
        monitor._on_log(record("boom happened"))
        # NOT(latched True) = False; the AnyOf stays undecided on the
        # crash branch rather than deciding False.
        assert monitor.verdict() is None
        monitor._on_crash(
            SimpleNamespace(name="crasher-1", error=ValueError("x"))
        )
        assert monitor.should_stop()

    def test_disable_cutoff_keeps_latching(self):
        monitor = compile_cutoff(LOG).factory()
        monitor.disable_cutoff()
        monitor._on_log(record("boom happened"))
        assert monitor.verdict() is True
        assert not monitor.should_stop()
        monitor.enable_cutoff()
        assert monitor.should_stop()

    def test_fired_gate_defers_cutoff_until_injection(self):
        monitor = compile_cutoff(LOG).factory()
        monitor._on_log(record("boom happened"))
        plan = InjectionPlan.single(FaultInstance("site", "IOException", 1))
        fir = SimpleNamespace(plan=plan, fired=None)
        monitor._fir = fir
        assert not monitor.should_stop()
        fir.fired = plan.instances[0]
        assert monitor.should_stop()

    def test_fired_gate_open_without_candidate_instances(self):
        monitor = compile_cutoff(LOG).factory()
        monitor._on_log(record("boom happened"))
        monitor._fir = SimpleNamespace(plan=None, fired=None)
        assert monitor.should_stop()


# ------------------------------------------------------- sim integration


def boom_workload(cluster):
    """Logs the symptom at t=0.5, writes disk at t=2.0, idles to the
    horizon — so cutoff time cleanly separates the three phases."""
    log = cluster.logger()

    def driver():
        yield cluster.sleep(0.5)
        log.info("boom happened")
        yield cluster.sleep(1.5)
        try:
            cluster.env.disk_write("/gate", b"x")
            log.info("write ok")
        except IOException as error:
            log.warn("write failed: %s", error)
        while True:
            yield cluster.sleep(0.5)

    cluster.spawn("driver", driver())


def quiet_workload(cluster):
    log = cluster.logger()

    def driver():
        while True:
            log.info("all is well")
            yield cluster.sleep(0.5)

    cluster.spawn("driver", driver())


class TestExecuteWorkloadCutoff:
    def test_satisfied_run_truncates_to_a_prefix(self):
        full = execute_workload(boom_workload, horizon=10.0, seed=1)
        cut = execute_workload(
            boom_workload,
            horizon=10.0,
            seed=1,
            monitor=compile_cutoff(LOG).factory(),
        )
        assert full.truncated_at is None
        assert full.end_time == 10.0
        assert cut.truncated_at is not None
        assert cut.truncated_at < 2.0
        assert LOG.satisfied(cut) and LOG.satisfied(full)
        assert full.log.to_text().startswith(cut.log.to_text())

    def test_unsatisfied_run_reaches_the_horizon(self):
        result = execute_workload(
            quiet_workload,
            horizon=5.0,
            seed=1,
            monitor=compile_cutoff(LOG).factory(),
        )
        assert result.truncated_at is None
        assert result.end_time == 5.0

    def test_fired_gate_holds_cutoff_for_the_injection(self):
        probe = execute_workload(boom_workload, horizon=10.0, seed=1)
        target = next(
            event for event in probe.trace if event.site_id.endswith("disk_write")
        )
        plan = InjectionPlan.single(
            FaultInstance(target.site_id, "IOException", target.occurrence)
        )
        cut = execute_workload(
            boom_workload,
            horizon=10.0,
            seed=1,
            plan=plan,
            monitor=compile_cutoff(LOG).factory(),
        )
        # The verdict latched at t=0.5 but the write fires at t=2.0: the
        # truncated result must still report a fired injection.
        assert cut.injected
        assert cut.injected_instance == plan.instances[0]
        assert cut.truncated_at is not None
        assert cut.truncated_at >= 2.0


class TestCacheRouting:
    def test_truncated_results_live_under_the_extended_key(self):
        cache = RunCache()
        cv = compile_cutoff(LOG)
        result, outcome = cache.execute(
            boom_workload,
            horizon=10.0,
            seed=1,
            monitor_factory=cv.factory,
            monitor_key=cv.key,
        )
        assert outcome == "miss"
        assert result.truncated_at is not None
        # The monitored consumer gets its truncated entry back.
        again, outcome = cache.execute(
            boom_workload,
            horizon=10.0,
            seed=1,
            monitor_factory=cv.factory,
            monitor_key=cv.key,
        )
        assert outcome == "hit"
        assert again.truncated_at is not None
        # An unmonitored consumer must never see the truncated entry —
        # its probe of the plain key misses and runs the full horizon.
        full, outcome = cache.execute(boom_workload, horizon=10.0, seed=1)
        assert outcome == "miss"
        assert full.truncated_at is None
        # Once the plain (full) entry exists it is probed first, so the
        # monitored consumer now prefers the stronger result.
        served, outcome = cache.execute(
            boom_workload,
            horizon=10.0,
            seed=1,
            monitor_factory=cv.factory,
            monitor_key=cv.key,
        )
        assert outcome == "hit"
        assert served.truncated_at is None

    def test_plain_entry_is_probed_before_the_extended_key(self):
        cache = RunCache()
        cv = compile_cutoff(LOG)
        full, _ = cache.execute(boom_workload, horizon=10.0, seed=1)
        served, outcome = cache.execute(
            boom_workload,
            horizon=10.0,
            seed=1,
            monitor_factory=cv.factory,
            monitor_key=cv.key,
        )
        assert outcome == "hit"
        assert served.truncated_at is None
        assert served.end_time == full.end_time

    def test_put_drops_truncated_results_without_a_key(self):
        cache = RunCache()
        cut = execute_workload(
            boom_workload,
            horizon=10.0,
            seed=1,
            monitor=compile_cutoff(LOG).factory(),
        )
        assert cut.truncated_at is not None
        cache.put(boom_workload, 10.0, 1, None, cut)
        assert cache.stats.stores == 0
        _, outcome = cache.execute(boom_workload, horizon=10.0, seed=1)
        assert outcome == "miss"

    def test_distinct_monitors_do_not_share_truncated_entries(self):
        cache = RunCache()
        cv = compile_cutoff(LOG)
        cache.execute(
            boom_workload,
            horizon=10.0,
            seed=1,
            monitor_factory=cv.factory,
            monitor_key=cv.key,
        )
        other = compile_cutoff(LogMessageOracle("write ok"))
        _, outcome = cache.execute(
            boom_workload,
            horizon=10.0,
            seed=1,
            monitor_factory=other.factory,
            monitor_key=other.key,
        )
        assert outcome == "miss"


# --------------------------------------------------------- property sweeps


def make_workload(spec):
    """A mini-system from (kind, param) actions: timestamped log lines,
    set-once state flags, an increasing counter, crashing tasks, and one
    permanently blocked task."""

    def workload(cluster):
        log = cluster.logger()
        inbox = cluster.net.register("silence")

        def never_signaled_wait():
            yield inbox.get()

        def crasher(n):
            def body():
                yield cluster.sleep(0.1 * (n + 1))
                raise ValueError(f"crash {n}")

            return body

        cluster.spawn("waiter", never_signaled_wait())

        def driver():
            for index, (kind, param) in enumerate(spec):
                if kind == "log":
                    log.info("event %d", param)
                elif kind == "flag":
                    cluster.state[f"flag{param}"] = True
                elif kind == "count":
                    cluster.state["count"] = cluster.state.get("count", 0) + 1
                elif kind == "crash":
                    cluster.spawn(f"crasher-{index}", crasher(param)())
                yield cluster.sleep(0.05 * (param + 1))

        cluster.spawn("driver", driver())

    return workload


ACTIONS = st.lists(
    st.tuples(
        st.sampled_from(["log", "flag", "count", "crash"]),
        st.integers(0, 3),
    ),
    min_size=1,
    max_size=10,
)

LATCHABLE_LEAVES = st.one_of(
    st.integers(0, 3).map(lambda n: LogMessageOracle(f"event {n}")),
    st.just(CrashedTaskOracle(task_prefix="crasher", error_type="ValueError")),
    st.integers(0, 3).map(
        lambda n: StatePredicateOracle(
            lambda state, n=n: state.get(f"flag{n}") is True,
            f"flag{n} set",
            monotone=True,
        )
    ),
)

ALL_LEAVES = st.one_of(
    LATCHABLE_LEAVES,
    st.just(StuckTaskOracle("never_signaled_wait")),
    st.integers(1, 3).map(
        lambda k: StatePredicateOracle(
            lambda state, k=k: state.get("count", 0) == k,
            f"count exactly {k}",
        )
    ),
)


def positive_trees(leaves):
    return st.recursive(
        leaves,
        lambda children: st.one_of(
            st.lists(children, min_size=1, max_size=3).map(AllOf),
            st.lists(children, min_size=1, max_size=3).map(AnyOf),
        ),
        max_leaves=6,
    )


def full_trees(leaves):
    return st.recursive(
        leaves,
        lambda children: st.one_of(
            st.lists(children, min_size=1, max_size=3).map(AllOf),
            st.lists(children, min_size=1, max_size=3).map(AnyOf),
            children.map(Not),
        ),
        max_leaves=6,
    )


def monitored_full_run(workload, oracle, seed):
    """A full-horizon run with watchpoints latching but cutoff held off
    (via the factory's disable switch, not a horizon trick)."""
    cv = compile_cutoff(oracle)
    if cv is None:
        return None, execute_workload(workload, horizon=4.0, seed=seed)
    monitor = cv.factory()
    monitor.disable_cutoff()
    result = execute_workload(workload, horizon=4.0, seed=seed, monitor=monitor)
    assert result.truncated_at is None
    return monitor, result


@given(spec=ACTIONS, seed=st.integers(0, 50), oracle=positive_trees(LATCHABLE_LEAVES))
@settings(max_examples=80, deadline=None)
def test_incremental_verdict_equals_post_hoc_for_latchable_trees(
    spec, seed, oracle
):
    """Not-free latchable trees: decided-True iff post-hoc satisfied.

    Every leaf here latches exactly when its post-hoc predicate holds
    (log/crash emission, genuinely monotone flags), so an undecided root
    at the horizon must mean an unsatisfied oracle."""
    monitor, result = monitored_full_run(make_workload(spec), oracle, seed)
    assert monitor is not None  # latchable trees always compile
    assert (monitor.verdict() is True) == oracle.satisfied(result)


@given(spec=ACTIONS, seed=st.integers(0, 50), oracle=full_trees(ALL_LEAVES))
@settings(max_examples=80, deadline=None)
def test_decided_verdicts_are_sound_for_arbitrary_trees(spec, seed, oracle):
    """Any tree, any leaves (stuck, non-monotone, Not): a decided
    incremental verdict always agrees with post-hoc ``satisfied``."""
    monitor, result = monitored_full_run(make_workload(spec), oracle, seed)
    if monitor is None:
        return
    verdict = monitor.verdict()
    if verdict is not None:
        assert verdict == oracle.satisfied(result)


@given(spec=ACTIONS, seed=st.integers(0, 50), oracle=full_trees(ALL_LEAVES))
@settings(max_examples=80, deadline=None)
def test_cutoff_runs_are_oracle_equivalent_prefixes(spec, seed, oracle):
    """With cutoff enabled: a truncated run satisfies the oracle (both
    truncated and full views) and is a strict log prefix of the full
    run; an untruncated monitored run is byte-identical to unmonitored."""
    workload = make_workload(spec)
    cv = compile_cutoff(oracle)
    if cv is None:
        return
    full = execute_workload(workload, horizon=4.0, seed=seed)
    cut = execute_workload(
        workload, horizon=4.0, seed=seed, monitor=cv.factory()
    )
    if cut.truncated_at is None:
        assert cut.log.to_text() == full.log.to_text()
        assert cut.end_time == full.end_time
    else:
        assert cut.truncated_at <= full.end_time
        assert oracle.satisfied(cut)
        assert oracle.satisfied(full)
        assert full.log.to_text().startswith(cut.log.to_text())


# ------------------------------------------------- explorer byte-identity


@pytest.mark.parametrize("case_id", ["f1", "f5", "f12"])
def test_explore_signature_identical_cutoff_on_off_jobs1(case_id):
    case = get_case(case_id)
    off = case.explorer(checkpoint=False, early_verdict=False).explore()
    on = case.explorer(checkpoint=False, early_verdict=True).explore()
    assert on.signature() == off.signature()
    assert on.success and off.success


def test_checkpointed_search_reports_cutoff_metrics(free_forks):
    """Fork-served cutoffs must reach the parent's ``verdict.*`` counters.

    The grandchild increments them in its own process and exits; the
    checkpoint ok frame ships the deltas back.  A checkpointed search
    must report the same movement an inline one does, or the CLI's
    early-verdict stderr line goes silent in its default configuration.
    """
    from repro.obs import metrics
    from repro.sim.checkpoint import checkpoint_supported

    if not checkpoint_supported():
        pytest.skip("requires os.fork (POSIX)")
    case = get_case("f24")
    inline_base = metrics.capture()
    result = case.explorer(checkpoint=False, early_verdict=True).explore()
    assert result.success
    inline = metrics.capture(since=inline_base)["counters"]
    assert inline.get("verdict.cutoffs", 0) > 0

    forked_base = metrics.capture()
    result = case.explorer(checkpoint=True, early_verdict=True).explore()
    assert result.success
    forked = metrics.capture(since=forked_base)["counters"]
    assert forked.get("sim.checkpoint.forks", 0) > 0
    for name in (
        "verdict.cutoffs",
        "verdict.virtual_seconds_saved",
        "verdict.events_saved",
    ):
        assert forked.get(name, 0) == pytest.approx(inline.get(name, 0))
