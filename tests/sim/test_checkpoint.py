"""Checkpoint/fork correctness: the snapshot layer and its invariance.

Three layers of guarantees, bottom up:

* identical runs digest to identical fingerprints (what the e2e
  benchmark's replay check builds on);
* a ``Checkpoint`` fork-served run equals a full inline replay field by
  field — fixed cases, plus a hypothesis sweep over random workloads,
  seeds, fork depths and plan kinds;
* the ``CheckpointPool`` cost model forks exactly when a fork pays
  (driven here by a fake clock), and its runner composes with the
  Explorer without changing any outcome: ``ExplorationResult.
  signature()`` matches checkpoint on/off.

Catalog cases are too cheap for the model to fork, so the equivalence
tests on them run under ``free_forks`` (``tests/conftest.py``) and the
``xl`` tests run the real model on a late-failing bench case; each
asserts that forks actually happened.  Everything process-level skips
on platforms without ``os.fork``.
"""

import dataclasses
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.oracle import LogMessageOracle, Oracle
from repro.core.verdict import compile_cutoff
from repro.failures import get_case
from repro.injection.fir import InjectionPlan, TraceEvent
from repro.injection.sites import FaultInstance
from repro.logs.record import LogFile
from repro.obs import metrics
from repro.sim import checkpoint as checkpoint_module
from repro.sim import (
    Checkpoint,
    CheckpointPool,
    checkpoint_supported,
    execute_workload,
    snapshot_fingerprint,
)
from repro.sim.checkpoint import _decode_result, _encode_result
from repro.sim.cluster import RunResult
from repro.sim.errors import IOException
from tests.bench_xl import xl_case

needs_fork = pytest.mark.skipif(
    not checkpoint_supported(), reason="requires os.fork (POSIX)"
)


def run_signature(result):
    """Every field of a run but its wall-clock measurement, by name."""
    fields = {
        field.name: getattr(result, field.name)
        for field in dataclasses.fields(result)
        if field.name != "decision_seconds"
    }
    fields["log"] = result.log.records
    fields["log_text"] = result.log.to_text()
    return fields


def forks() -> float:
    return metrics.get("sim.checkpoint.forks")


# -------------------------------------------------------------- fingerprint


def result_digest(result) -> str:
    """A run's digest, taken the way ``benchmarks/e2e/leg.py`` takes it."""
    return snapshot_fingerprint(
        {
            "log": result.log.to_text(),
            "state": result.state,
            "injected": result.injected,
            "stuck": sorted(task.name for task in result.stuck),
            "crashed": sorted(task.name for task in result.crashed),
            "end_time": result.end_time,
        }
    )


class TestFingerprint:
    def test_identical_runs_have_identical_fingerprints(self):
        case = get_case("f1")
        plan = InjectionPlan.single(case.ground_truth_instance())

        def run(plan=None):
            return execute_workload(
                case.workload, horizon=case.horizon, seed=case.seed, plan=plan
            )

        assert result_digest(run(plan)) == result_digest(run(plan))
        assert result_digest(run()) != result_digest(run(plan))


# -------------------------------------------------------------------- codec


class TestResultCodec:
    def test_roundtrip_preserves_signature(self):
        case = get_case("f1")
        plan = InjectionPlan.single(case.ground_truth_instance())
        result = execute_workload(
            case.workload, horizon=case.horizon, seed=case.seed, plan=plan
        )
        decoded = _decode_result(_encode_result(result))
        assert run_signature(decoded) == run_signature(result)
        assert decoded.state == result.state
        assert decoded.decision_seconds == result.decision_seconds

    def test_roundtrip_fault_free(self):
        case = get_case("f13")
        result = execute_workload(
            case.workload, horizon=case.horizon, seed=case.seed
        )
        decoded = _decode_result(_encode_result(result))
        assert run_signature(decoded) == run_signature(result)


# -------------------------------------------------------- checkpoint process


@needs_fork
class TestCheckpointFork:
    def test_fork_equals_full_replay(self):
        case = get_case("f1")
        probe = execute_workload(
            case.workload, horizon=case.horizon, seed=case.seed
        )
        fork_point = max(len(probe.trace) // 2, 1)
        with_plans = [
            InjectionPlan.single(
                FaultInstance(event.site_id, "IOException", event.occurrence)
            )
            for event in probe.trace[fork_point - 1 : fork_point + 2]
        ]
        checkpoint = Checkpoint(
            case.workload, case.horizon, case.seed, None, fork_point
        )
        try:
            for plan in with_plans:
                forked = checkpoint.run(plan)
                inline = execute_workload(
                    case.workload,
                    horizon=case.horizon,
                    seed=case.seed,
                    plan=plan,
                )
                assert forked is not None
                assert run_signature(forked) == run_signature(inline)
        finally:
            checkpoint.close()

    def test_trigger_never_reached_degrades(self):
        """A fork point past the end of the run refuses without hanging."""
        case = get_case("f1")
        probe = execute_workload(
            case.workload, horizon=case.horizon, seed=case.seed
        )
        checkpoint = Checkpoint(
            case.workload, case.horizon, case.seed, None,
            len(probe.trace) + 1000,
        )
        try:
            target = probe.trace[-1]
            plan = InjectionPlan.single(
                FaultInstance(target.site_id, "IOException", target.occurrence)
            )
            assert checkpoint.run(plan) is None
        finally:
            checkpoint.close()

    def test_closed_checkpoint_returns_none(self):
        case = get_case("f1")
        checkpoint = Checkpoint(case.workload, case.horizon, case.seed, None, 8)
        checkpoint.close()
        plan = InjectionPlan.single(
            FaultInstance("any-site", "IOException", 1)
        )
        assert checkpoint.run(plan) is None


# ---------------------------------------------------------------------- pool


@needs_fork
class TestCheckpointPool:
    def make_pool(self, case):
        probe = execute_workload(
            case.workload, horizon=case.horizon, seed=case.seed
        )
        return (
            CheckpointPool(case.workload, case.horizon, case.seed, probe.trace),
            probe,
        )

    def test_fork_point_semantics(self):
        case = get_case("f1")
        pool, probe = self.make_pool(case)
        with pool:
            target = probe.trace[len(probe.trace) // 2]
            plan = InjectionPlan.single(
                FaultInstance(target.site_id, "IOException", target.occurrence)
            )
            assert pool.fork_point(plan) == len(probe.trace) // 2 + 1
            # A pair absent from the probe can never fire: deepest point.
            ghost = InjectionPlan.single(
                FaultInstance("no-such-site", "IOException", 1)
            )
            assert pool.fork_point(ghost) == len(probe.trace)
            # Foreign base faults make the probe trace inapplicable.
            foreign = InjectionPlan.of(
                [FaultInstance(target.site_id, "IOException", 1)],
                always=[FaultInstance("base-site", "IOException", 1)],
            )
            assert pool.fork_point(foreign) is None
            assert pool.fork_point(None) is None

    def assert_runner_matches_inline(self, case, depths):
        """Every plan equals inline and is fork-served: the probe priced
        a request, so the first plan opens its rung at once."""
        pool, probe = self.make_pool(case)
        before = forks()
        with pool:
            for depth in depths:
                event = probe.trace[int(len(probe.trace) * depth) - 1]
                plan = InjectionPlan.single(
                    FaultInstance(
                        event.site_id, "IOException", event.occurrence
                    )
                )
                served = pool.runner(
                    case.workload,
                    case.horizon,
                    seed=case.seed,
                    plan=plan,
                )
                inline = execute_workload(
                    case.workload,
                    horizon=case.horizon,
                    seed=case.seed,
                    plan=plan,
                )
                assert run_signature(served) == run_signature(inline)
        assert forks() - before == len(depths)

    def test_runner_matches_inline(self, free_forks):
        self.assert_runner_matches_inline(get_case("f1"), (0.5, 0.5, 1.0))

    def test_xl_runner_matches_inline(self):
        """The measured model, unaided, forks a late-failing case."""
        self.assert_runner_matches_inline(xl_case("f1-xl"), (0.9, 0.8, 0.95))

    def test_benchmark_replay_leg_stays_fork_served(self, free_forks):
        """``benchmarks/e2e/leg.py``'s replay leg, call for call: a pool
        over a default probe's trace serves every ground-truth replay
        from a fork, the first included (the probe priced a request).  A
        window-less call that came back untraced would leave the pool
        ``broken`` and the leg's fork half inline."""
        case = xl_case("f1-xl")
        w, h, s = case.workload, case.horizon, case.seed
        plan = InjectionPlan.single(case.ground_truth_instance())
        inline = execute_workload(w, horizon=h, seed=s, plan=plan)
        assert case.oracle.satisfied(inline)
        before = forks()
        pool = CheckpointPool(w, h, s, execute_workload(w, horizon=h, seed=s).trace)
        try:
            replays = [pool.runner(w, horizon=h, seed=s, plan=plan) for _ in range(3)]
        finally:
            pool.close()
        assert forks() - before == len(replays)
        for result in replays:
            assert result.trace is None
            assert result.log.records == inline.log.records
            assert result_digest(result) == result_digest(inline)
            assert case.oracle.satisfied(result)

    def test_inconsistent_frame_is_rejected_and_rerun_inline(self, free_forks):
        """Prefix + suffix must add up to the run the grandchild finished."""
        case = get_case("f1")
        pool, probe = self.make_pool(case)
        event = probe.trace[-1]
        plan = InjectionPlan.single(
            FaultInstance(event.site_id, "IOException", event.occurrence)
        )
        run = dict(horizon=case.horizon, seed=case.seed, plan=plan)
        inline = execute_workload(case.workload, **run)
        before = metrics.capture()
        with pool:
            pool.runner(case.workload, **run)  # opens the rung, forks
            (rung,) = pool._rungs.values()
            rung._log_prefix.pop()
            served = pool.runner(case.workload, **run)
            assert rung.closed and not pool._rungs
        assert run_signature(served) == run_signature(inline)
        moved = metrics.capture(since=before)["counters"]
        assert moved["sim.checkpoint.forks"] == 1
        assert moved["sim.checkpoint.errors"] == 1
        assert moved["sim.checkpoint.fallbacks"] == 1

    def test_runner_falls_back_on_foreign_context(self):
        case = get_case("f1")
        pool, probe = self.make_pool(case)
        with pool:
            event = probe.trace[-1]
            plan = InjectionPlan.single(
                FaultInstance(event.site_id, "IOException", event.occurrence)
            )
            # Different seed: must not be served from the pool's holders.
            foreign = pool.runner(
                case.workload, case.horizon, seed=case.seed + 1, plan=plan
            )
            inline = execute_workload(
                case.workload,
                horizon=case.horizon,
                seed=case.seed + 1,
                plan=plan,
            )
            assert run_signature(foreign) == run_signature(inline)
            # Fault-free runs never fork (nothing to arm).
            free = pool.runner(case.workload, case.horizon, seed=case.seed)
            probe_again = execute_workload(
                case.workload, horizon=case.horizon, seed=case.seed
            )
            assert run_signature(free) == run_signature(probe_again)


# ---------------------------------------------------------------- cost model


class FakeHost:
    """A clock, an inline run and rungs whose costs the test dictates.

    Stands in for everything the pool's cost model measures: a run of
    ``requests`` requests takes ``run_seconds`` inline; opening a rung
    costs a bare fork (``floor``) plus its prefix at that rate; a fork
    replays the requests past its rung at the same rate plus
    ``fork_overhead``.  ``prior`` is the process-wide price of a request
    the pool starts from (``None``: nothing has priced one yet).
    Nothing real runs, so every decision is a function of these numbers.
    """

    def __init__(
        self, monkeypatch, run_seconds, floor, fork_overhead=None,
        requests=1000, prior=None,
    ):
        self.now = 0.0
        self.requests = requests
        self.run_seconds = run_seconds
        self.fork_overhead = floor if fork_overhead is None else fork_overhead
        self.inline_runs = 0
        self.opened = []
        self.forked_from = []
        #: Per fork: requests between the rung and the plan's fork point.
        self.gaps = []
        host = self

        class Rung:
            closed = False

            def __init__(self, workload, horizon, seed, base_plan, at_request,
                         monitor_factory=None):
                self.at_request = at_request
                host.opened.append(at_request)
                host.now += floor + at_request / host.requests * host.run_seconds

            def run(self, plan):
                host.forked_from.append(self.at_request)
                host.gaps.append(int(plan.instances[0].site_id[1:]) - self.at_request)
                replayed = (host.requests - self.at_request) / host.requests
                host.now += host.fork_overhead + replayed * host.run_seconds
                return host.result()

            def close(self):
                self.closed = True

        monkeypatch.setattr(checkpoint_module, "_clock", lambda: self.now)
        monkeypatch.setattr(checkpoint_module, "execute_workload", self.execute)
        monkeypatch.setattr(checkpoint_module, "Checkpoint", Rung)
        monkeypatch.setattr(
            checkpoint_module, "request_price",
            lambda: math.inf if prior is None else prior,
        )
        monkeypatch.setattr(
            checkpoint_module.ForkCost, "_bare_fork", staticmethod(lambda: floor)
        )
        monkeypatch.setattr(
            checkpoint_module, "_fork_cost", checkpoint_module.ForkCost()
        )
        self.pool = CheckpointPool(
            self.workload, 10.0, 0,
            [TraceEvent(f"s{i}", 1, 0.0, 0) for i in range(1, requests + 1)],
        )

    @staticmethod
    def workload(cluster):
        raise AssertionError("the fake host never builds a cluster")

    def result(self):
        return RunResult(
            log=LogFile(), trace=[], injected=False, injected_instance=None,
            stuck=[], crashed=[], state={}, end_time=0.0, site_counts={},
            injection_requests=self.requests,
        )

    def execute(self, workload, **kwargs):
        self.inline_runs += 1
        self.now += self.run_seconds
        return self.result()

    def run(self, depth):
        """One runner call for a plan first firing at request ``depth``."""
        plan = InjectionPlan.single(FaultInstance(f"s{depth}", "IOException", 1))
        return self.pool.runner(self.workload, 10.0, seed=0, plan=plan)


#: 0.1 s runs of 1,000 requests: 100 µs a request, so a 2 ms fork
#: breaks even at 20 requests.
PRICE = 0.100 / 1000


@needs_fork
class TestCostModel:
    def test_with_a_prior_a_run_cheaper_than_a_fork_never_forks(
        self, monkeypatch
    ):
        host = FakeHost(
            monkeypatch, run_seconds=0.001, floor=0.002, prior=0.001 / 1000
        )
        assert host.pool.broken  # decided at construction
        for depth in (900, 950, 1000):
            host.run(depth)
        assert host.opened == [] and host.forked_from == []
        assert host.inline_runs == 3

    def test_run_cheaper_than_a_fork_never_forks(self, monkeypatch):
        host = FakeHost(monkeypatch, run_seconds=0.001, floor=0.002)  # no prior
        assert not host.pool.broken
        host.run(900)  # prices a request, which breaks the pool
        assert host.pool.broken
        for depth in (900, 950, 1000):
            host.run(depth)
        assert host.opened == [] and host.forked_from == []
        assert host.inline_runs == 4

    def test_with_a_prior_a_long_run_forks_from_its_first_eligible_plan(
        self, monkeypatch
    ):
        host = FakeHost(monkeypatch, run_seconds=0.100, floor=0.002, prior=PRICE)
        for depth in (900, 900, 910, 1000):
            host.run(depth)
        # One rung at the first plan's own depth serves all four: the
        # others lie less than a step (125 requests) above it.
        assert host.inline_runs == 0
        assert host.opened == [900]
        assert host.forked_from == [900, 900, 900, 900]
        assert not host.pool.broken

    def test_long_run_forks_from_the_second_eligible_plan_on(self, monkeypatch):
        host = FakeHost(monkeypatch, run_seconds=0.100, floor=0.002)  # no prior
        for depth in (900, 900, 910, 1000):
            host.run(depth)
        # The first eligible plan is the measurement, never a duplicate:
        # one inline run, and every later plan fork-served.
        assert host.inline_runs == 1
        assert host.forked_from == [900, 900, 900]
        assert not host.pool.broken

    def test_a_repeated_fork_point_forks_from_a_rung_at_exactly_that_depth(
        self, monkeypatch
    ):
        host = FakeHost(monkeypatch, run_seconds=0.100, floor=0.002, prior=PRICE)
        for depth in (640, 900, 640, 900):
            host.run(depth)
        assert host.opened == [640, 900]
        assert host.forked_from == [640, 900, 640, 900]
        assert host.gaps == [0, 0, 0, 0]

    def test_the_open_prices_the_workload_not_the_prior(self, monkeypatch):
        # The prior is a tenth of this workload's price, as when another
        # workload's requests came cheaper.  Judged by it, each fork's
        # 100 replayed requests would read as 9 ms of overhead and break
        # the pool; the open's own price reads the true 2 ms.
        host = FakeHost(
            monkeypatch, run_seconds=0.100, floor=0.002, prior=PRICE / 10
        )
        for depth in (900, 800, 950, 900):
            host.run(depth)
        assert host.inline_runs == 0
        assert host.forked_from == [900, 800, 900, 900]
        assert not host.pool.broken

    def test_every_run_not_fork_served_executes_exactly_once(self, monkeypatch):
        host = FakeHost(monkeypatch, run_seconds=0.100, floor=0.002, prior=PRICE)
        depths = (900, 10, 900, 5, 640, 10, 1000, 900)
        for depth in depths:
            host.run(depth)
        host.pool.runner(host.workload, 10.0, seed=1, plan=None)  # foreign
        assert host.inline_runs + len(host.forked_from) == len(depths) + 1
        # Break-even at 20 requests: the plans firing at requests 5 and
        # 10 stay inline, and so does the foreign run.
        assert host.inline_runs == 3 + 1

    def test_a_losing_rung_is_dropped_and_deeper_rungs_live_on(self, monkeypatch):
        # Forks turn out to cost 40 ms, not the 2 ms floor: worth 400 of
        # this run's requests.
        host = FakeHost(
            monkeypatch, run_seconds=0.100, floor=0.002, fork_overhead=0.040,
            prior=PRICE,
        )
        host.run(300)                     # rung 300 opens; its fork shows 40 ms
        assert host.forked_from == [300]
        host.run(300)                     # 300 requests no longer pay
        host.run(260)
        assert host.forked_from == [300] and host.inline_runs == 2
        host.run(900)                     # 900 still do
        host.run(900)
        assert host.forked_from == [300, 900, 900]
        assert host.opened == [300, 900] and not host.pool.broken


@needs_fork
@given(
    depths=st.lists(st.integers(1, 1000), min_size=1, max_size=30),
    prior=st.sampled_from([None, PRICE, PRICE / 10]),
)
@settings(max_examples=60, deadline=None)
def test_no_served_plan_replays_a_grid_step_or_more(depths, prior):
    with pytest.MonkeyPatch.context() as monkeypatch:
        host = FakeHost(monkeypatch, run_seconds=0.100, floor=0.002, prior=prior)
        for depth in depths:
            host.run(depth)
    step = host.requests // checkpoint_module.MAX_RUNGS
    assert all(0 <= gap < step for gap in host.gaps)
    assert host.inline_runs + len(host.gaps) == len(depths)


# ------------------------------------------------------- hypothesis property


def make_workload(spec):
    """Closure workload from (kind, param) specs — forkable, not picklable."""

    def workload(cluster):
        env = cluster.env
        log = cluster.logger()
        inbox = cluster.net.register("sink")

        def sink():
            while True:
                raw = yield inbox.get(timeout=2.0)
                if raw is None:
                    continue
                try:
                    message = env.sock_recv(raw)
                except IOException as error:
                    log.warn("sink dropped packet: %s", error)
                    continue
                log.info("sink got %s", message.payload)

        def driver():
            for kind, param in spec:
                if kind == "write":
                    try:
                        env.disk_write(f"/f{param}", b"x" * (param + 1))
                    except IOException as error:
                        log.warn("write %d failed: %s", param, error)
                elif kind == "send":
                    try:
                        env.sock_send("driver", "sink", "data", param)
                    except IOException as error:
                        log.warn("send %d failed: %s", param, error)
                elif kind == "sleep":
                    yield cluster.sleep(0.05 * (param + 1))
                elif kind == "jitter":
                    yield cluster.sleep(
                        0.01 * (1 + cluster.sim.random.random())
                    )
            log.info("driver finished")
            yield cluster.sleep(0.0)

        cluster.spawn("sink", sink())
        cluster.spawn("driver", driver())

    return workload


ACTIONS = st.lists(
    st.tuples(
        st.sampled_from(["write", "send", "sleep", "jitter"]),
        st.integers(0, 5),
    ),
    min_size=2,
    max_size=12,
)


#: What kind of plan forks: a raised exception; the same on top of an
#: always-on base fault; a soft fault (the op succeeds with a corrupted
#: value); a raise under a verdict monitor that cuts the run short the
#: moment the fault's log line appears — right after the fork point.
PLAN_KINDS = ("raise", "always", "corrupt", "verdict")
FAULT_LOGGED = compile_cutoff(LogMessageOracle("failed|dropped"))


@needs_fork
@given(
    spec=ACTIONS,
    seed=st.integers(0, 50),
    # 1.0 forks at the last request: the trace suffix is empty.
    depth=st.one_of(st.just(1.0), st.floats(0.1, 1.0)),
    kind=st.sampled_from(PLAN_KINDS),
)
@settings(max_examples=40, deadline=None)
def test_fork_suffix_equals_full_replay(spec, seed, depth, kind):
    """For any workload, seed, fork depth and plan kind: prefix + shipped
    suffix == the inline run, field by field."""
    workload = make_workload(spec)
    base = []
    if kind == "always":
        first = execute_workload(workload, horizon=5.0, seed=seed).trace[:1]
        base = [FaultInstance(e.site_id, "IOException", e.occurrence) for e in first]
    base_plan = InjectionPlan.of([], always=base)
    probe = execute_workload(workload, horizon=5.0, seed=seed, plan=base_plan)
    if len(probe.trace) < 2:
        return
    fork_point = max(1, min(len(probe.trace), int(len(probe.trace) * depth)))
    target = probe.trace[fork_point - 1]
    fault = "corrupt:bitflip_field" if kind == "corrupt" else "IOException"
    plan = InjectionPlan.of(
        [FaultInstance(target.site_id, fault, target.occurrence)], always=base
    )
    factory = FAULT_LOGGED.factory if kind == "verdict" else None
    checkpoint = Checkpoint(
        workload, 5.0, seed, base_plan, fork_point, monitor_factory=factory
    )
    try:
        forked = checkpoint.run(plan)
        inline = execute_workload(
            workload, horizon=5.0, seed=seed, plan=plan,
            monitor=factory and factory(),
        )
        assert forked is not None
        # Both armed, so both untraced: the fork is checked on its log,
        # state, site counts and request count, field by field.
        assert forked.trace is None and inline.trace is None
        assert run_signature(forked) == run_signature(inline)
    finally:
        checkpoint.close()


# ----------------------------------------------------------------- explorer


class NeverSatisfied(Oracle):
    """Keeps a search going for its whole round budget.

    Most catalog cases reproduce in round one; a search has to last for
    its rounds to fork from more than one rung.
    """

    description = "never satisfied"

    def satisfied(self, result) -> bool:
        return False


@needs_fork
class TestExplorerEquivalence:
    def assert_signature_identical(self, case, **search):
        case.failure_log()  # generated (and cached per id) under the real oracle
        plain = case.explorer(**search).explore()
        before = forks()
        forked = case.explorer(checkpoint=True, **search).explore()
        assert forks() > before, "no run was fork-served"
        assert forked.signature() == plain.signature()

    @pytest.mark.parametrize("case_id", ["f1", "f9", "f13", "f19", "f22"])
    def test_signature_identical_checkpoint_on_off(self, case_id, free_forks):
        self.assert_signature_identical(
            get_case(case_id), max_rounds=12, oracle=NeverSatisfied()
        )

    def test_reproducing_run_is_fork_served(self, free_forks):
        """f9 reproduces in round two: the run the script is cut from."""
        self.assert_signature_identical(get_case("f9"), max_rounds=40)

    def test_xl_signature_identical_checkpoint_on_off(self):
        """The measured model, unaided: each round forks off a rung
        three quarters into a 90 ms run, priced by the probe."""
        self.assert_signature_identical(
            xl_case("f1-xl"), max_rounds=5, oracle=NeverSatisfied()
        )
