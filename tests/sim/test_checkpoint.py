"""Checkpoint/fork correctness: the snapshot layer and its invariance.

Three layers of guarantees, bottom up:

* identical runs digest to identical fingerprints (what the e2e
  benchmark's replay check builds on);
* a ``Checkpoint`` fork-served run equals a full inline replay field by
  field — fixed cases, plus a hypothesis sweep over random workloads,
  seeds, fork depths and plan kinds;
* a ``CheckpointPool`` forks every eligible plan from one live rung at
  exactly its fork point, and a pool-served run equals the same run
  inline; whatever cannot fork, or fails to, runs inline.

No search forks (DESIGN §10): the pool is the library the e2e
benchmark's replay leg drives, and these tests drive it the same way,
on catalog cases and on a late-failing ``xl`` bench case; each asserts
that forks actually happened.  Everything process-level skips on
platforms without ``os.fork``.
"""

import dataclasses
import errno
import os
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.failures import get_case
from repro.injection.fir import InjectionPlan
from repro.injection.sites import FaultInstance
from repro.obs import metrics
from repro.sim import checkpoint as checkpoint_module
from repro.sim import (
    Checkpoint,
    CheckpointPool,
    checkpoint_supported,
    execute_workload,
    snapshot_fingerprint,
)
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


def pickled(result):
    """``result`` after the trip every cache record and fork frame makes."""
    return pickle.loads(pickle.dumps(result, pickle.HIGHEST_PROTOCOL))


class TestResultCodec:
    def test_roundtrip_preserves_signature(self):
        case = get_case("f1")
        plan = InjectionPlan.single(case.ground_truth_instance())
        result = execute_workload(
            case.workload, horizon=case.horizon, seed=case.seed, plan=plan
        )
        decoded = pickled(result)
        assert run_signature(decoded) == run_signature(result)
        assert decoded.state == result.state
        assert decoded.decision_seconds == result.decision_seconds

    def test_roundtrip_fault_free(self):
        case = get_case("f13")
        result = execute_workload(
            case.workload, horizon=case.horizon, seed=case.seed
        )
        decoded = pickled(result)
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
        checkpoint = Checkpoint(case.workload, case.horizon, case.seed, fork_point)
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
            case.workload, case.horizon, case.seed, len(probe.trace) + 1000
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
        checkpoint = Checkpoint(case.workload, case.horizon, case.seed, 8)
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
            # The holder runs fault-free: any always-on fault is foreign.
            foreign = InjectionPlan.of(
                [FaultInstance(target.site_id, "IOException", 1)],
                always=[FaultInstance("base-site", "IOException", 1)],
            )
            assert pool.fork_point(foreign) is None
            assert pool.fork_point(None) is None

    def test_the_fork_point_is_the_first_firing_instance(self):
        """A window whose earliest pair is a corruption its op cannot
        carry forks where the instance it does fire sits, not earlier."""
        case = get_case("f1")
        pool, probe = self.make_pool(case)
        trace = probe.trace
        early = next(
            i for i, site in enumerate(trace.sites) if site.endswith(":disk_write")
        )
        later = early + 1 + (len(trace) - early - 1) // 2
        uncarried = FaultInstance(
            trace[early].site_id, "corrupt:truncate_read", trace[early].occurrence
        )
        fired = FaultInstance(
            trace[later].site_id, "IOException", trace[later].occurrence
        )
        plan = InjectionPlan.of([uncarried, fired])
        assert plan.first_firing(trace) == fired
        with pool:
            assert pool.fork_point(plan) == later + 1
            served = pool.runner(
                case.workload, case.horizon, seed=case.seed, plan=plan
            )
        inline = execute_workload(
            case.workload, horizon=case.horizon, seed=case.seed, plan=plan
        )
        assert served.injected_instance == fired
        assert run_signature(served) == run_signature(inline)

    @staticmethod
    def plan_at(probe, depth):
        """A plan first firing ``depth`` of the way into the probe trace."""
        event = probe.trace[int(len(probe.trace) * depth) - 1]
        return InjectionPlan.single(
            FaultInstance(event.site_id, "IOException", event.occurrence)
        )

    def assert_runner_matches_inline(self, case, depths):
        """Every plan equals inline and is fork-served."""
        pool, probe = self.make_pool(case)
        before = forks()
        with pool:
            for depth in depths:
                plan = self.plan_at(probe, depth)
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

    def test_runner_matches_inline(self):
        self.assert_runner_matches_inline(get_case("f1"), (0.5, 0.5, 1.0))

    def test_xl_runner_matches_inline(self):
        self.assert_runner_matches_inline(xl_case("f1-xl"), (0.9, 0.8, 0.95))

    def test_benchmark_replay_leg_stays_fork_served(self):
        """``benchmarks/e2e/leg.py``'s replay leg, call for call: a pool
        over a default probe's trace serves every ground-truth replay
        from a fork, the first included."""
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

    def test_inconsistent_frame_is_rejected_and_rerun_inline(self):
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
            rung._log_prefix = rung._log_prefix[:-1]
            served = pool.runner(case.workload, **run)
            assert rung.closed and not pool._rungs
        assert run_signature(served) == run_signature(inline)
        moved = metrics.capture(since=before)["counters"]
        assert moved["sim.checkpoint.forks"] == 1
        assert moved["sim.checkpoint.errors"] == 1
        assert moved["sim.checkpoint.fallbacks"] == 1

    def test_alternating_fork_points_keep_one_live_rung(self):
        """Each call forks from a rung at exactly its own fork point; a
        new fork point replaces the rung, and every holder is reaped.
        (Holders are checked by pid: the test process may have other
        children, such as multiprocessing's resource tracker.)"""
        case = get_case("f1")
        pool, probe = self.make_pool(case)
        plans = [self.plan_at(probe, depth) for depth in (0.5, 0.9)] * 3
        holders = set()
        before = forks()
        with pool:
            for plan in plans:
                served = pool.runner(
                    case.workload, case.horizon, seed=case.seed, plan=plan
                )
                inline = execute_workload(
                    case.workload, horizon=case.horizon, seed=case.seed, plan=plan
                )
                assert run_signature(served) == run_signature(inline)
                assert list(pool._rungs) == [pool.fork_point(plan)]
                holders.update(rung._pid for rung in pool._rungs.values())
        assert forks() - before == len(plans)
        assert len(holders) == len(plans)
        for pid in holders:
            with pytest.raises(ChildProcessError):
                os.waitpid(pid, os.WNOHANG)

    @pytest.mark.skipif(
        not os.path.isdir("/proc/self/fd"), reason="requires /proc/self/fd"
    )
    def test_a_holder_that_fails_to_open_falls_back_inline(self, monkeypatch):
        """No fork for the holder: the plan runs inline, and no pipe
        descriptor outlives the attempt."""

        def no_fork():
            raise OSError(errno.EAGAIN, "Resource temporarily unavailable")

        case = get_case("f1")
        pool, probe = self.make_pool(case)
        plan = self.plan_at(probe, 0.5)
        run = dict(horizon=case.horizon, seed=case.seed, plan=plan)
        inline = execute_workload(case.workload, **run)
        monkeypatch.setattr(checkpoint_module, "_fork", no_fork)
        open_fds = len(os.listdir("/proc/self/fd"))
        before = metrics.capture()
        with pool:
            served = pool.runner(case.workload, **run)
        assert len(os.listdir("/proc/self/fd")) == open_fds
        assert run_signature(served) == run_signature(inline)
        moved = metrics.capture(since=before)["counters"]
        assert moved["sim.checkpoint.errors"] == 1
        assert moved["sim.checkpoint.fallbacks"] == 1
        assert moved.get("sim.checkpoint.forks", 0) == 0

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


# ------------------------------------------------------------ fork or inline


@needs_fork
class TestCostModel:
    """Where a runner call goes: a fork from a rung at exactly the plan's
    fork point, or one inline run — never both, never neither."""

    def test_a_repeated_fork_point_forks_from_a_rung_at_exactly_that_depth(
        self,
    ):
        case = get_case("f1")
        pool, probe = TestCheckpointPool().make_pool(case)
        plans = [
            TestCheckpointPool.plan_at(probe, depth)
            for depth in (0.5, 0.5, 0.9, 0.9, 0.9)
        ]
        before = metrics.capture()
        with pool:
            for plan in plans:
                pool.runner(case.workload, case.horizon, seed=case.seed, plan=plan)
                assert list(pool._rungs) == [pool.fork_point(plan)]
        moved = metrics.capture(since=before)["counters"]
        # A repeated fork point reuses its rung; a new one opens a rung.
        assert moved["sim.checkpoint.opens"] == 2
        assert moved["sim.checkpoint.forks"] == len(plans)

    def test_every_run_not_fork_served_executes_exactly_once(self, monkeypatch):
        inline_runs = []

        def counted(workload, **kwargs):
            inline_runs.append(kwargs)
            return execute_workload(workload, **kwargs)

        monkeypatch.setattr(checkpoint_module, "execute_workload", counted)
        case = get_case("f1")
        pool, probe = TestCheckpointPool().make_pool(case)
        plan = TestCheckpointPool.plan_at(probe, 0.5)
        always = InjectionPlan.of(
            list(plan.instances),
            always=[FaultInstance("base-site", "IOException", 1)],
        )
        w, h, s = case.workload, case.horizon, case.seed
        calls = [
            dict(seed=s, plan=plan),
            dict(seed=s + 1, plan=plan),  # foreign seed
            dict(seed=s, plan=None),  # nothing armed
            dict(seed=s, plan=always),  # the holder runs fault-free
            dict(seed=s, plan=TestCheckpointPool.plan_at(probe, 0.9)),
        ]
        before = forks()
        with pool:
            for call in calls:
                pool.runner(w, h, **call)
        assert len(inline_runs) + forks() - before == len(calls)
        assert len(inline_runs) == 3



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


#: What kind of plan forks: a raised exception, or a soft fault (the op
#: succeeds with a corrupted value).
PLAN_KINDS = ("raise", "corrupt")


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
    probe = execute_workload(workload, horizon=5.0, seed=seed)
    if len(probe.trace) < 2:
        return
    fork_point = max(1, min(len(probe.trace), int(len(probe.trace) * depth)))
    target = probe.trace[fork_point - 1]
    fault = "corrupt:bitflip_field" if kind == "corrupt" else "IOException"
    plan = InjectionPlan.single(
        FaultInstance(target.site_id, fault, target.occurrence)
    )
    checkpoint = Checkpoint(workload, 5.0, seed, fork_point)
    try:
        forked = checkpoint.run(plan)
        inline = execute_workload(workload, horizon=5.0, seed=seed, plan=plan)
        assert forked is not None
        # Both armed, so both untraced: the fork is checked on its log,
        # state, site counts and request count, field by field.
        assert forked.trace is None and inline.trace is None
        assert run_signature(forked) == run_signature(inline)
    finally:
        checkpoint.close()
