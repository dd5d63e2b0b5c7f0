"""Property tests: the simulator is a pure function of (workload, seed, plan).

Random mini-workloads are generated from a hypothesis-drawn spec; two
executions with identical inputs must produce byte-identical logs and
traces, and different seeds must be allowed to diverge.  The same must
hold across a process boundary — a ``ProcessPoolExecutor`` worker's run
is interchangeable with an inline run, which is what lets a campaign fan
its cells out over worker processes.
"""

import concurrent.futures

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.failures import get_case
from repro.injection.fir import InjectionPlan
from repro.injection.sites import FaultInstance
from repro.sim.cluster import Cluster, execute_workload
from repro.sim.errors import IOException


def make_workload(spec):
    """Build a workload from a list of (kind, param) action specs."""

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
                        log.info("wrote file %d", param)
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
                    delay = 0.01 * (1 + cluster.sim.random.random())
                    yield cluster.sleep(delay)
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
    min_size=1,
    max_size=15,
)


@given(spec=ACTIONS, seed=st.integers(0, 100))
@settings(max_examples=60, deadline=None)
def test_same_inputs_same_outputs(spec, seed):
    workload = make_workload(spec)
    a = execute_workload(workload, horizon=5.0, seed=seed)
    b = execute_workload(workload, horizon=5.0, seed=seed)
    assert a.log.to_text() == b.log.to_text()
    assert a.trace == b.trace
    assert a.site_counts == b.site_counts
    assert a.injection_requests == b.injection_requests


@given(spec=ACTIONS, seed=st.integers(0, 100), occurrence=st.integers(1, 5))
@settings(max_examples=60, deadline=None)
def test_injection_is_deterministic(spec, seed, occurrence):
    workload = make_workload(spec)
    probe = execute_workload(workload, horizon=5.0, seed=seed)
    if not probe.trace:
        return
    target = probe.trace[min(occurrence, len(probe.trace)) - 1]
    plan = InjectionPlan.single(
        FaultInstance(target.site_id, "IOException", target.occurrence)
    )
    a = execute_workload(workload, horizon=5.0, seed=seed, plan=plan)
    b = execute_workload(workload, horizon=5.0, seed=seed, plan=plan)
    assert a.injected and b.injected
    assert a.injected_instance == b.injected_instance
    assert a.log.to_text() == b.log.to_text()
    assert a.injection_requests == b.injection_requests


def traced_run(workload, seed, plan):
    """An armed run with its FIR trace: on a bare ``Cluster``, whose FIR
    traces by default (``execute_workload`` traces only unarmed runs)."""
    cluster = Cluster(seed=seed)
    cluster.fir.set_plan(plan)
    workload(cluster)
    return cluster.run(5.0)


@given(spec=ACTIONS)
@settings(max_examples=30, deadline=None)
def test_prefix_identical_until_injection(spec):
    """The run with an injection matches the fault-free run up to the
    injection point (the property the occurrence-addressing relies on)."""
    workload = make_workload(spec)
    probe = execute_workload(workload, horizon=5.0, seed=3)
    if len(probe.trace) < 2:
        return
    target = probe.trace[-1]
    plan = InjectionPlan.single(
        FaultInstance(target.site_id, "IOException", target.occurrence)
    )
    injected = traced_run(workload, 3, plan)
    assert injected.injected
    # Every trace event before the injected one matches the probe run.
    prefix_length = len(injected.trace) - 1
    assert injected.trace[:prefix_length] == probe.trace[:prefix_length]


# --------------------------------------------------------------------------
# Across a process boundary: a ProcessPoolExecutor worker's run must be
# interchangeable with an inline run.  The synthetic workloads above are
# closures (not picklable), so these use a registry case whose workload is
# a module-level function — what a campaign worker resolves from the
# case id it is sent.
# --------------------------------------------------------------------------


def run_signature(result):
    """Everything a run produced, minus wall-clock measurements."""
    return (
        result.log.to_text(),
        result.trace,
        result.injected_instance,
        result.injection_requests,
        tuple(sorted(result.site_counts.items())),
        tuple(result.stuck),
        tuple(result.crashed),
        result.end_time,
    )


def submit_to_worker(case, plan):
    try:
        with concurrent.futures.ProcessPoolExecutor(max_workers=1) as pool:
            return pool.submit(
                execute_workload, case.workload, case.horizon, case.seed, plan
            ).result()
    except OSError:
        pytest.skip("no subprocess support in this environment")


class TestWorkerProcessEquivalence:
    def test_worker_matches_inline_with_injection(self):
        case = get_case("f2")
        plan = InjectionPlan.single(case.ground_truth_instance())
        inline = execute_workload(
            case.workload, horizon=case.horizon, seed=case.seed, plan=plan
        )
        remote = submit_to_worker(case, plan)
        assert run_signature(remote) == run_signature(inline)
        assert remote.injected_instance == plan.instances[0]

    def test_worker_matches_inline_fault_free(self):
        case = get_case("f2")
        inline = execute_workload(
            case.workload, horizon=case.horizon, seed=case.seed
        )
        remote = submit_to_worker(case, None)
        assert run_signature(remote) == run_signature(inline)
