"""A window runs as the instance that fires first (DESIGN §8.2).

Until its first injection a run replays the window-less run of the same
workload, seed, horizon and base faults — the probe — request for
request, and once an instance fires the rest of the window is inert.
So a window ``W`` and the plan that arms only ``W.first_firing(probe)``
(with ``W``'s base faults) drive the same run.  The property draws
windows from the fault spaces of four catalog cases and salts them with
the pairs ``first_firing`` must skip or never reach: pairs the probe
lacks, pairs a base fault shadows, and corruptions at ops that cannot
carry them.
"""

import functools

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.params import SearchParams
from repro.core.prepared import prepared_case
from repro.failures import get_case
from repro.injection.corruptions import CORRUPTIONS, corruption_kinds_for_op
from repro.injection.fir import InjectionPlan, dedupe_instances
from repro.injection.sites import FaultInstance
from repro.sim.cluster import execute_workload

CASES = ("f1", "f11", "f14", "f24")

#: Every field of a run that its plan could move (``trace`` is recorded
#: for window-less runs only, ``decision_seconds`` is wall clock).
FIELDS = (
    "state", "injected_instance", "stuck", "crashed", "end_time",
    "site_counts", "injection_requests", "base_faults_fired",
)


@functools.lru_cache(maxsize=None)
def fault_space(case_id):
    case = get_case(case_id)
    prepared = prepared_case(
        case.model(), case.workload, case.horizon, case.seed,
        case.failure_log(), params=SearchParams(fault_dims=case.fault_dims),
    )
    return sorted(prepared.fault_space)


@functools.lru_cache(maxsize=None)
def probe_of(case_id, base):
    case = get_case(case_id)
    plan = InjectionPlan.of([], always=base) if base else None
    return execute_workload(
        case.workload, horizon=case.horizon, seed=case.seed, plan=plan
    ).trace


def run(case_id, plan):
    case = get_case(case_id)
    return execute_workload(
        case.workload, horizon=case.horizon, seed=case.seed, plan=plan
    )


@st.composite
def windows(draw):
    """``(case id, window plan)`` with base faults and salted pairs."""
    case_id = draw(st.sampled_from(CASES))
    space = fault_space(case_id)
    triples = st.sampled_from(space)
    base = tuple(dedupe_instances(
        FaultInstance(*triple) for triple in draw(st.lists(triples, max_size=2))
    ))
    probe = probe_of(case_id, base)
    window = [FaultInstance(*triple) for triple in draw(st.lists(triples, max_size=8))]
    # Pairs the probe never reaches.
    for site, spec, occurrence in draw(st.lists(triples, max_size=2)):
        window.append(FaultInstance(site, spec, occurrence + 10**6))
    if draw(st.booleans()):
        window.append(FaultInstance("no-such-site", "IOException", 1))
    # Pairs a base fault shadows, under the base fault's spec or another.
    for fault in base:
        if draw(st.booleans()):
            spec = draw(st.sampled_from([fault.spec, "IOException"]))
            window.append(FaultInstance(fault.site_id, spec, fault.occurrence))
    # Corruptions at ops that cannot carry them.
    for position in draw(st.lists(st.integers(0, len(probe) - 1), max_size=3)):
        event = probe[position]
        op = event.site_id.rsplit(":", 1)[-1]
        foreign = sorted(set(CORRUPTIONS) - set(corruption_kinds_for_op(op)))
        if foreign:
            kind = draw(st.sampled_from(foreign))
            window.append(
                FaultInstance(event.site_id, "corrupt:" + kind, event.occurrence)
            )
    window = dedupe_instances(draw(st.permutations(window)))
    return case_id, InjectionPlan.of(window, always=base)


@settings(
    max_examples=150, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(windows())
def test_a_window_runs_as_its_first_firing_instance(drawn):
    case_id, window = drawn
    base = tuple(window.always)
    first = window.first_firing(probe_of(case_id, base))
    reduced = (
        InjectionPlan.of([first] if first else [], always=base)
        if first or base else None
    )
    full, alone = run(case_id, window), run(case_id, reduced)
    assert first == full.injected_instance
    assert full.log.records == alone.log.records
    for field in FIELDS:
        assert getattr(full, field) == getattr(alone, field), field
