"""One search setup (DESIGN §5.4): ANDURIL and the nine baselines build
their per-search state through ``build_context``, so every field of
``SearchParams`` means one thing for all ten.
"""

import pytest

from repro.baselines import ALL_STRATEGIES, StrategyRunner
from repro.bench.harness import run_baseline
from repro.bench.parallel import CampaignTask, execute_task
from repro.core.params import SearchParams
from repro.failures import get_case
from repro.obs.coverage import enumerate_fault_space

CASE_ID = "f11"


def contexts(params: SearchParams) -> dict:
    """Each strategy's context on the case, in one process."""
    case = get_case(CASE_ID)
    found = {"anduril": case.explorer(params=params).prepare()}
    for name, factory in ALL_STRATEGIES.items():
        strategy = factory()
        StrategyRunner(max_rounds=0, max_seconds=None, params=params).run(
            strategy, case
        )
        found[name] = strategy.context
    return found


def test_ten_strategies_share_one_case_and_account_one_pruned_space():
    found = contexts(SearchParams(prune="static", adjustment=2))
    anduril = found.pop("anduril")
    summary = anduril.coverage.summary()
    assert summary.pruned_space_size < summary.space_size
    for name, context in found.items():
        assert context.prepared is anduril.prepared, name
        assert context.params == anduril.params, name
        assert context.flow_graph is anduril.flow_graph, name
        assert context.observables is not anduril.observables, name
        theirs = context.coverage.summary()
        assert (theirs.space_size, theirs.pruned_space_size) == (
            summary.space_size, summary.pruned_space_size,
        ), name


def test_the_instance_cap_bounds_andurils_coverage_space():
    case = get_case(CASE_ID)
    capped = case.explorer(
        max_instances_per_site=1, prune="static"
    ).prepare()
    prepared = capped.prepared
    space = enumerate_fault_space(
        prepared.candidates, prepared.occurrences, max_instances_per_site=1
    )
    summary = capped.coverage.summary()
    assert summary.space_size == len(space) < len(prepared.fault_space)
    assert summary.pruned_space_size <= summary.space_size
    assert case.explorer().prepare().coverage.space_size == len(
        prepared.fault_space
    )


POLICY_ONLY = {
    "initial_window": 2,
    "aggregate": "sum",
    "temporal_mode": "order",
    "max_instances_per_site": 1,
    "runs_per_round": 3,
}


@pytest.mark.parametrize("field", sorted(POLICY_ONLY))
def test_a_baseline_refuses_what_only_andurils_policy_reads(field):
    knob = {field: POLICY_ONLY[field]}
    with pytest.raises(ValueError, match=field):
        run_baseline("random", get_case(CASE_ID), max_rounds=1, **knob)
    with pytest.raises(ValueError, match=field):
        execute_task(CampaignTask.baseline("random", CASE_ID, max_rounds=1, **knob))


def test_a_baseline_reads_the_shared_knobs():
    outcome = run_baseline(
        "random", get_case(CASE_ID), max_rounds=1, adjustment=7,
        prune="static", prune_radius=2, fault_dims="all",
    )
    assert "pruned_space" in outcome.coverage
    assert outcome.params == dict(
        vars(SearchParams()), adjustment=7, prune="static", prune_radius=2.0,
        fault_dims="all",
    )
