"""The prepared case (DESIGN §5.4): one artefact shared by every search
over a case, mutable state fresh per search.

The property: running a case's ten cells — ANDURIL and the nine
baselines — in *any* order against one shared prepared case gives every
cell the result it gets from a cold process of its own.  A strategy
whose feedback writes observable priorities must not leak them into the
cell that runs next.
"""

import dataclasses
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.analysis.causal import CausalGraphBuilder
from repro.analysis.exceptions import ExceptionAnalysis
from repro.analysis.system_model import clear_facts_cache
from repro.baselines import ALL_STRATEGIES, StrategyRunner
from repro.bench.parallel import CampaignTask, run_tasks
from repro.cache import runcache
from repro.core.params import SearchParams
from repro.core.prepared import CASES_PER_MODEL, PreparedCase, prepared_case
from repro.failures import get_case
from repro.obs import TraceRecorder

#: A case whose cells differ: ANDURIL needs 3 rounds, the two feedback
#: baselines 11, crashtuner never reproduces it.
CASE_ID = "f11"
MAX_ROUNDS = 30
CELLS = ("anduril", *ALL_STRATEGIES)


@pytest.fixture(autouse=True)
def cold_analysis():
    runcache.reset()
    clear_facts_cache()
    yield
    clear_facts_cache()


def run_cell(name: str):
    """One cell's outcome with every wall-clock field removed."""
    case = get_case(CASE_ID)
    if name == "anduril":
        result = case.explorer(max_rounds=MAX_ROUNDS).explore()
    else:
        result = StrategyRunner(max_rounds=MAX_ROUNDS, max_seconds=None).run(
            ALL_STRATEGIES[name](), case
        )
    return result.signature(), result.coverage


@pytest.fixture(scope="module")
def fresh_builds():
    """Every cell run alone on a cold analysis: the reference."""
    reference = {}
    for name in CELLS:
        clear_facts_cache()
        reference[name] = run_cell(name)
    clear_facts_cache()
    return reference


@settings(max_examples=12, deadline=None)
@given(order=st.permutations(CELLS))
# A feedback strategy's priority writes, then strategies that read the
# same observables and must find them untouched.
@example(order=("multiply-feedback", "fault-site-distance", "anduril",
                "fault-site-feedback", "exhaustive", "stacktrace", "fate",
                "fault-site-distance-limit", "crashtuner", "random"))
def test_any_cell_order_over_one_shared_case_equals_fresh_builds(
    fresh_builds, order
):
    clear_facts_cache()
    for name in order:
        assert run_cell(name) == fresh_builds[name], name


@pytest.mark.parametrize("jobs", [1, 2])
def test_campaign_cells_agree_with_fresh_builds_at_any_job_count(jobs):
    def outcome_key(outcome):
        return (outcome.case_id, outcome.success, outcome.rounds, outcome.coverage)

    tasks = [CampaignTask.anduril(CASE_ID, max_rounds=MAX_ROUNDS)] + [
        CampaignTask.baseline(name, CASE_ID, max_rounds=MAX_ROUNDS, max_seconds=None)
        for name in ALL_STRATEGIES
    ]
    reference = {}
    for task in tasks:
        clear_facts_cache()
        reference[task] = outcome_key(run_tasks([task], jobs=1)[0])
    for seed in (1, 2):
        shuffled = random.Random(seed).sample(tasks, len(tasks))
        clear_facts_cache()
        outcomes = run_tasks(shuffled, jobs=jobs)
        assert [outcome_key(o) for o in outcomes] == [
            reference[task] for task in shuffled
        ]


def test_feedback_writes_stay_in_their_own_observable_set():
    case = get_case(CASE_ID)
    writer = StrategyRunner().context(case)
    reader = StrategyRunner().context(case)
    assert writer.observables is not reader.observables
    before = {key: reader.observables.priority(key) for key in reader.observables.keys()}
    # A run that logged everything the failure did: every key is present.
    assert writer.observables.apply_feedback(case.failure_log())
    assert writer.observables.version > 0
    after = {key: reader.observables.priority(key) for key in reader.observables.keys()}
    assert after == before
    assert StrategyRunner().context(case).observables.version == 0


# ------------------------------------------------------------- build counts


@pytest.fixture()
def build_counts(monkeypatch):
    counts = {"fixpoints": 0, "graphs": 0}
    real_run, real_build = ExceptionAnalysis._run, CausalGraphBuilder.build

    def counting_run(self):
        counts["fixpoints"] += 1
        return real_run(self)

    def counting_build(self, *args, **kwargs):
        counts["graphs"] += 1
        return real_build(self, *args, **kwargs)

    monkeypatch.setattr(ExceptionAnalysis, "_run", counting_run)
    monkeypatch.setattr(CausalGraphBuilder, "build", counting_build)
    return counts


def test_one_fixpoint_per_model_and_one_graph_per_case_and_dims(build_counts):
    # f1 and f2 share the ZooKeeper model; f11 brings the HDFS one.
    tasks = []
    for case_id in ("f1", "f2", "f11"):
        tasks.append(CampaignTask.anduril(case_id, max_rounds=5))
        tasks.extend(
            CampaignTask.baseline(name, case_id, max_rounds=5)
            for name in ("exhaustive", "multiply-feedback", "stacktrace")
        )
    run_tasks(tasks, jobs=1)
    assert build_counts == {"fixpoints": 2, "graphs": 3}
    # Other fault dimensions are another graph over the same analysis.
    run_tasks(
        [
            CampaignTask.anduril("f1", max_rounds=5, fault_dims="all"),
            CampaignTask.baseline("exhaustive", "f1", max_rounds=5, fault_dims="all"),
        ],
        jobs=1,
    )
    assert build_counts == {"fixpoints": 2, "graphs": 4}


def test_clear_facts_cache_forgets_memos_and_prepared_cases(build_counts):
    case = get_case("f1")
    first = StrategyRunner().context(case).prepared
    assert StrategyRunner().context(case).prepared is first
    clear_facts_cache()
    assert StrategyRunner().context(case).prepared is not first
    assert build_counts == {"fixpoints": 2, "graphs": 2}


# ------------------------------------------------------------------ sharing


def _prepared(case, **overrides):
    settings = dict(
        model=case.model(), workload=case.workload, horizon=case.horizon,
        seed=case.seed, failure_log=case.failure_log(),
        params=SearchParams(fault_dims=case.fault_dims),
    )
    settings.update(overrides)
    return prepared_case(**settings)


def test_explorer_and_baselines_share_one_artefact():
    case = get_case("f1")
    explored = case.explorer().prepare()
    context = StrategyRunner().context(case)
    assert explored.prepared is context.prepared is _prepared(case)
    assert explored.observables is not context.observables


def test_the_key_is_every_input_of_steps_one_and_two():
    case = get_case("f1")
    base = _prepared(case)
    assert _prepared(case) is base
    assert _prepared(case, seed=case.seed + 1) is not base
    assert _prepared(case, params=SearchParams(fault_dims="all")) is not base
    # Of the search parameters, only the fault dimensions are an input.
    assert _prepared(case, params=SearchParams(initial_window=1, prune="static")) is base
    assert _prepared(case, base_faults=(case.ground_truth_instance(),)) is not base
    other_log = type(case.failure_log())(case.failure_log().records)
    assert _prepared(case, failure_log=other_log) is not base


def test_a_stubbed_executor_neither_sees_nor_leaves_real_cases(monkeypatch):
    import repro.core.pipeline as pipeline_module

    case = get_case("f1")
    real = _prepared(case)
    runcache.reset()  # nor is it served the real probe from the run memo
    with monkeypatch.context() as patch:
        patch.setattr(
            pipeline_module, "execute_workload",
            lambda workload, horizon, seed=0, plan=None, **kwargs: dataclasses.replace(
                real.normal_run, trace=[]
            ),
        )
        stubbed = _prepared(case)
        assert stubbed is not real and stubbed.normal_run.trace == []
    assert _prepared(case) is real


def test_a_traced_search_gets_a_private_artefact():
    # The recorder has to observe a real probe run.
    case = get_case("f1")
    shared = case.explorer().prepare()
    recorder = TraceRecorder()
    traced = case.explorer(recorder=recorder).prepare()
    assert traced.prepared is not shared.prepared
    assert recorder.metrics()["runs"] == 1
    assert case.explorer().prepare().prepared is shared.prepared


def test_prepared_case_is_read_only():
    prepared = _prepared(get_case("f1"))
    assert isinstance(prepared, PreparedCase)
    with pytest.raises(dataclasses.FrozenInstanceError):
        prepared.graph = None
    with pytest.raises(TypeError):
        prepared.occurrences["x"] = 1
    assert isinstance(prepared.candidates, tuple)
    # The probe trace's per-site index agrees with the probe's counts.
    trace = prepared.normal_run.trace
    assert {
        site: len(trace.positions(site)) for site in prepared.occurrences
    } == dict(prepared.occurrences)


def test_cases_per_model_are_bounded():
    case = get_case("f1")
    first = _prepared(case, seed=1000)
    for offset in range(1, CASES_PER_MODEL + 1):
        _prepared(case, seed=1000 + offset)
    assert _prepared(case, seed=1000 + CASES_PER_MODEL) is not None
    assert _prepared(case, seed=1000) is not first  # table cleared, rebuilt


# -------------------------------------------------------------- true timing


def test_prepare_seconds_report_the_build_not_the_memo_hit():
    case = get_case("f11")
    builder = case.explorer().prepare()
    shared = _prepared(case)
    assert shared.build_seconds > 0
    assert builder.prepare_seconds >= shared.build_seconds
    # A second search is handed the artefact for free and still reports
    # what it cost (Tables 4/8), not the ~0 of the lookup.
    assert case.explorer().prepare().prepare_seconds >= shared.build_seconds


def test_exception_seconds_report_the_one_fixpoint(build_counts):
    model = get_case("f1").model()
    first = CausalGraphBuilder(model)
    second = CausalGraphBuilder(model)
    assert build_counts["fixpoints"] == 1
    assert second.analysis is first.analysis
    assert second.timings.exception_seconds == first.timings.exception_seconds > 0
