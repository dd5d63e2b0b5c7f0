"""The one round loop and its two policy families (DESIGN §5.5).

``search()`` is driven here with a stub pipeline and a stub policy, so
each exit and the loop's side of the policy protocol is pinned without a
simulator; the policy classes are then driven by hand through the same
four members the loop calls.
"""

import dataclasses
import time
import types

import pytest

from repro.baselines import Strategy, StrategyRunner
from repro.baselines.variants import _StaticOrderStrategy
from repro.core import pipeline as pipeline_module
from repro.core.explorer import FeedbackPolicy
from repro.core.oracle import Oracle
from repro.core.params import SearchParams
from repro.core.prepared import SearchContext
from repro.core.search import search
from repro.failures import get_case
from repro.injection.fir import ProbeTrace, TraceEvent
from repro.injection.sites import FaultInstance
from repro.logs.record import LogFile
from repro.obs.bus import EventBus, MemorySink, set_active_bus
from repro.obs.coverage import CoverageTracker
from repro.sim.cluster import RunResult, execute_workload


def run_result(fired=None):
    return RunResult(
        log=LogFile(),
        trace=[],
        injected=fired is not None,
        injected_instance=fired,
        stuck=[],
        crashed=[],
        state={},
        end_time=0.0,
        site_counts={},
    )


#: The stub probe: each stub site executes once, in this order, so a
#: window runs as its instance of the earliest site here.
PROBE = ProbeTrace.of(
    TraceEvent(site, 1, float(at), 0)
    for at, site in enumerate(["a", "b", "c", "s1", "s2"])
)


def stub_context(pipeline, probe=PROBE):
    """A search context with nothing in it but a pipeline and a probe."""
    return SearchContext(
        prepared=types.SimpleNamespace(normal_run=types.SimpleNamespace(trace=probe)),
        model=None, params=SearchParams().resolve(), pipeline=pipeline,
        observables=None, coverage=CoverageTracker(()),
    )


class StubPipeline:
    """Fires the first armed instance of every plan it is handed."""

    seed = 7

    def __init__(self):
        self.runs = []

    def run(self, seed, plan):
        self.runs.append((seed, list(plan.instances)))
        return run_result(plan.instances[0])


class SatisfiedBy(Oracle):
    description = "stub"

    def __init__(self, site_id):
        self.site_id = site_id

    def satisfied(self, result):
        return result.injected_instance.site_id == self.site_id


class QueuePolicy:
    """Offers a fixed list one instance a round; records its feedback."""

    name = "stub"
    entries = ()

    def __init__(self, sites):
        self.queue = [FaultInstance(site, "IOError", 1) for site in sites]
        self.fed = []

    def window(self):
        return self.queue[:1]

    def rank(self):
        return None

    def feedback(self, window, result, injected, satisfied):
        self.fed.append((list(window), injected, satisfied))
        self.queue.pop(0)
        return 0


@pytest.fixture(autouse=True)
def reset_active_bus():
    yield
    set_active_bus(None)


def drive(sites, oracle_site, **budget):
    capture = MemorySink()
    set_active_bus(EventBus([capture]))
    pipeline, policy = StubPipeline(), QueuePolicy(sites)
    budget.setdefault("max_rounds", 10)
    budget.setdefault("max_seconds", None)
    found = search(
        stub_context(pipeline), SatisfiedBy(oracle_site), policy,
        case_id="stub", **budget,
    )
    return found, pipeline, policy, capture.events


def lifecycle(events):
    return [
        (event["type"], event["round"])
        for event in events
        if event["type"] in ("round.begin", "round.end")
    ]


class TestExits:
    def test_an_empty_window_exhausts_the_space_without_beginning_a_round(self):
        found, pipeline, _policy, events = drive(["a", "b"], "never")
        assert (found.success, found.message) == (False, "fault space exhausted")
        assert len(found.round_records) == len(pipeline.runs) == 2
        assert found.rounds == len(found.coverage.rounds) == 2
        assert found.injected is None and found.final_run is None
        # Round 3 asked for a window, got none, and was never announced.
        assert lifecycle(events) == [
            ("round.begin", 1), ("round.end", 1),
            ("round.begin", 2), ("round.end", 2),
        ]

    def test_the_round_budget_stops_a_policy_that_still_has_windows(self):
        found, pipeline, policy, events = drive(
            ["a", "b", "c"], "never", max_rounds=2
        )
        assert (found.success, found.message) == (False, "round budget exhausted")
        assert [record.round_number for record in found.round_records] == [1, 2]
        assert len(pipeline.runs) == 2 and len(policy.queue) == 1
        assert lifecycle(events)[-1] == ("round.end", 2)

    def test_a_satisfied_round_reproduces_and_carries_its_run(self):
        found, pipeline, policy, events = drive(["a", "b", "c"], "b")
        assert (found.success, found.message) == (True, "reproduced")
        assert found.injected == FaultInstance("b", "IOError", 1)
        assert found.final_run.injected_instance == found.injected
        assert found.run_seed == StubPipeline.seed
        assert [record.satisfied for record in found.round_records] == [False, True]
        # The policy heard about both rounds, oracle verdict included.
        assert [(fed[1].site_id, fed[2]) for fed in policy.fed] == [
            ("a", False), ("b", True),
        ]
        begins = [e for e in lifecycle(events) if e[0] == "round.begin"]
        ends = [e for e in lifecycle(events) if e[0] == "round.end"]
        assert len(begins) == len(ends) == 2

    def test_the_time_budget_counts_from_the_callers_start(self):
        found, pipeline, _policy, events = drive(
            ["a"], "a", max_seconds=5.0, started=time.perf_counter() - 10.0
        )
        assert (found.success, found.message) == (False, "time budget exhausted")
        assert not pipeline.runs and not lifecycle(events)
        assert found.elapsed_seconds >= 10.0


class RepeatingQueue(_StaticOrderStrategy):
    """A static order that lists one instance twice."""

    name = "repeating"

    def build_queue(self, context):
        first = FaultInstance("s1", "IOError", 1)
        return [first, FaultInstance("s2", "IOError", 1), first]


@pytest.fixture(scope="module")
def context():
    return StrategyRunner().context(get_case("f1"))


class TestStrategyPolicy:
    def test_a_fired_round_retires_only_the_fired_instance(self, context):
        strategy = RepeatingQueue()
        strategy.prepare(context)
        window = strategy.window()
        assert [i.site_id for i in window] == ["s1", "s2", "s1"]
        strategy.feedback(window, run_result(window[1]), window[1], False)
        assert strategy.tried == {("s2", "IOError", 1)}

    def test_a_dry_round_retires_the_whole_window(self, context):
        strategy = RepeatingQueue()
        strategy.prepare(context)
        window = strategy.window()
        strategy.feedback(window, run_result(), None, False)
        assert strategy.tried == {("s1", "IOError", 1), ("s2", "IOError", 1)}
        assert strategy.window() == []

    def test_a_queue_that_repeats_an_instance_offers_it_once(self, context):
        """A ``next_window`` that keeps re-offering what already fired
        relies on the base class's filter to keep it retired."""

        class Stubborn(Strategy):
            name = "stubborn"
            offers = [
                FaultInstance("s1", "IOError", 1),
                FaultInstance("s2", "IOError", 1),
            ]

            def next_window(self):
                return list(self.offers)

        strategy = Stubborn()
        strategy.prepare(context)
        pipeline = StubPipeline()
        found = search(
            stub_context(pipeline), SatisfiedBy("never"), strategy,
            case_id="stub", max_rounds=10, max_seconds=None,
        )
        assert found.message == "fault space exhausted"
        # Each round runs as the window's first-firing instance.
        assert [armed for _seed, armed in pipeline.runs] == [
            Stubborn.offers[:1], Stubborn.offers[1:],
        ]


class FakePool:
    candidate_count = 5

    def __init__(self):
        self.sizes, self.tried = [], []

    def window(self, size):
        self.sizes.append(size)
        return []

    def mark_tried(self, instance):
        self.tried.append(instance)

    def rank_of_site(self, site_id):
        return 3


class FakeObservables:
    def __init__(self):
        self.logs = []

    def apply_feedback(self, log):
        self.logs.append(log)
        return {"k1", "k2"}


def feedback_policy(pool, observables, initial_window, site=None):
    """ANDURIL's policy over a stub pool, as its ``prepare`` leaves it."""
    policy = FeedbackPolicy(site)
    policy.pool, policy.observables = pool, observables
    policy.initial_window = policy.size = initial_window
    return policy


class TestFeedbackPolicy:
    def test_dry_rounds_double_up_to_the_candidate_count(self):
        pool = FakePool()
        policy = feedback_policy(pool, FakeObservables(), initial_window=1)
        for _ in range(5):
            window = policy.window()
            assert policy.feedback(window, run_result(), None, False) == 0
        policy.window()
        assert pool.sizes == [1, 2, 4, 5, 5, 5]
        assert not pool.tried

    def test_a_fire_resets_the_window_marks_it_tried_and_feeds_back(self):
        pool, observables = FakePool(), FakeObservables()
        policy = feedback_policy(pool, observables, initial_window=2)
        fired = FaultInstance("s1", "IOError", 1)
        policy.feedback(policy.window(), run_result(), None, False)
        result = run_result(fired)
        assert policy.feedback(policy.window(), result, fired, False) == 2
        policy.window()
        assert pool.sizes == [2, 4, 2]
        assert pool.tried == [fired]
        assert observables.logs == [result.log]

    def test_a_satisfied_fire_is_not_fed_back(self):
        pool, observables = FakePool(), FakeObservables()
        policy = feedback_policy(pool, observables, initial_window=2)
        fired = FaultInstance("s1", "IOError", 1)
        assert policy.feedback([], run_result(fired), fired, True) == 0
        assert pool.tried == [fired] and not observables.logs

    def test_rank_needs_a_ground_truth_site(self):
        pool = FakePool()
        assert feedback_policy(pool, None, 1).rank() is None
        assert feedback_policy(pool, None, 1, "s1").rank() == 3

    def test_prepare_builds_the_pool_over_the_context(self, context):
        policy = FeedbackPolicy()
        policy.prepare(dataclasses.replace(
            context, params=dataclasses.replace(context.params, initial_window=3)
        ))
        assert policy.observables is context.observables
        assert policy.size == policy.initial_window == 3
        assert len(policy.window()) == 3


# ------------------------------------------- a window runs as what it fires


class FixedWindows:
    """Offers each of its windows once, in order."""

    name = "fixed"
    entries = ()

    def __init__(self, *windows):
        self.windows = list(windows)

    def window(self):
        return self.windows[0] if self.windows else []

    def rank(self):
        return None

    def feedback(self, window, result, injected, satisfied):
        self.windows.pop(0)
        return 0


class TestAWindowRunsAsItsFirstFiringInstance:
    """On a real case, through the run cache: what a round executes
    depends only on the instance its window fires (DESIGN §8.2)."""

    @pytest.fixture
    def executed(self, monkeypatch):
        """The plans of every run actually executed."""
        real, plans = pipeline_module.execute_workload, []

        def counting(workload, **kwargs):
            plans.append(kwargs.get("plan"))
            return real(workload, **kwargs)

        monkeypatch.setattr(pipeline_module, "execute_workload", counting)
        return plans

    @staticmethod
    def searched(case, policy):
        return search(
            StrategyRunner().context(case), case.oracle, policy, case_id="f1",
            max_rounds=10, max_seconds=None,
        )

    def test_a_window_that_cannot_fire_executes_nothing(self, executed):
        case = get_case("f1")
        truth = case.ground_truth_instance()
        dry = [
            FaultInstance(truth.site_id, truth.exception, 10**6),
            FaultInstance("no-such-site", "IOException", 1),
        ]
        found = self.searched(case, FixedWindows(dry))
        assert found.message == "fault space exhausted"
        assert found.round_records[0].injected is None
        assert found.round_records[0].window_size == len(dry)
        assert executed == [None]  # the probe, and nothing after it

    def test_windows_that_fire_alike_share_one_run(self, executed):
        case = get_case("f1")
        probe = execute_workload(case.workload, case.horizon, case.seed).trace
        truth = case.ground_truth_instance()
        assert probe.ordinal(truth.site_id, truth.occurrence) < len(probe)
        last = probe[len(probe) - 1]
        later = FaultInstance(last.site_id, "IOException", last.occurrence)
        ghost = FaultInstance(truth.site_id, truth.exception, 10**6)
        for window in ([truth, ghost], [later, truth]):
            found = self.searched(case, FixedWindows(window))
            assert found.success and found.injected == truth
        assert len(executed) == 2  # the probe, then one run of ``truth``
        assert executed[1].instances == [truth]
