"""The one round loop and its two policy families (DESIGN §5.5).

``search()`` is driven here with a stub pipeline and a stub policy, so
each exit and the loop's side of the policy protocol is pinned without a
simulator; the policy classes are then driven by hand through the same
four members the loop calls.
"""

import time

import pytest

from repro.baselines import Strategy, build_context
from repro.baselines.variants import _StaticOrderStrategy
from repro.core.explorer import FeedbackPolicy
from repro.core.oracle import Oracle
from repro.core.search import search
from repro.failures import get_case
from repro.injection.sites import FaultInstance
from repro.logs.record import LogFile
from repro.obs.bus import EventBus, MemorySink
from repro.sim.cluster import RunResult


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


def drive(sites, oracle_site, **budget):
    capture = MemorySink()
    pipeline, policy = StubPipeline(), QueuePolicy(sites)
    budget.setdefault("max_rounds", 10)
    budget.setdefault("max_seconds", None)
    found = search(
        pipeline, SatisfiedBy(oracle_site), policy, case_id="stub",
        bus=EventBus([capture]), **budget,
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
        assert len(found.records) == len(pipeline.runs) == 2
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
        assert [record.round_number for record in found.records] == [1, 2]
        assert len(pipeline.runs) == 2 and len(policy.queue) == 1
        assert lifecycle(events)[-1] == ("round.end", 2)

    def test_a_satisfied_round_reproduces_and_carries_its_run(self):
        found, pipeline, policy, events = drive(["a", "b", "c"], "b")
        assert (found.success, found.message) == (True, "reproduced")
        assert found.injected == FaultInstance("b", "IOError", 1)
        assert found.final_run.injected_instance == found.injected
        assert found.run_seed == StubPipeline.seed
        assert [record.satisfied for record in found.records] == [False, True]
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
    return build_context(get_case("f1"))


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
            pipeline, SatisfiedBy("never"), strategy, case_id="stub",
            max_rounds=10, max_seconds=None,
        )
        assert found.message == "fault space exhausted"
        assert [armed for _seed, armed in pipeline.runs] == [
            list(Stubborn.offers), Stubborn.offers[1:],
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


class TestFeedbackPolicy:
    def test_dry_rounds_double_up_to_the_candidate_count(self):
        pool = FakePool()
        policy = FeedbackPolicy(pool, FakeObservables(), initial_window=1)
        for _ in range(5):
            window = policy.window()
            assert policy.feedback(window, run_result(), None, False) == 0
        policy.window()
        assert pool.sizes == [1, 2, 4, 5, 5, 5]
        assert not pool.tried

    def test_a_fire_resets_the_window_marks_it_tried_and_feeds_back(self):
        pool, observables = FakePool(), FakeObservables()
        policy = FeedbackPolicy(pool, observables, initial_window=2)
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
        policy = FeedbackPolicy(pool, observables, initial_window=2)
        fired = FaultInstance("s1", "IOError", 1)
        assert policy.feedback([], run_result(fired), fired, True) == 0
        assert pool.tried == [fired] and not observables.logs

    def test_rank_needs_a_ground_truth_site(self):
        pool = FakePool()
        assert FeedbackPolicy(pool, None, 1).rank() is None
        assert FeedbackPolicy(pool, None, 1, "s1").rank() == 3
