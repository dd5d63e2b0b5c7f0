"""Unit tests for the flexible-window doubling path (§5.2.5).

When none of a round's armed instances occurs, the Explorer must double
the window instead of wasting identical rounds.  We stub out the workload
execution so no injection ever fires and observe the recorded windows.
"""

import dataclasses

import pytest

import repro.core.pipeline as pipeline_module
from repro.core.search import window_entry_for
from repro.failures import get_case
from repro.logs.record import LogFile
from repro.obs import TraceRecorder
from repro.sim.cluster import RunResult


def empty_run_result():
    return RunResult(
        log=LogFile(),
        trace=[],
        injected=False,
        injected_instance=None,
        stuck=[],
        crashed=[],
        state={},
        end_time=0.0,
        site_counts={},
    )


@pytest.fixture()
def no_injection_explorer(monkeypatch):
    case = get_case("f1")
    explorer = case.explorer(max_rounds=8, initial_window=1)
    explorer.prepare()  # uses the real execute_workload for the probe

    def stubbed_execute(workload, horizon, seed=0, plan=None):
        return empty_run_result()

    monkeypatch.setattr(pipeline_module, "execute_workload", stubbed_execute)
    return explorer


class TestWindowDoubling:
    def test_window_grows_when_nothing_fires(self, no_injection_explorer):
        result = no_injection_explorer.explore()
        assert not result.success
        sizes = [record.window_size for record in result.round_records]
        assert sizes[0] == 1
        assert sizes == sorted(sizes)
        assert sizes[-1] > 1  # doubling kicked in

    def test_growth_is_capped_by_candidate_count(self, no_injection_explorer):
        pool = no_injection_explorer.policy.pool
        result = no_injection_explorer.explore()
        for record in result.round_records:
            assert record.window_size <= max(pool.candidate_count, 1)

    def test_rounds_exhaust_budget_without_injection(self, no_injection_explorer):
        result = no_injection_explorer.explore()
        assert result.message == "round budget exhausted"
        assert all(record.injected is None for record in result.round_records)


class TestWindowShrink:
    """After a fired round re-ranks the pool, the window must return to
    the configured size — one dry round must not inflate every later
    window (the doubling is a probe for *this* ranking, not a ratchet)."""

    def test_window_resets_after_fired_round(self, monkeypatch):
        case = get_case("f1")
        # The scripted executor answers by call order, not by plan, so
        # the search must ask it every round: a traced pipeline executes
        # every run and memoizes none.
        explorer = case.explorer(
            max_rounds=3, initial_window=1, recorder=TraceRecorder()
        )
        explorer.prepare()
        pool = explorer.policy.pool
        fired_instance = pool.window(1)[0].instance

        requested_sizes = []
        real_window = pool.window

        def spying_window(size):
            requested_sizes.append(size)
            return real_window(size)

        monkeypatch.setattr(pool, "window", spying_window)

        fired_result = dataclasses.replace(
            empty_run_result(), injected=True, injected_instance=fired_instance
        )
        # Round 1: dry (window doubles).  Round 2: fires, oracle
        # unsatisfied (feedback re-ranks).  Round 3: must be back at the
        # configured window, not the doubled one.
        script = iter([empty_run_result(), fired_result, empty_run_result()])

        def stubbed_execute(workload, horizon, seed=0, plan=None, recorder=None):
            return next(script)

        monkeypatch.setattr(pipeline_module, "execute_workload", stubbed_execute)
        result = explorer.explore()
        assert not result.success
        assert requested_sizes == [1, 2, 1]

    def test_consecutive_dry_rounds_still_double(self, no_injection_explorer):
        result = no_injection_explorer.explore()
        sizes = [record.window_size for record in result.round_records]
        # Without any fired round the doubling ratchet is unchanged.
        assert sizes == sorted(sizes)
        assert sizes[-1] > sizes[0]


class TestTimeBudget:
    def test_zero_time_budget_stops_immediately(self):
        case = get_case("f1")
        explorer = case.explorer(max_rounds=100, max_seconds=0.0)
        result = explorer.explore()
        assert not result.success
        assert result.message == "time budget exhausted"
        assert result.rounds == 0


@dataclasses.dataclass(frozen=True)
class FakeInstance:
    site_id: str
    exception: str
    occurrence: int


@dataclasses.dataclass(frozen=True)
class FakeEntry:
    instance: FakeInstance
    site_priority: float = 1.0
    chosen_observable: str = ""


class TestWindowEntryLookup:
    """The explorer.plan provenance event must attribute the fired
    instance to the window entry with the full (site, exception,
    occurrence) identity, not just (site, occurrence)."""

    def test_same_site_and_occurrence_different_exceptions(self):
        window = [
            FakeEntry(FakeInstance("s1", "Timeout", 2), 3.0, "warn slow"),
            FakeEntry(FakeInstance("s1", "IOError", 2), 1.5, "error lost"),
        ]
        located = window_entry_for(window, FakeInstance("s1", "IOError", 2))
        assert located is not None
        position, entry = located
        assert position == 2
        assert entry.chosen_observable == "error lost"
        assert entry.site_priority == 1.5

    def test_instance_outside_the_window_yields_none(self):
        window = [FakeEntry(FakeInstance("s1", "Timeout", 1))]
        assert window_entry_for(window, FakeInstance("s2", "Timeout", 1)) is None
