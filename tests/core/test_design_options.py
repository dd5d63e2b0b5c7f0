"""Tests for the §5.2.3/§5.2.4 design-choice options on the pool."""

import pytest

from repro.analysis.model import SourceInfo
from repro.core.alignment import TimelineMap
from repro.core.observables import Observable, ObservableSet
from repro.core.params import SearchParams
from repro.core.priority import FaultPriorityPool
from repro.failures import get_case
from repro.injection.fir import ProbeTrace, TraceEvent
from repro.logs.diff import LogComparator
from repro.logs.record import LogFile
from repro.logs.sanitize import TemplateMatcher

IDENTITY = TimelineMap([(i, i) for i in range(100)], 100, 100)


def observables_with(keys):
    observables = ObservableSet(LogComparator(TemplateMatcher()), LogFile())
    for key, positions in keys.items():
        observables._observables[key] = Observable(
            key=key, failure_positions=positions, mapped=True
        )
    return observables


class MultiIndex:
    def __init__(self, table):
        self._table = table

    def observables_reachable_from(self, node_id):
        return dict(self._table[node_id])


def two_candidate_pool(aggregate="min", temporal_mode="messages"):
    observables = observables_with({"o1": [10], "o2": [90]})
    index = MultiIndex(
        {
            # s1: one near observable.           min=1, sum=1
            "extexc:s1:IOException": {"o1": 1},
            # s2: reaches both, each at 2 hops.  min=2, sum=4
            "extexc:s2:IOException": {"o1": 2, "o2": 2},
        }
    )
    candidates = [
        SourceInfo("extexc:s1:IOException", "s1", "IOException"),
        SourceInfo("extexc:s2:IOException", "s2", "IOException"),
    ]
    trace = ProbeTrace.of(
        [
            TraceEvent("s1", 1, 0.0, 50),
            TraceEvent("s2", 1, 0.0, 9),
            TraceEvent("s2", 2, 0.0, 70),
        ]
    )
    return FaultPriorityPool(
        candidates,
        index,
        observables,
        trace,
        IDENTITY,
        SearchParams(aggregate=aggregate, temporal_mode=temporal_mode),
    )


class TestAggregation:
    def test_min_vs_sum_priorities(self):
        pool_min = two_candidate_pool(aggregate="min")
        pool_sum = two_candidate_pool(aggregate="sum")
        by_site_min = {
            e.instance.site_id: e.site_priority for e in pool_min.ranked_entries()
        }
        by_site_sum = {
            e.instance.site_id: e.site_priority for e in pool_sum.ranked_entries()
        }
        assert by_site_min["s2"] == 2
        assert by_site_sum["s2"] == 4
        assert by_site_min["s1"] == by_site_sum["s1"] == 1

    def test_invalid_aggregate_rejected(self):
        with pytest.raises(ValueError):
            two_candidate_pool(aggregate="max")


class TestTemporalMode:
    def test_messages_mode_picks_nearest_instance(self):
        pool = two_candidate_pool(temporal_mode="messages")
        entry = next(
            e for e in pool.ranked_entries() if e.instance.site_id == "s2"
        )
        # s2's chosen observable is o1 at position 10; occurrence 1 (at 9)
        # is nearer than occurrence 2 (at 70).
        assert entry.instance.occurrence == 1

    def test_order_mode_picks_earliest_occurrence(self):
        pool = two_candidate_pool(temporal_mode="order")
        entry = next(
            e for e in pool.ranked_entries() if e.instance.site_id == "s2"
        )
        assert entry.instance.occurrence == 1
        assert entry.temporal == 1.0

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError):
            two_candidate_pool(temporal_mode="wallclock")


class TestExplorerIntegration:
    @pytest.mark.parametrize("aggregate", ["min", "sum"])
    @pytest.mark.parametrize("temporal_mode", ["messages", "order"])
    def test_all_configurations_reproduce_an_easy_case(
        self, aggregate, temporal_mode
    ):
        case = get_case("f4")
        explorer = case.explorer(
            max_rounds=200, aggregate=aggregate, temporal_mode=temporal_mode
        )
        result = explorer.explore()
        assert result.success
