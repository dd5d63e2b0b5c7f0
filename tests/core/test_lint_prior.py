"""Tests for the lint-based search prior on the priority pool."""

from repro.analysis.model import SourceInfo
from repro.core.alignment import TimelineMap
from repro.core.observables import Observable, ObservableSet
from repro.core.priority import FaultPriorityPool
from repro.failures import get_case
from repro.injection.fir import ProbeTrace, TraceEvent
from repro.logs.diff import LogComparator
from repro.logs.record import LogFile
from repro.logs.sanitize import TemplateMatcher


class FakeIndex:
    def __init__(self, table):
        self._table = table

    def observables_reachable_from(self, node_id):
        return dict(self._table.get(node_id, {}))


def make_observables(keys_with_positions):
    observables = ObservableSet(LogComparator(TemplateMatcher()), LogFile())
    for key, positions in keys_with_positions.items():
        observables._observables[key] = Observable(
            key=key, failure_positions=list(positions), mapped=True
        )
    return observables


def candidate(site, exc="IOException"):
    return SourceInfo(node_id=f"extexc:{site}:{exc}", site_id=site, exception=exc)


def trace_for(**positions_by_site):
    """A probe trace that runs each site at the given log positions."""
    return ProbeTrace.of(
        TraceEvent(site_id=site, occurrence=j + 1, time=float(j), log_index=pos)
        for site, positions in positions_by_site.items()
        for j, pos in enumerate(positions)
    )


IDENTITY = TimelineMap([(i, i) for i in range(100)], 100, 100)


def make_pool(**kwargs):
    observables = make_observables({"o1": [10]})
    index = FakeIndex(
        {
            "extexc:s1:IOException": {"o1": 2},
            "extexc:s2:IOException": {"o1": 2},
        }
    )
    trace = trace_for(s1=[9], s2=[9])
    return FaultPriorityPool(
        [candidate("s1"), candidate("s2")],
        index,
        observables,
        trace,
        IDENTITY,
        **kwargs,
    )


class TestPriorWeights:
    def test_prior_breaks_distance_tie(self):
        # Without a prior, equal F ties are broken by site id: s1 first.
        assert make_pool().site_ranking() == ["s1", "s2"]
        # A prior on s2 subtracts from its F and flips the order.
        pool = make_pool(prior_weights={"s2": 1.0}, prior_scale=1.0)
        assert pool.site_ranking() == ["s2", "s1"]
        entries = pool.ranked_entries()
        assert entries[0].instance.site_id == "s2"
        assert entries[0].site_priority == 1.0  # 2 - 1.0 * 1.0

    def test_scale_zero_disables_prior(self):
        pool = make_pool(prior_weights={"s2": 1.0}, prior_scale=0.0)
        assert pool.site_ranking() == ["s1", "s2"]

    def test_rank_of_site_sees_the_boost(self):
        pool = make_pool(prior_weights={"s2": 1.0}, prior_scale=1.0)
        assert pool.rank_of_site("s2") == 1
        assert pool.rank_of_site("s1") == 2


class TestExplorerIntegration:
    def test_lint_prior_search_still_reproduces(self):
        case = get_case("f4")
        explorer = case.explorer(max_rounds=100, lint_prior=True)
        result = explorer.explore()
        assert result.success
        assert result.injected.site_id == case.ground_truth.resolve_site(
            explorer.model
        )

    def test_prior_weights_reach_the_pool(self):
        case = get_case("f4")
        explorer = case.explorer(max_rounds=100, lint_prior=True, lint_bonus=3.0)
        prepared = explorer.prepare()
        assert prepared.pool._prior_weights
        assert prepared.pool._prior_scale == 3.0
        # The prior only ever lowers F_i, never raises it.
        cold = case.explorer(max_rounds=100).prepare()
        for candidate_state in prepared.pool._candidates:
            boosted, _ = prepared.pool.site_priority(candidate_state)
            for other in cold.pool._candidates:
                if (
                    other.site_id == candidate_state.site_id
                    and other.exception == candidate_state.exception
                ):
                    unboosted, _ = cold.pool.site_priority(other)
                    assert boosted <= unboosted
