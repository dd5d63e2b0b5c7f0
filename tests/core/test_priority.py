"""Tests for the two-level priority pool and the flexible window."""

from repro.analysis.model import SourceInfo
from repro.core.alignment import TimelineMap
from repro.core.observables import ObservableSet
from repro.core.params import SearchParams
from repro.core.priority import FaultPriorityPool
from repro.injection.fir import ProbeTrace, TraceEvent
from repro.logs.diff import LogComparator
from repro.logs.record import Level, LogFile, LogRecord
from repro.logs.sanitize import TemplateMatcher


class FakeIndex:
    """DistanceIndex stand-in built from an explicit table."""

    def __init__(self, table):
        # table: node_id -> {template_id: distance}
        self._table = table

    def observables_reachable_from(self, node_id):
        return dict(self._table.get(node_id, {}))


def make_observables(keys_with_positions):
    failure = LogFile()
    comparator = LogComparator(TemplateMatcher())
    observables = ObservableSet(comparator, failure)
    # Install observables directly (bypassing log diffing).
    from repro.core.observables import Observable

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


class TestSitePriority:
    def test_min_over_observables(self):
        observables = make_observables({"o1": [10], "o2": [20]})
        index = FakeIndex({"extexc:s1:IOException": {"o1": 5, "o2": 1}})
        pool = FaultPriorityPool(
            [candidate("s1")], index, observables, trace_for(s1=[9]), IDENTITY
        )
        entries = pool.ranked_entries()
        assert entries[0].site_priority == 1  # min(5+0, 1+0)
        assert entries[0].chosen_observable == "o2"

    def test_feedback_changes_chosen_observable(self):
        observables = make_observables({"o1": [10], "o2": [20]})
        index = FakeIndex({"extexc:s1:IOException": {"o1": 3, "o2": 2}})
        pool = FaultPriorityPool(
            [candidate("s1")], index, observables, trace_for(s1=[9]), IDENTITY
        )
        assert pool.ranked_entries()[0].chosen_observable == "o2"
        # Deprioritize o2 heavily: o1 becomes the target.
        observables._observables["o2"].priority = 5
        assert pool.ranked_entries()[0].chosen_observable == "o1"

    def test_candidate_without_relevant_observables_dropped(self):
        observables = make_observables({"o1": [10]})
        index = FakeIndex({"extexc:s1:IOException": {"other": 1}})
        pool = FaultPriorityPool(
            [candidate("s1")], index, observables, ProbeTrace(), IDENTITY
        )
        assert pool.candidate_count == 0


class TestInstancePriority:
    def test_instance_closest_to_observable_goes_first(self):
        observables = make_observables({"o1": [50]})
        index = FakeIndex({"extexc:s1:IOException": {"o1": 1}})
        pool = FaultPriorityPool(
            [candidate("s1")],
            index,
            observables,
            trace_for(s1=[10, 48, 90]),
            IDENTITY,
        )
        first = pool.ranked_entries()[0]
        assert first.instance.occurrence == 2  # position 48 is nearest to 50
        assert first.temporal == 2.0

    def test_priority_first_with_spread_on_ties(self):
        observables = make_observables({"o1": [50]})
        index = FakeIndex(
            {
                "extexc:s1:IOException": {"o1": 1},
                "extexc:s2:IOException": {"o1": 9},
            }
        )
        pool = FaultPriorityPool(
            [candidate("s1"), candidate("s2")],
            index,
            observables,
            trace_for(s1=[49, 51, 53], s2=[50]),
            IDENTITY,
        )
        # Strictly better site priority wins even after being tried.
        first = pool.ranked_entries()[0]
        assert first.instance.site_id == "s1"
        pool.mark_tried(first.instance)
        second = pool.ranked_entries()[0]
        assert second.instance.site_id == "s1"

    def test_equal_priority_sites_alternate(self):
        observables = make_observables({"o1": [50]})
        index = FakeIndex(
            {
                "extexc:s1:IOException": {"o1": 2},
                "extexc:s2:IOException": {"o1": 2},
            }
        )
        pool = FaultPriorityPool(
            [candidate("s1"), candidate("s2")],
            index,
            observables,
            trace_for(s1=[49, 51], s2=[48, 52]),
            IDENTITY,
        )
        order = []
        for _ in range(4):
            entry = pool.ranked_entries()[0]
            order.append(entry.instance.site_id)
            pool.mark_tried(entry.instance)
        # Tied sites are interleaved rather than exhausted one at a time.
        assert order == ["s1", "s2", "s1", "s2"]

    def test_unexecuted_site_gets_speculative_instance(self):
        observables = make_observables({"o1": [50]})
        index = FakeIndex({"extexc:s1:IOException": {"o1": 1}})
        pool = FaultPriorityPool([candidate("s1")], index, observables, ProbeTrace(), IDENTITY)
        entries = pool.ranked_entries()
        assert len(entries) == 1
        assert entries[0].instance.occurrence == 1
        assert entries[0].temporal == float("inf")

    def test_max_instances_per_site(self):
        observables = make_observables({"o1": [50]})
        index = FakeIndex({"extexc:s1:IOException": {"o1": 1}})
        pool = FaultPriorityPool(
            [candidate("s1")],
            index,
            observables,
            trace_for(s1=list(range(0, 100, 10))),
            IDENTITY,
            SearchParams(max_instances_per_site=3),
        )
        assert pool.remaining_instances() == 3


class TestWindowAndRanks:
    def _pool(self):
        observables = make_observables({"o1": [50], "o2": [10]})
        index = FakeIndex(
            {
                "extexc:s1:IOException": {"o1": 1},
                "extexc:s2:IOException": {"o1": 4},
                "extexc:s3:IOException": {"o2": 2},
            }
        )
        trace = trace_for(s1=[49], s2=[50], s3=[11])
        return FaultPriorityPool(
            [candidate("s1"), candidate("s2"), candidate("s3")],
            index,
            observables,
            trace,
            IDENTITY,
        ), observables

    def test_window_size(self):
        pool, _ = self._pool()
        assert len(pool.window(2)) == 2
        assert len(pool.window(10)) == 3

    def test_rank_of_site(self):
        pool, _ = self._pool()
        assert pool.rank_of_site("s1") == 1
        assert pool.rank_of_site("s3") == 2
        assert pool.rank_of_site("s2") == 3
        assert pool.rank_of_site("missing") is None

    def test_rank_cache_tracks_observable_feedback(self):
        pool, observables = self._pool()
        assert pool.rank_of_site("s1") == 1
        # Deprioritize o1 through the versioned mutation path: s1 and s2
        # both chase o1, so s3 (chasing o2) overtakes them.
        observables.adjust("o1", 10)
        assert pool.rank_of_site("s3") == 1
        assert pool.rank_of_site("s1") == 2
        # The cached ranking matches a from-scratch recomputation.
        assert pool.site_ranking() == pool._compute_site_ranking()

    def test_rank_cache_reused_between_queries(self):
        pool, _ = self._pool()
        first = pool.site_ranking()
        assert pool.site_ranking() is first  # same list object: cache hit

    def test_invalidate_ranking_covers_direct_mutation(self):
        pool, observables = self._pool()
        assert pool.rank_of_site("s1") == 1
        # Direct pokes bypass the version counter; the escape hatch
        # forces a recompute.
        observables._observables["o1"].priority = 10
        pool.invalidate_ranking()
        assert pool.rank_of_site("s3") == 1

    def test_apply_feedback_bumps_version(self):
        _, observables = self._pool()
        from repro.logs.record import LogFile

        before = observables.version
        observables.apply_feedback(LogFile())
        assert observables.version > before

    def test_marks_exhaust_pool(self):
        pool, _ = self._pool()
        while True:
            entries = pool.ranked_entries()
            if not entries:
                break
            pool.mark_tried(entries[0].instance)
        assert pool.remaining_instances() == 0
        assert pool.window(5) == []
