"""Property tests for the fault-priority pool invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.model import SourceInfo
from repro.core.alignment import TimelineMap
from repro.core.observables import Observable, ObservableSet
from repro.core.priority import FaultPriorityPool
from repro.injection.fir import ProbeTrace, TraceEvent
from repro.logs.diff import LogComparator
from repro.logs.record import LogFile
from repro.logs.sanitize import TemplateMatcher

IDENTITY = TimelineMap([(i, i) for i in range(200)], 200, 200)


def build_pool(site_specs, observable_positions):
    """site_specs: {site: (distance, [instance log positions])}."""
    observables = ObservableSet(LogComparator(TemplateMatcher()), LogFile())
    observables._observables["o1"] = Observable(
        key="o1", failure_positions=list(observable_positions), mapped=True
    )

    class Index:
        def observables_reachable_from(self, node_id):
            site = node_id[len("extexc:"):].rsplit(":", 1)[0]
            return {"o1": site_specs[site][0]}

    candidates = [
        SourceInfo(f"extexc:{site}:IOException", site, "IOException")
        for site in site_specs
    ]
    trace = ProbeTrace.of(
        TraceEvent(site, j + 1, float(j), pos)
        for site, (_d, positions) in site_specs.items()
        for j, pos in enumerate(positions)
    )
    return FaultPriorityPool(candidates, Index(), observables, trace, IDENTITY)


SITE_SPECS = st.dictionaries(
    keys=st.sampled_from(["s1", "s2", "s3", "s4"]),
    values=st.tuples(
        st.integers(1, 9),
        st.lists(st.integers(0, 150), min_size=0, max_size=8),
    ),
    min_size=1,
    max_size=4,
)
POSITIONS = st.lists(st.integers(0, 150), min_size=1, max_size=3)


@given(specs=SITE_SPECS, positions=POSITIONS)
@settings(max_examples=120)
def test_ranked_entries_sorted_by_priority(specs, positions):
    pool = build_pool(specs, positions)
    entries = pool.ranked_entries()
    priorities = [entry.site_priority for entry in entries]
    assert priorities == sorted(priorities)


@given(specs=SITE_SPECS, positions=POSITIONS)
@settings(max_examples=120)
def test_window_is_prefix_of_ranking(specs, positions):
    pool = build_pool(specs, positions)
    ranking = pool.ranked_entries()
    for size in (0, 1, 2, 10):
        assert pool.window(size) == ranking[:size]


@given(specs=SITE_SPECS, positions=POSITIONS)
@settings(max_examples=100)
def test_marking_tried_shrinks_pool_monotonically(specs, positions):
    pool = build_pool(specs, positions)
    remaining = pool.remaining_instances()
    while True:
        entries = pool.ranked_entries()
        if not entries:
            break
        pool.mark_tried(entries[0].instance)
        new_remaining = pool.remaining_instances()
        assert new_remaining == remaining - 1
        remaining = new_remaining
    assert remaining == 0


@given(specs=SITE_SPECS, positions=POSITIONS)
@settings(max_examples=100)
def test_no_instance_offered_twice(specs, positions):
    pool = build_pool(specs, positions)
    seen = set()
    while True:
        entries = pool.ranked_entries()
        if not entries:
            break
        instance = entries[0].instance
        key = (instance.site_id, instance.exception, instance.occurrence)
        assert key not in seen
        seen.add(key)
        pool.mark_tried(instance)


@given(specs=SITE_SPECS, positions=POSITIONS)
@settings(max_examples=100)
def test_rank_of_site_consistent_with_ranking(specs, positions):
    pool = build_pool(specs, positions)
    ranking = pool.site_ranking()
    for index, site in enumerate(ranking):
        assert pool.rank_of_site(site) == index + 1
    assert pool.rank_of_site("nonexistent") is None
