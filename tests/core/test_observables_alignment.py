"""Tests for observable feedback (Algorithm 2) and timeline alignment."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.alignment import TimelineMap, temporal_distance
from repro.core.observables import ObservableSet
from repro.logs.diff import LogComparator
from repro.logs.record import Level, LogFile, LogRecord
from repro.logs.sanitize import TemplateMatcher


def make_log(messages, thread="main"):
    log = LogFile()
    for index, message in enumerate(messages):
        log.append(LogRecord(index * 0.1, thread, Level.INFO, message))
    return log


def observable_set(normal, failure, adjustment=1):
    comparator = LogComparator(TemplateMatcher())
    observables = ObservableSet(comparator, failure, adjustment=adjustment)
    observables.seed(comparator.compare(normal, failure))
    return observables


class TestObservableSet:
    def test_initial_set_is_failure_only(self):
        normal = make_log(["start", "stop"])
        failure = make_log(["start", "fault seen", "stop"])
        observables = observable_set(normal, failure)
        assert len(observables) == 1
        key = next(iter(observables.keys()))
        assert observables.priority(key) == 0

    def test_feedback_deprioritizes_present(self):
        normal = make_log(["start"])
        failure = make_log(["start", "warn one", "fatal two"])
        observables = observable_set(normal, failure)
        # A failed round produced "warn one" but not "fatal two".
        run_log = make_log(["start", "warn one"])
        present = observables.apply_feedback(run_log)
        assert len(present) == 1
        priorities = {
            key: observables.priority(key) for key in observables.keys()
        }
        assert sorted(priorities.values()) == [0, 1]

    def test_adjustment_step(self):
        normal = make_log(["start"])
        failure = make_log(["start", "warn one"])
        observables = observable_set(normal, failure, adjustment=10)
        observables.apply_feedback(make_log(["start", "warn one"]))
        key = next(iter(observables.keys()))
        assert observables.priority(key) == 10

    def test_relevant_set_never_grows(self):
        normal = make_log(["start"])
        failure = make_log(["start", "x"])
        observables = observable_set(normal, failure)
        before = observables.keys()
        # A round log full of novel messages must not add observables.
        observables.apply_feedback(make_log(["start", "brand new noise"]))
        assert observables.keys() == before

    def test_positions_recorded(self):
        normal = make_log([])
        failure = make_log(["a", "b", "a"])
        observables = observable_set(normal, failure)
        all_positions = sorted(
            p for key in observables.keys() for p in observables.positions(key)
        )
        assert all_positions == [0, 1, 2]


class TestTimelineMap:
    def test_identity_when_logs_match(self):
        timeline = TimelineMap([(0, 0), (5, 5), (9, 9)], 10, 10)
        assert timeline.to_failure(3) == 3.0
        assert timeline.to_failure(7) == 7.0

    def test_stretch_interval(self):
        # Failure log has 10 extra messages between the two anchors.
        timeline = TimelineMap([(0, 0), (10, 20)], 11, 21)
        assert timeline.to_failure(5) == 10.0

    def test_extrapolates_past_last_anchor(self):
        timeline = TimelineMap([(0, 0), (4, 4)], 5, 10)
        assert timeline.to_failure(20) >= 10

    def test_degenerate_anchors_deduplicated(self):
        timeline = TimelineMap([(2, 3), (2, 3), (2, 5)], 5, 8)
        assert timeline.to_failure(2) == 3.0

    def test_no_anchors_scales_whole_log(self):
        timeline = TimelineMap([], 10, 20)
        mapped = [timeline.to_failure(i) for i in range(10)]
        assert mapped == sorted(mapped)

    @given(
        anchors=st.lists(
            st.tuples(st.integers(0, 50), st.integers(0, 50)), max_size=10
        ),
        position=st.floats(0, 60),
    )
    @settings(max_examples=150)
    def test_monotonicity(self, anchors, position):
        timeline = TimelineMap(anchors, 60, 60)
        a = timeline.to_failure(position)
        b = timeline.to_failure(position + 1.0)
        assert b >= a - 1e-9


class TestTemporalDistance:
    def test_nearest_occurrence(self):
        assert temporal_distance(10.0, [2, 9, 30]) == 1.0

    def test_empty_positions_is_infinite(self):
        assert temporal_distance(10.0, []) == float("inf")

    def test_exact_hit(self):
        assert temporal_distance(5.0, [5]) == 0.0
