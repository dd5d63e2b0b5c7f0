"""Unit tests for fault-space coverage accounting (``repro.obs.coverage``)."""

import dataclasses
import json

import pytest

from repro.obs.coverage import (
    NULL_COVERAGE,
    CoverageTracker,
    NullCoverageTracker,
    enumerate_fault_space,
)


@dataclasses.dataclass(frozen=True)
class Candidate:
    site_id: str
    exception: str


@dataclasses.dataclass(frozen=True)
class Instance:
    site_id: str
    exception: str
    occurrence: int


class TestEnumerateFaultSpace:
    def test_crosses_candidates_with_occurrences(self):
        space = enumerate_fault_space(
            [Candidate("a", "IOError"), Candidate("b", "Timeout")],
            {"a": 3, "b": 1},
        )
        assert ("a", "IOError", 1) in space
        assert ("a", "IOError", 3) in space
        assert ("b", "Timeout", 1) in space
        assert len(space) == 4

    def test_unobserved_site_gets_one_speculative_occurrence(self):
        space = enumerate_fault_space([Candidate("ghost", "IOError")], {})
        assert space == {("ghost", "IOError", 1)}

    def test_per_site_cap_applies(self):
        space = enumerate_fault_space(
            [Candidate("a", "IOError")], {"a": 10}, max_instances_per_site=2
        )
        assert space == {("a", "IOError", 1), ("a", "IOError", 2)}

    def test_two_exceptions_per_site_are_distinct_points(self):
        space = enumerate_fault_space(
            [Candidate("a", "IOError"), Candidate("a", "Timeout")], {"a": 2}
        )
        assert len(space) == 4


class TestCoverageTracker:
    def _tracker(self):
        return CoverageTracker(
            enumerate_fault_space(
                [Candidate("a", "IOError"), Candidate("b", "Timeout")],
                {"a": 2, "b": 2},
            )
        )

    def test_fired_round_counts_planned_and_fired(self):
        tracker = self._tracker()
        window = [Instance("a", "IOError", 1), Instance("b", "Timeout", 1)]
        tracker.record_round(1, window, Instance("a", "IOError", 1))
        summary = tracker.summary()
        assert summary.space_size == 4
        assert summary.planned == 2
        assert summary.fired == 1
        assert summary.noop == 0
        assert summary.planned_fraction == 0.5
        assert summary.fired_fraction == 0.25

    def test_dry_round_marks_window_as_noop(self):
        tracker = self._tracker()
        window = [Instance("b", "Timeout", 2)]
        tracker.record_round(1, window, None)
        summary = tracker.summary()
        assert summary.planned == 1
        assert summary.fired == 0
        assert summary.noop == 1

    def test_out_of_space_instances_counted_separately(self):
        tracker = self._tracker()
        tracker.record_round(1, [Instance("zz", "IOError", 9)], None)
        summary = tracker.summary()
        assert summary.planned == 0
        assert summary.planned_outside == 1

    def test_out_of_space_firing_stays_out_of_fired(self):
        tracker = self._tracker()
        outside = Instance("zz", "IOError", 9)
        tracker.record_round(1, [outside], outside)
        summary = tracker.summary()
        assert summary.fired == 0
        assert summary.planned_outside == 1

    def test_round_records_accumulate(self):
        tracker = self._tracker()
        tracker.record_round(1, [Instance("a", "IOError", 1)], None)
        tracker.record_round(
            2,
            [Instance("a", "IOError", 2), Instance("b", "Timeout", 1)],
            Instance("a", "IOError", 2),
        )
        rounds = tracker.summary().rounds
        assert [r.as_list() for r in rounds] == [
            [1, 1, 1, 0, 1],
            [2, 2, 3, 1, 1],
        ]

    def test_replanning_the_same_instance_is_not_new(self):
        tracker = self._tracker()
        window = [Instance("a", "IOError", 1)]
        tracker.record_round(1, window, None)
        tracker.record_round(2, window, None)
        assert tracker.summary().rounds[1].planned_new == 0
        assert tracker.summary().planned == 1

    def test_to_dict_is_json_stable(self):
        tracker = self._tracker()
        tracker.record_round(1, [Instance("a", "IOError", 1)], None)
        document = tracker.summary().to_dict()
        assert json.loads(json.dumps(document)) == document
        assert document["space"] == 4
        assert document["rounds"] == [[1, 1, 1, 0, 1]]
        assert document["planned_fraction"] == 0.25

    def test_empty_space_fractions_are_zero(self):
        tracker = CoverageTracker(frozenset())
        summary = tracker.summary()
        assert summary.planned_fraction == 0.0
        assert summary.fired_fraction == 0.0


class TestStaticPruning:
    """Pruned-space accounting and the dynamic-contradiction check."""

    class LivePredicate:
        def __init__(self, dead):
            self.dead = dead

        def live(self, site_id, exception, occurrence):
            return (site_id, exception, occurrence) not in self.dead

    def _space(self):
        return enumerate_fault_space(
            [Candidate("a", "IOError"), Candidate("b", "Timeout")],
            {"a": 2, "b": 2},
        )

    def test_enumerate_with_static_prune_drops_dead_triples(self):
        pruner = self.LivePredicate({("a", "IOError", 2), ("b", "Timeout", 1)})
        space = enumerate_fault_space(
            [Candidate("a", "IOError"), Candidate("b", "Timeout")],
            {"a": 2, "b": 2},
            prune="static",
            pruner=pruner,
        )
        assert space == {("a", "IOError", 1), ("b", "Timeout", 2)}

    def test_static_prune_requires_a_pruner(self):
        with pytest.raises(ValueError, match="requires a pruner"):
            enumerate_fault_space([Candidate("a", "IOError")], {}, prune="static")
        with pytest.raises(ValueError, match="'none' or 'static'"):
            enumerate_fault_space([Candidate("a", "IOError")], {}, prune="bogus")

    def test_pruned_space_must_be_subset(self):
        with pytest.raises(ValueError, match="subset"):
            CoverageTracker(
                self._space(), pruned_space={("zz", "IOError", 1)}
            )

    def test_firing_inside_pruned_space_is_not_a_contradiction(self):
        pruned = frozenset({("a", "IOError", 1), ("b", "Timeout", 1)})
        tracker = CoverageTracker(self._space(), pruned_space=pruned)
        tracker.record_round(
            1, [Instance("a", "IOError", 1)], Instance("a", "IOError", 1)
        )
        summary = tracker.summary()
        assert summary.pruned_space_size == 2
        assert summary.contradictions == ()

    def test_firing_a_pruned_triple_is_recorded_as_contradiction(self):
        pruned = frozenset({("a", "IOError", 1)})
        tracker = CoverageTracker(self._space(), pruned_space=pruned)
        fired = Instance("b", "Timeout", 2)
        tracker.record_round(1, [fired], fired)
        summary = tracker.summary()
        assert summary.contradictions == (("b", "Timeout", 2),)

    def test_to_dict_emits_pruning_keys_only_when_pruned(self):
        plain = CoverageTracker(self._space())
        plain.record_round(1, [Instance("a", "IOError", 1)], None)
        document = plain.summary().to_dict()
        assert "pruned_space" not in document
        assert "contradictions" not in document

        pruned = frozenset({("a", "IOError", 1), ("a", "IOError", 2)})
        tracker = CoverageTracker(self._space(), pruned_space=pruned)
        fired = Instance("b", "Timeout", 1)
        tracker.record_round(1, [fired], fired)
        document = tracker.summary().to_dict()
        assert document["pruned_space"] == 2
        assert document["pruned"] == 2
        assert document["pruned_fraction"] == 0.5
        assert document["contradictions"] == 1
        assert document["contradiction_triples"] == [["b", "Timeout", 1]]
        assert json.loads(json.dumps(document)) == document

    def test_without_pruning_no_contradictions_ever(self):
        tracker = CoverageTracker(self._space())
        fired = Instance("b", "Timeout", 2)
        tracker.record_round(1, [fired], fired)
        assert tracker.summary().contradictions == ()


class TestNullCoverage:
    def test_singleton_is_disabled(self):
        assert NULL_COVERAGE.enabled is False
        assert isinstance(NULL_COVERAGE, NullCoverageTracker)

    def test_all_operations_are_noops(self):
        NULL_COVERAGE.record_round(1, [Instance("a", "IOError", 1)], None)
        assert NULL_COVERAGE.summary() is None
