"""Coverage accounting is deterministic and purely observational.

Tracking coverage does not change the search itself (same signature as
an untracked run), mirroring the traced-vs-untraced equivalence, and the
accounting covers exactly the rounds the search ran.
"""

from repro.failures import get_case


def test_coverage_tracking_leaves_the_search_unchanged():
    case = get_case("f17")
    plain = case.explorer(max_rounds=120).explore()
    tracked = case.explorer(max_rounds=120, track_coverage=True).explore()
    assert tracked.signature() == plain.signature()
    assert plain.coverage is None
    assert tracked.coverage is not None


def test_coverage_accounts_the_committed_rounds():
    case = get_case("f17")
    result = case.explorer(max_rounds=120, track_coverage=True).explore()
    assert result.success
    coverage = result.coverage
    assert len(coverage.rounds) == result.rounds
    # The reproducing search fired at least one instance and planned at
    # least as many as it fired, all within the enumerated space.
    assert 1 <= coverage.fired <= coverage.planned <= coverage.space_size
    assert 0.0 < coverage.planned_fraction <= 1.0
    # Cumulative series are monotone.
    planned_series = [r.planned for r in coverage.rounds]
    fired_series = [r.fired for r in coverage.rounds]
    assert planned_series == sorted(planned_series)
    assert fired_series == sorted(fired_series)
