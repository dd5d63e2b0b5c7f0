"""Coverage accounting is deterministic and covers exactly the rounds
the search ran."""

from repro.failures import get_case


def test_coverage_accounts_the_committed_rounds():
    case = get_case("f17")
    result = case.explorer(max_rounds=120).explore()
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
