"""Fixtures shared across the tier-1 suite."""

import pytest

from repro.sim import checkpoint


class _FreeForks:
    """A fork cost of nothing, whatever real forks show."""

    def seconds(self) -> float:
        return 0.0

    def observe(self, overhead_seconds: float) -> None:
        pass


@pytest.fixture
def free_forks(monkeypatch):
    """Make the checkpoint cost model fork wherever a fork is *safe*.

    Catalog cases are too cheap for the measured model to ever fork, so
    tests of what a fork-served run returns on them take the cost out of
    the decision: every eligible plan after a pool's first is then
    fork-served.  (Forked pool workers inherit the patch.)
    """
    monkeypatch.setattr(checkpoint, "_fork_cost", _FreeForks())
