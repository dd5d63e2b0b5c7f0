"""Fixtures shared across the tier-1 suite."""

import pytest

from repro.cache import runcache
from repro.sim import checkpoint


@pytest.fixture(autouse=True)
def isolated_run_cache(tmp_path, monkeypatch):
    """Keep the process-wide run cache out of the repository and out of
    the next test: an in-process ``main([...])`` installs a disk-backed
    cache over ``default_disk_dir()`` and leaves it active, so root that
    default (whichever module's binding of it is called) under a temp
    dir and drop whatever cache the test installed."""
    monkeypatch.setattr(runcache, "_REPO_ROOT", str(tmp_path))
    yield
    runcache.reset()


class _FreeForks:
    """A fork cost of nothing, whatever real forks show."""

    def floor(self) -> float:
        return 0.0

    def seconds(self) -> float:
        return 0.0

    def observe(self, overhead_seconds: float) -> None:
        pass


@pytest.fixture
def free_forks(monkeypatch):
    """Make the checkpoint cost model fork wherever a fork is *safe*.

    Catalog cases are too cheap for the measured model to ever fork, so
    tests of what a fork-served run returns on them take the cost out of
    the decision: once a run has priced a request, every eligible plan
    is then fork-served.  (Forked pool workers inherit the patch.)
    """
    monkeypatch.setattr(checkpoint, "_fork_cost", _FreeForks())
