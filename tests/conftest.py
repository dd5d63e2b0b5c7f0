"""Fixtures shared across the tier-1 suite."""

import pytest

from repro.cache import runcache
from repro.obs import metrics as obs_metrics


@pytest.fixture(autouse=True)
def isolated_run_cache(tmp_path, monkeypatch):
    """Keep the process-wide run cache out of the repository and out of
    the next test: an in-process ``main([...])`` installs a disk-backed
    cache over ``default_disk_dir()`` and leaves it active, so root that
    default (whichever module's binding of it is called) under a temp
    dir, and replace whatever cache the test installed by a fresh
    memory-only one, so no memoized run outlives its test."""
    monkeypatch.setattr(runcache, "_REPO_ROOT", str(tmp_path))
    yield
    runcache.reset()


class CacheCounters:
    """The run cache's ``cache.*`` counters moved since :meth:`mark` (or
    since the test began): ``counters["hits"]``; an unmoved one reads 0.
    The registry is process-wide, so a test reads deltas, never totals."""

    def __init__(self):
        self.mark()

    def mark(self) -> None:
        self._since = obs_metrics.capture()

    def __getitem__(self, name: str) -> float:
        moved = obs_metrics.capture(since=self._since)["counters"]
        return moved.get("cache." + name, 0)


@pytest.fixture
def cache_counters():
    return CacheCounters()
