"""Fixtures shared across the tier-1 suite."""

import pytest

from repro.cache import runcache


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
