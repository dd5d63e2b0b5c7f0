"""Content-addressed memoization of deterministic workload runs.

The simulator is a pure function of ``(workload, horizon, seed, plan)``;
this package caches its :class:`~repro.sim.cluster.RunResult` values so
the search stack never pays twice for the same run.  See
:mod:`repro.cache.runcache` for the cache itself and DESIGN.md §8 for the
keying and determinism argument.
"""

from .runcache import (
    RunCache,
    active,
    cached_execute,
    configure,
    default_disk_dir,
    reset,
    workload_fingerprint,
)

__all__ = [
    "RunCache",
    "active",
    "cached_execute",
    "configure",
    "default_disk_dir",
    "reset",
    "workload_fingerprint",
]
