"""The run cache: content-addressed memoization of workload runs.

One simulated run is a pure function of ``(workload, horizon, seed,
plan)`` — the determinism invariant campaign fan-out already relies on.
This module turns that invariant into a cache: the :class:`RunCache`
keys completed :class:`~repro.sim.cluster.RunResult`\\ s on ``(workload
fingerprint, seed, horizon, canonical plan key)`` and serves them back
to every consumer of ``execute_workload`` — the Explorer's rounds, the
baseline strategy runner, and (through both) the iterative multi-fault
workflow and the campaign engine.

Two tiers, one representation — the record of a run, its
``RunResult`` pickled once (the log and the trace pickle as their
columns), never a live object graph:

* an in-process LRU of records, always on (what skips it is a run
  with a recorder attached, DESIGN §5.3, and an unfingerprintable
  workload), decoded afresh on every hit; and
* an optional on-disk tier, ``benchmarks/out/runcache/`` by default,
  shared between campaign worker processes: each process appends its
  records to a segment file of its own (:class:`~repro.cache.disk.
  DiskTier`, DESIGN §8.1).  The other artefacts that go stale with
  the code, module facts and whole campaign cells, persist in the
  ``facts/`` and ``cells/`` sub-tiers of the same directory
  (:meth:`RunCache.tier`), so ``--cache-dir`` relocates all three.

A record carries a trace iff its run armed nothing, because
``execute_workload`` traces exactly those runs.  A lookup is a hit or a
miss, nothing else: that windows which fire alike share a run is
decided before the cache is asked, by running each window as the
instance it fires (DESIGN §8.2).

Staleness: the workload fingerprint digests the source a run executes
(the workload's module, the mini systems, the simulator, the injection
layer), so entries written by any other code — another commit, an
uncommitted edit — can never be served.

Counters (``cache.hits`` / ``cache.misses`` /
``cache.disk_hits`` / ``cache.stores`` / ``cache.disk_errors``) live in
:mod:`repro.obs.metrics` only, so they aggregate across campaign worker
processes like every other operational counter; every report reads
them through :func:`~repro.obs.metrics.runner_stats`.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import pickle
import sys
import weakref
from collections import OrderedDict
from typing import Optional

from ..obs import metrics as obs_metrics
from ..obs.bus import active_bus
from .disk import DiskTier

#: Lookup/served outcomes reported by :meth:`RunCache.execute`.
HIT = "hit"
MISS = "miss"
UNCACHED = "uncached"

_REPO_ROOT = os.path.abspath(
    os.path.join(os.path.dirname(__file__), "..", "..", "..")
)


def default_disk_dir() -> str:
    """The on-disk tier's default location, next to the bench outputs."""
    return os.path.join(_REPO_ROOT, "benchmarks", "out", "runcache")


# ------------------------------------------------------------- fingerprints

_FINGERPRINTS: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()

_PACKAGE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: What runs execute besides their workload's own module (broader than
#: any one run: a stale hit is a wrong answer, a needless miss one run).
_RUN_CODE = ("systems", "sim", "injection", os.path.join("logs", "record.py"))
_DIGESTS: dict[str, bytes] = {}


def source_digest(path: str) -> bytes:
    """Digest of the file ``path``, or of every ``*.py`` under the
    directory ``path``; read once per process."""
    digest = _DIGESTS.get(path)
    if digest is None:
        files = sorted(
            os.path.join(folder, name)
            for folder, _, names in os.walk(path)
            for name in names
            if name.endswith(".py")
        )
        sha = hashlib.sha256()
        for file in files or [path]:
            with open(file, "rb") as handle:
                sha.update(handle.read() + b"\x00")
        digest = _DIGESTS[path] = sha.digest()
    return digest


def package_digest() -> bytes:
    """Digest of every source file of the ``repro`` package: what a
    campaign cell executes (its key in the ``cells`` tier)."""
    return source_digest(_PACKAGE)


#: What a callable can carry that its module's source does not show: two
#: closures made by one factory share a name and a source.
_HIDDEN_STATE = ("__closure__", "__defaults__", "__kwdefaults__", "__self__")


def workload_fingerprint(workload) -> Optional[str]:
    """Content fingerprint of a workload callable, or ``None`` if unsafe.

    Folds together the function's dotted name, the source of the module
    that defines it (workload, oracle and ground truth live there) and
    the source of :data:`_RUN_CODE` — so an edit to anything a run
    executes, committed or not, misses.  Callables without a qualified
    name, or with state of their own (:data:`_HIDDEN_STATE`), are
    uncacheable and yield ``None``.
    """
    try:
        cached = _FINGERPRINTS.get(workload)
    except TypeError:  # unhashable/unweakrefable callable
        cached = None
    if cached is not None:
        return cached or None
    module = getattr(workload, "__module__", "")
    qualname = getattr(workload, "__qualname__", "")
    fingerprint = ""
    hidden = any(getattr(workload, name, None) is not None for name in _HIDDEN_STATE)
    if module and qualname and not hidden:
        digest = hashlib.sha256(f"{module}:{qualname}".encode())
        paths = [os.path.join(_PACKAGE, part) for part in _RUN_CODE]
        for path in (*paths, getattr(sys.modules.get(module), "__file__", None)):
            try:
                digest.update(source_digest(path))
            except (OSError, TypeError):  # a module without a source file
                digest.update(b"\x00")
        fingerprint = digest.hexdigest()[:24]
    try:
        _FINGERPRINTS[workload] = fingerprint
    except TypeError:
        pass
    return fingerprint or None


def _plan_key(plan) -> tuple:
    return plan.key() if plan is not None else ((), ())


def _run(runner, workload, horizon, seed, plan):
    """Execute for real."""
    if runner is None:
        from ..sim.cluster import execute_workload as runner
    return runner(workload, horizon=horizon, seed=seed, plan=plan)


# -------------------------------------------------------------------- cache


class RunCache:
    """Two-tier (memory LRU + optional disk) cache of deterministic runs,
    each held as its packed record under the digest of its key."""

    def __init__(
        self, capacity: int = 1024, disk_dir: Optional[str] = None
    ) -> None:
        if capacity < 1:
            raise ValueError("capacity must be at least 1")
        self.capacity = capacity
        self.disk_dir = disk_dir
        self._memory: "OrderedDict[str, bytes]" = OrderedDict()
        self._tiers: dict[str, DiskTier] = {}
        self._disk = self.tier("")  # run records: in the directory itself

    @staticmethod
    def _disk_error() -> None:
        obs_metrics.increment("cache.disk_errors")

    def tier(self, name: str) -> Optional[DiskTier]:
        """The persistent tier ``<disk_dir>/<name>/`` of another artefact
        kept beside the runs (module facts, campaign cells), or ``None`` without a disk
        tier.  Its failures count as ``cache.disk_errors``."""
        if self.disk_dir is None:
            return None
        tier = self._tiers.get(name)
        if tier is None:
            tier = self._tiers[name] = DiskTier(
                os.path.join(self.disk_dir, name), f"{name or 'run'}-cache",
                self._disk_error,
            )
        return tier

    def close(self) -> None:
        """Return the disk tiers' descriptors (they reopen on use)."""
        for tier in self._tiers.values():
            tier.close()

    # ------------------------------------------------------------------ keys

    def _key(self, workload, horizon, seed, plan) -> Optional[tuple]:
        fingerprint = workload_fingerprint(workload)
        if fingerprint is None:
            return None
        return (fingerprint, int(seed), float(horizon), _plan_key(plan))

    @staticmethod
    def _name(key: tuple) -> str:
        """What both tiers call ``key``'s record; callers derive it once
        per key and pass it on."""
        return hashlib.blake2b(repr(key).encode(), digest_size=20).hexdigest()

    # ---------------------------------------------------------------- lookup

    def _lookup(self, name: str):
        """Memory-then-disk probe for a record, decoded; promotes disk
        records into memory.  ``(result, came from disk)``."""
        record = self._memory.get(name)
        if record is not None:
            self._memory.move_to_end(name)
            return pickle.loads(record), False
        if self._disk is not None:
            found = self._disk.read(
                name, lambda data: (data, pickle.loads(data))
            )
            if found is not None:
                self._memory_store(name, found[0])
                return found[1], True
        return None, False

    # ----------------------------------------------------------------- store

    def _memory_store(self, name: str, record: bytes) -> None:
        self._memory[name] = record
        self._memory.move_to_end(name)
        while len(self._memory) > self.capacity:
            self._memory.popitem(last=False)

    def put(self, workload, horizon, seed, plan, result) -> None:
        """Store a completed run under its key."""
        key = self._key(workload, horizon, seed, plan)
        if key is not None:
            self._put(self._name(key), result)

    def _put(self, name: str, result) -> None:
        try:
            record = pickle.dumps(result, pickle.HIGHEST_PROTOCOL)
        except Exception:
            # A result whose state does not pickle: counted, and simply
            # not cached.
            self._disk_error()
            return
        obs_metrics.increment("cache.stores")
        self._memory_store(name, record)
        if self._disk is not None:
            self._disk.write(name, lambda: record)

    # --------------------------------------------------------------- execute

    def execute(
        self,
        workload,
        horizon,
        seed=0,
        plan=None,
        runner=None,
    ):
        """The run for ``(workload, horizon, seed, plan)``.

        Returns ``(result, outcome)`` with ``outcome`` one of ``"hit"``,
        ``"miss"``, or ``"uncached"`` (unfingerprintable workload).
        ``runner`` is the executor used on a miss; passing
        the caller's own ``execute_workload`` reference keeps
        monkeypatched test doubles in charge of actual execution.  A hit
        is decoded for this call; the cache keeps no reference to it.
        """
        key = self._key(workload, horizon, seed, plan)
        if key is None:
            return _run(runner, workload, horizon, seed, plan), UNCACHED
        name = self._name(key)
        result, from_disk = self._lookup(name)
        if result is not None:
            obs_metrics.increment("cache.hits")
            if from_disk:
                obs_metrics.increment("cache.disk_hits")
            return result, HIT
        obs_metrics.increment("cache.misses")
        result = _run(runner, workload, horizon, seed, plan)
        self._put(name, result)
        return result, MISS


# ---------------------------------------------------------- process global

#: The process-wide cache: a memory tier from import on, because a run
#: is a pure function of its key whoever asks for it.
_active = RunCache()


def configure(enabled: bool = True, disk_dir: Optional[str] = None) -> RunCache:
    """Install a fresh process-wide cache, with its disk tier at
    ``disk_dir`` (``None``: memory only), and return it; a pool worker
    installs the :class:`RunConfig` its parent ships.
    ``enabled`` is ignored, the memory tier being always on (a shim for
    the frozen benchmark, DESIGN §5.3)."""
    global _active
    _active.close()
    _active = RunCache(disk_dir=disk_dir)
    return _active


def active() -> RunCache:
    """The process-wide cache."""
    return _active


def reset() -> None:
    """Install a fresh memory-only cache (closing the previous one)."""
    configure()


@dataclasses.dataclass(frozen=True)
class RunConfig:
    """How a process runs, picklable as one value: the disk tier and
    the event stream, neither of which may change a search's outcome.

    A process pool ships it to each worker once, as the pool
    initializer's argument, and the worker calls :meth:`install`.
    """

    #: The run cache's disk tier; ``None`` keeps it in memory only.
    cache_dir: Optional[str] = None
    events: bool = False

    @classmethod
    def here(cls) -> "RunConfig":
        """The config this process runs under.

        The cache tier and the bus are read back from the process, so a
        pool started by library code that called :func:`configure` or
        ``set_active_bus`` itself is configured like the CLI's.
        """
        return cls(cache_dir=_active.disk_dir, events=active_bus().enabled)

    def install(self) -> None:
        """Run this process under the config (also the pool initializer)."""
        configure(disk_dir=self.cache_dir)


def cached_execute(workload, *, horizon, seed=0, plan=None, runner=None):
    """Run through the process-wide cache."""
    result, _outcome = _active.execute(workload, horizon, seed, plan, runner)
    return result
