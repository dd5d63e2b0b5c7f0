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

* an in-process LRU of records (always on when the cache is active),
  decoded afresh on every hit; and
* an optional on-disk tier, ``benchmarks/out/runcache/`` by default,
  shared between campaign worker processes: each process appends its
  records to a segment file of its own (:class:`~repro.cache.disk.
  DiskTier`, DESIGN §8.1).  The one other artefact that goes stale
  with the code, module facts, persists in the ``facts/`` sub-tier of
  the same directory (:meth:`RunCache.tier`), so ``--cache-dir``
  relocates both.

A record carries a trace iff its run armed nothing, because
``execute_workload`` traces exactly those runs.

Noop-plan aliasing
------------------

A plan whose window never fires leaves the run byte-identical to the
run with an *empty* window (the FIR only perturbs execution when an
instance actually raises).  Whether a window will fire is decidable
*before running*: execution is identical up to the first injection, so
an armed ``(site, occurrence)`` fires iff the noop run (same workload/
seed/horizon, empty window, same base-fault set — its *noop key*)
executed ``site`` at least ``occurrence`` times.  When the noop entry is
cached and no armed pair passes that test against its ``site_counts``,
the lookup is served as an **alias hit** without executing anything.
Baselines that keep regenerating never-firing windows stop paying for
them.  Nothing but a window-less run writes under a noop key, so the
record a later probe reads there always carries its trace.

Staleness: the workload fingerprint digests the source a run executes
(the workload's module, the mini systems, the simulator, the injection
layer), so entries written by any other code — another commit, an
uncommitted edit — can never be served.

Counters (``cache.hits`` / ``cache.misses`` / ``cache.alias_hits`` /
``cache.disk_hits`` / ``cache.stores`` / ``cache.disk_errors``) live in
:mod:`repro.obs.metrics` only, so they aggregate across campaign worker
processes like every other operational counter; every report reads
them through :func:`~repro.obs.metrics.runner_stats`.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import sys
import weakref
from collections import OrderedDict
from typing import Optional

from ..obs import metrics as obs_metrics
from .disk import DiskTier

#: Lookup/served outcomes reported by :meth:`RunCache.execute`.
HIT = "hit"
ALIAS = "alias"
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


def workload_fingerprint(workload) -> Optional[str]:
    """Content fingerprint of a workload callable, or ``None`` if unsafe.

    Folds together the function's dotted name, the source of the module
    that defines it (workload, oracle and ground truth live there) and
    the source of :data:`_RUN_CODE` — so an edit to anything a run
    executes, committed or not, misses.  Callables without a qualified
    name are uncacheable and yield ``None``.
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
    if module and qualname:
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
        #: noop entry name -> that noop run's ``site_counts``, decoded
        #: once; the alias-prediction index.
        self._noop_counts: dict[str, dict] = {}
        self._tiers: dict[str, DiskTier] = {}
        self._disk = self.tier("")  # run records: in the directory itself

    @staticmethod
    def _disk_error() -> None:
        obs_metrics.increment("cache.disk_errors")

    def tier(self, name: str) -> Optional[DiskTier]:
        """The persistent tier ``<disk_dir>/<name>/`` of another artefact
        kept beside the runs (module facts), or ``None`` without a disk
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
    def _noop_key(key: tuple) -> tuple:
        """The same run with an empty window (base faults preserved)."""
        fingerprint, seed, horizon, (_window, always) = key
        return (fingerprint, seed, horizon, ((), always))

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

    def _alias_lookup(self, key: tuple, name: str, plan):
        """Serve a never-firing plan from the cached noop run, if decidable.

        An armed instance fires iff the noop run executed its site at
        least ``occurrence`` times — before the first injection the
        perturbed run replays the noop run exactly.  No instance reached
        means no injection ever happens, so the noop result *is* this
        plan's result.
        """
        if plan is None or not plan.instances:
            return None
        noop_name = self._name(self._noop_key(key))
        counts = self._noop_counts.get(noop_name)
        if counts is None:
            noop_result, _ = self._lookup(noop_name)
            if noop_result is None:
                return None
            counts = self._noop_counts[noop_name] = noop_result.site_counts
        if any(
            0 < instance.occurrence <= counts.get(instance.site_id, 0)
            for instance in plan.instances
        ):
            return None
        noop_result, _ = self._lookup(noop_name)
        if noop_result is not None:
            # Remember the alias (the noop run's record, shared) so the
            # next identical lookup is a plain memory hit.
            self._memory_store(name, self._memory[noop_name])
        return noop_result

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
        ``"alias"``, ``"miss"``, or ``"uncached"`` (unfingerprintable
        workload).  ``runner`` is the executor used on a miss; passing
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
        result = self._alias_lookup(key, name, plan)
        if result is not None:
            obs_metrics.increment("cache.alias_hits")
            return result, ALIAS
        obs_metrics.increment("cache.misses")
        result = _run(runner, workload, horizon, seed, plan)
        self._put(name, result)
        return result, MISS


# ---------------------------------------------------------- process global

_active: Optional[RunCache] = None


def configure(
    enabled: bool = True,
    disk_dir: Optional[str] = None,
    capacity: int = 1024,
) -> Optional[RunCache]:
    """Install (or remove) the process-wide cache and return it.

    Worker processes are configured the same way: the pools ship a
    :class:`repro.core.pipeline.RunConfig` as their initializer argument
    and each worker installs it.
    """
    global _active
    reset()
    _active = RunCache(capacity=capacity, disk_dir=disk_dir) if enabled else None
    return _active


def active() -> Optional[RunCache]:
    """The process-wide cache; ``None`` until :func:`configure` enables
    one, so library consumers and tests that stub out
    ``execute_workload`` must opt in explicitly."""
    return _active


def reset() -> None:
    """Drop the process-wide cache and close its descriptors."""
    global _active
    if _active is not None:
        _active.close()
    _active = None


def cached_execute(
    workload,
    *,
    horizon,
    seed=0,
    plan=None,
    runner=None,
):
    """Run through the active cache, or directly when no cache is active."""
    cache = active()
    if cache is None:
        return _run(runner, workload, horizon, seed, plan)
    result, _outcome = cache.execute(
        workload, horizon=horizon, seed=seed, plan=plan, runner=runner
    )
    return result
