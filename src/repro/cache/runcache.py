"""The run cache: content-addressed memoization of workload runs.

One simulated run is a pure function of ``(workload, horizon, seed,
plan)`` — the determinism invariant campaign fan-out already relies on.
This module turns that invariant into a cache: the :class:`RunCache`
keys completed :class:`~repro.sim.cluster.RunResult`\\ s on ``(workload
fingerprint, seed, horizon, canonical plan key)`` and serves them back
to every consumer of ``execute_workload`` — the Explorer's rounds, the
baseline strategy runner, and (through both) the iterative multi-fault
workflow and the campaign engine.

Two tiers:

* an in-process LRU (always on when the cache is active); and
* an optional on-disk tier, one entry per key under
  ``benchmarks/out/runcache/`` by default, shared between campaign
  worker processes (:class:`~repro.cache.disk.DiskTier`: atomic writes;
  corrupt or truncated entries are *skipped* — never fatal — with one
  ``RuntimeWarning`` per cache instance).  An entry is a checksummed
  ``sim.checkpoint`` row encoding, not a pickled object graph, and a hit
  decodes only what is read (DESIGN §8.1).  The other per-commit
  artefacts (flow graphs, module facts) persist in sub-tiers of the same
  directory (:meth:`RunCache.tier`), so ``--cache-dir`` relocates them all.

Noop-plan aliasing
------------------

A plan whose window never fires leaves the run byte-identical to the
run with an *empty* window (the FIR only perturbs execution when an
instance actually raises).  The cache exploits this twice:

* **on completion** — a run that finished with no fired window instance
  is additionally stored under its *noop key* (same workload/seed/
  horizon, empty window, same base-fault set), so every never-firing
  plan converges on one shared entry; and
* **on lookup** — whether a window will fire is decidable *before
  running*: an armed ``(site, occurrence)`` fires iff it appears in the
  trace of the noop run (execution is identical up to the first
  injection).  When the noop entry is cached and no armed pair occurs
  in its trace, the lookup is served as an **alias hit** without
  executing anything.  Baselines that keep regenerating never-firing
  windows stop paying for them.

Staleness: the workload fingerprint folds in the checked-out git SHA
and the workload function's source, so entries written by other
commits (via the rolling CI cache) can never be served.

Counters (``cache.hits`` / ``cache.misses`` / ``cache.alias_hits`` /
``cache.disk_hits`` / ``cache.stores`` / ``cache.disk_errors``) are
mirrored into :mod:`repro.obs.metrics` so they aggregate across
campaign worker processes like every other operational counter.
"""

from __future__ import annotations

import hashlib
import inspect
import json
import os
import pickle
import weakref
import zlib
from collections import OrderedDict
from dataclasses import asdict, dataclass
from typing import Optional

from ..obs import metrics as obs_metrics
from ..obs.ledger import git_sha
from .disk import DiskTier

# Version 2: TraceEvent and other run-record dataclasses grew
# ``slots=True``, which changes their pickle state shape — version-1
# entries would silently deserialize with corrupt field values.
# Version 4: fault identity generalized to (site, fault-spec) —
# ``FaultInstance.exception`` became ``FaultInstance.spec``, changing the
# pickled ``__dict__`` shape of every plan-bearing entry; version-3
# entries would deserialize with the spec under the old attribute name.
# Version 5: the result codec grew ``truncated_at`` (early-verdict
# cutoff); version-4 entries would decode without the field.
# Version 6: ``result`` became a checksummed ``body`` whose trace rows
# are a nested blob, unpickled only when ``RunResult.trace`` is read.
PAYLOAD_VERSION = 6

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


def workload_fingerprint(workload) -> Optional[str]:
    """Content fingerprint of a workload callable, or ``None`` if unsafe.

    Folds together the function's dotted name, its source text (so an
    edited workload misses), and the checked-out git SHA (so entries
    persisted by other commits — e.g. via a rolling CI cache — can
    never be served to this one).  Callables whose identity cannot be
    established deterministically (no qualified name *and* no
    retrievable source) are uncacheable and yield ``None``.
    """
    try:
        cached = _FINGERPRINTS.get(workload)
    except TypeError:  # unhashable/unweakrefable callable
        cached = None
    if cached is not None:
        return cached or None
    module = getattr(workload, "__module__", "")
    qualname = getattr(workload, "__qualname__", "")
    try:
        source = inspect.getsource(workload)
    except (OSError, TypeError):
        source = ""
    if not (module and qualname) and not source:
        fingerprint = ""
    else:
        digest = hashlib.sha256()
        digest.update(git_sha().encode())
        digest.update(b"\x00")
        digest.update(f"{module}:{qualname}".encode())
        digest.update(b"\x00")
        digest.update(source.encode())
        fingerprint = digest.hexdigest()[:24]
    try:
        _FINGERPRINTS[workload] = fingerprint
    except TypeError:
        pass
    return fingerprint or None


# ------------------------------------------------------------------- stats


@dataclass
class CacheStats:
    """Served/stored counters for one :class:`RunCache`."""

    hits: int = 0          # memory or disk entry served
    misses: int = 0        # executed for real
    alias_hits: int = 0    # served via noop-plan aliasing
    disk_hits: int = 0     # subset of ``hits`` that came off disk
    stores: int = 0        # entries written (memory tier)
    disk_errors: int = 0   # corrupt/unwritable/unpicklable disk entries

    @property
    def served(self) -> int:
        return self.hits + self.alias_hits

    @property
    def lookups(self) -> int:
        return self.served + self.misses

    @property
    def hit_rate(self) -> float:
        lookups = self.lookups
        return self.served / lookups if lookups else 0.0

    def to_dict(self) -> dict:
        payload = asdict(self)
        payload["hit_rate"] = round(self.hit_rate, 6)
        return payload


def _plan_key(plan) -> tuple:
    return plan.key() if plan is not None else ((), ())


def _run(runner, workload, horizon, seed, plan, monitor_factory):
    """Execute for real, under a fresh monitor when the caller has one.

    ``monitor=`` is passed only then, so unmonitored runners (and test
    doubles of ``execute_workload``) keep their plain signature.
    """
    if runner is None:
        from ..sim.cluster import execute_workload as runner
    if monitor_factory is None:
        return runner(workload, horizon=horizon, seed=seed, plan=plan)
    return runner(
        workload, horizon=horizon, seed=seed, plan=plan,
        monitor=monitor_factory(),
    )


# -------------------------------------------------------------------- cache


class RunCache:
    """Two-tier (memory LRU + optional disk) cache of deterministic runs."""

    def __init__(
        self, capacity: int = 1024, disk_dir: Optional[str] = None
    ) -> None:
        if capacity < 1:
            raise ValueError("capacity must be at least 1")
        self.capacity = capacity
        self.disk_dir = disk_dir
        self.stats = CacheStats()
        self._memory: "OrderedDict[tuple, object]" = OrderedDict()
        #: noop key -> frozenset of (site_id, occurrence) pairs executed
        #: by that noop run; the alias-prediction index.
        self._noop_pairs: dict[tuple, frozenset] = {}
        self._disk = (
            DiskTier(disk_dir, "run-cache", self._disk_error)
            if disk_dir is not None
            else None
        )
        self._tiers: dict[str, DiskTier] = {}

    def _disk_error(self) -> None:
        self.stats.disk_errors += 1
        obs_metrics.increment("cache.disk_errors")

    def tier(self, name: str) -> Optional[DiskTier]:
        """The persistent tier ``<disk_dir>/<name>/`` of another artefact
        that is stale under the same conditions as a run (the flow graph,
        module facts), or ``None`` without a disk tier.  Its failures
        count as this cache's ``disk_errors``."""
        if self.disk_dir is None:
            return None
        tier = self._tiers.get(name)
        if tier is None:
            tier = self._tiers[name] = DiskTier(
                os.path.join(self.disk_dir, name), f"{name}-cache",
                self._disk_error,
            )
        return tier

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
    def _verdict_key(key: tuple, monitor_key: str) -> tuple:
        """The truncation-aware extension of a plain key.

        Truncated results are oracle-equivalent to the full run but carry
        a shorter log, so they live only under this extended key: a
        plain-key (full-run) consumer can never be served one, while
        monitored consumers probe the plain key *first* — a full result
        is valid for everyone.
        """
        return key + (("verdict", monitor_key),)

    @staticmethod
    def _entry_name(key: tuple) -> str:
        material = json.dumps(key, separators=(",", ":"))
        return hashlib.sha256(material.encode()).hexdigest()[:40] + ".pkl"

    # ---------------------------------------------------------------- lookup

    def _memory_get(self, key: tuple):
        result = self._memory.get(key)
        if result is not None:
            self._memory.move_to_end(key)
        return result

    def _disk_get(self, key: tuple):
        if self._disk is None:
            return None
        from ..sim.checkpoint import _decode_result

        def decode(data: bytes):
            payload = pickle.loads(data)
            if (
                not isinstance(payload, dict)
                or payload.get("version") != PAYLOAD_VERSION
                or payload.get("key") != key
            ):
                raise ValueError("run-cache entry key/version mismatch")
            body = payload["body"]
            # The trace blob inside is unpickled lazily, long after this
            # read returned: only a checksum can vouch for it now.
            if zlib.crc32(body) != payload["crc"]:
                raise ValueError("run-cache entry checksum mismatch")
            return _decode_result(pickle.loads(body))

        return self._disk.read(self._entry_name(key), decode)

    def _lookup(self, key: tuple):
        """Memory-then-disk probe; promotes disk entries into memory."""
        result = self._memory_get(key)
        if result is not None:
            return result, False
        result = self._disk_get(key)
        if result is not None:
            self._memory_store(key, result)
            return result, True
        return None, False

    def _alias_lookup(self, key: tuple, plan):
        """Serve a never-firing plan from the cached noop run, if decidable.

        An armed instance fires iff its ``(site, occurrence)`` pair
        appears in the noop run's trace — before the first injection the
        perturbed run replays the noop run exactly.  No pair present
        means no injection ever happens, so the noop result *is* this
        plan's result.
        """
        if plan is None or not plan.instances:
            return None
        noop_key = self._noop_key(key)
        if noop_key == key:
            return None
        pairs = self._noop_pairs.get(noop_key)
        if pairs is None:
            noop_result, _ = self._lookup(noop_key)
            if noop_result is None:
                return None
            pairs = frozenset(
                (event.site_id, event.occurrence)
                for event in getattr(noop_result, "trace", ())
            )
            self._noop_pairs[noop_key] = pairs
        if any(
            (instance.site_id, instance.occurrence) in pairs
            for instance in plan.instances
        ):
            return None
        noop_result, _ = self._lookup(noop_key)
        return noop_result

    # ----------------------------------------------------------------- store

    def _memory_store(self, key: tuple, result) -> None:
        self._memory[key] = result
        self._memory.move_to_end(key)
        while len(self._memory) > self.capacity:
            self._memory.popitem(last=False)

    def _disk_store(self, key: tuple, result) -> None:
        if self._disk is None:
            return
        # Flatten the result first: pickling thousands of small
        # LogRecord/TraceEvent dataclasses one by one costs ~10x the
        # primitive-tuple encoding (see sim.checkpoint's codec, shared
        # here so fork frames and cache entries stay byte-compatible).
        from ..sim.checkpoint import _encode_result

        def encode() -> bytes:
            body = pickle.dumps(
                _encode_result(result), protocol=pickle.HIGHEST_PROTOCOL
            )
            return pickle.dumps(
                {
                    "version": PAYLOAD_VERSION,
                    "key": key,
                    "crc": zlib.crc32(body),
                    "body": body,
                },
                protocol=pickle.HIGHEST_PROTOCOL,
            )

        self._disk.write(self._entry_name(key), encode)

    def put(self, workload, horizon, seed, plan, result, monitor_key=None) -> None:
        """Store a completed run (plus its noop alias when applicable).

        Truncated results require ``monitor_key`` and are stored only
        under the extended key; without one they are dropped rather than
        poisoning the plain entry.
        """
        key = self._key(workload, horizon, seed, plan)
        if key is not None:
            self._put(key, plan, result, monitor_key)

    def _put(self, key: tuple, plan, result, monitor_key) -> None:
        if getattr(result, "truncated_at", None) is None:
            self._store(key, plan, result)
        elif monitor_key:
            self._store_truncated(self._verdict_key(key, monitor_key), result)

    def _store(self, key: tuple, plan, result) -> None:
        self.stats.stores += 1
        obs_metrics.increment("cache.stores")
        self._memory_store(key, result)
        self._disk_store(key, result)
        if (
            plan is not None
            and plan.instances
            and getattr(result, "injected_instance", None) is None
        ):
            # Completion-time aliasing: nothing in the window fired, so
            # this run *is* the noop run for its (seed, base-fault) class.
            noop_key = self._noop_key(key)
            if noop_key != key and self._memory_get(noop_key) is None:
                self._memory_store(noop_key, result)
                self._disk_store(noop_key, result)

    def _store_truncated(self, ext_key: tuple, result) -> None:
        """Store a truncated result under its extended key only — never
        the plain key, never the noop alias (truncated runs always have
        a fired injection, but their log/counters are monitor-specific).
        """
        self.stats.stores += 1
        obs_metrics.increment("cache.stores")
        self._memory_store(ext_key, result)
        self._disk_store(ext_key, result)

    # --------------------------------------------------------------- execute

    def execute(
        self,
        workload,
        horizon,
        seed=0,
        plan=None,
        runner=None,
        monitor_factory=None,
        monitor_key=None,
    ):
        """The run for ``(workload, horizon, seed, plan)``.

        Returns ``(result, outcome)`` with ``outcome`` one of ``"hit"``,
        ``"alias"``, ``"miss"``, or ``"uncached"`` (unfingerprintable
        workload).  ``runner`` is the executor used on a miss; passing
        the caller's own ``execute_workload`` reference keeps
        monkeypatched test doubles in charge of actual execution.

        ``monitor_factory``/``monitor_key`` enable early-verdict cutoff:
        a miss runs under a fresh monitor, and a truncated result is
        stored under — and may later be served from — the
        monitor-extended key.  The plain key is always probed first.
        """
        key = self._key(workload, horizon, seed, plan)
        if key is None:
            return (
                _run(runner, workload, horizon, seed, plan, monitor_factory),
                UNCACHED,
            )
        result, from_disk = self._lookup(key)
        if result is None and monitor_factory is not None and monitor_key:
            result, from_disk = self._lookup(
                self._verdict_key(key, monitor_key)
            )
        if result is not None:
            self.stats.hits += 1
            obs_metrics.increment("cache.hits")
            if from_disk:
                self.stats.disk_hits += 1
                obs_metrics.increment("cache.disk_hits")
            return result, HIT
        result = self._alias_lookup(key, plan)
        if result is not None:
            self.stats.alias_hits += 1
            obs_metrics.increment("cache.alias_hits")
            # Remember the alias so the next identical lookup is a plain
            # memory hit without re-walking the trace index.
            self._memory_store(key, result)
            return result, ALIAS
        self.stats.misses += 1
        obs_metrics.increment("cache.misses")
        result = _run(runner, workload, horizon, seed, plan, monitor_factory)
        self._put(key, plan, result, monitor_key)
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
    _active = RunCache(capacity=capacity, disk_dir=disk_dir) if enabled else None
    return _active


def active() -> Optional[RunCache]:
    """The process-wide cache; ``None`` until :func:`configure` enables
    one, so library consumers and tests that stub out
    ``execute_workload`` must opt in explicitly."""
    return _active


def reset() -> None:
    """Drop the process-wide cache."""
    global _active
    _active = None


def cached_execute(
    workload,
    *,
    horizon,
    seed=0,
    plan=None,
    runner=None,
    monitor_factory=None,
    monitor_key=None,
):
    """Run through the active cache, or directly when no cache is active."""
    cache = active()
    if cache is None:
        return _run(runner, workload, horizon, seed, plan, monitor_factory)
    result, _outcome = cache.execute(
        workload,
        horizon=horizon,
        seed=seed,
        plan=plan,
        runner=runner,
        monitor_factory=monitor_factory,
        monitor_key=monitor_key,
    )
    return result
