"""Process-level checkpoint/fork: kill the fault-free prefix of a replay.

Every plan armed against one ``(workload, horizon, seed)`` shares a long
fault-free prefix — before the first armed instance fires, the run
replays the probe trace exactly (§5.2.5 single-shot window semantics).
For long, late-failing runs, replaying that prefix from t=0 for each
plan is the dominant cost.

This module is a library: searches run every round inline (DESIGN
§10), and :class:`CheckpointPool` is driven directly — by the e2e
benchmark's replay leg and by its own tests.  ``repro.sim`` exports it
lazily, so a process that never forks never compiles it.

Generators cannot be pickled or deep-copied, so an in-process snapshot
of the scheduler cannot resume tasks.  What *can* clone a pile of live
generator frames, exactly and cheaply, is ``os.fork``.  The scheme:

1. A **holder** process forks off the parent and runs the workload
   fault-free, with an :meth:`~repro.injection.fir.FIR.set_trigger`
   armed at request ordinal ``K`` (1-based, from the probe trace).  When
   request ``K`` executes, the holder parks inside the trigger — its
   entire sim state frozen mid-run — and serves fork requests off a
   pipe.
2. For each candidate plan, the holder forks a **grandchild** that swaps
   the candidate plan in (:meth:`~repro.injection.fir.FIR.swap_plan`,
   which preserves prefix state) and simply returns from the trigger:
   the run continues from request ``K`` as if the plan had been active
   all along.  The grandchild ships back only what it computed — the
   log *after* the fork point plus the scalar fields; the parent
   already holds the shared prefix from the holder's ready frame.
3. The pool keeps one holder ("rung"), parked at exactly the fork point
   of the plans it serves, and replaces it when a plan's fork point
   differs.

The invariance contract: a fork-served run is byte-identical to a full
replay.  The prefix is shared by construction (deterministic sim, same
plan semantics up to ``K``), and the trigger fires after the request is
counted but before its injection decision, so the grandchild makes
exactly the decisions a full replay would.  Every run forked off a
holder is armed, so the holder runs untraced like the inline replay it
stands in for (``execute_workload`` traces only unarmed runs).

Everything the pool cannot fork runs inline: platforms without
``os.fork``, foreign workloads/seeds/horizons, plans with ``always``
faults and recorder-attached runs.  A fork that was attempted and
failed (pipe, fork, child, torn or inconsistent frame) is re-run inline
and counted under ``sim.checkpoint.fallbacks``.
"""

from __future__ import annotations

import gc
import hashlib
import os
import pickle
import signal
import struct
import warnings
from typing import Optional

from ..injection.fir import InjectionPlan, ProbeTrace
from ..obs import metrics as obs_metrics
from .cluster import Cluster, RunResult, execute_workload

__all__ = [
    "Checkpoint",
    "CheckpointPool",
    "checkpoint_supported",
    "snapshot_fingerprint",
]

#: Failed forks tolerated before the whole pool stops forking.
MAX_POOL_ERRORS = 2


def checkpoint_supported() -> bool:
    """Whether this platform can fork (POSIX; not Windows)."""
    return hasattr(os, "fork")


# ----------------------------------------------------------------- fingerprint


def _canonical(value):
    """Recursively order dicts/sets so ``repr`` is deterministic."""
    if isinstance(value, dict):
        return tuple(
            (key, _canonical(item)) for key, item in sorted(value.items())
        )
    if isinstance(value, (set, frozenset)):
        return tuple(sorted(repr(item) for item in value))
    if isinstance(value, (list, tuple)):
        return tuple(_canonical(item) for item in value)
    if isinstance(value, BaseException):
        return (type(value).__name__, str(value))
    return value


def snapshot_fingerprint(snapshot: dict) -> str:
    """Order-insensitive digest of a nested dict of run data.

    The e2e benchmark digests each replay's ``RunResult`` fields with it
    (``benchmarks/e2e/leg.py``): two runs with equal fingerprints ended
    in identical data states.
    """
    text = repr(_canonical(snapshot))
    return hashlib.sha256(text.encode()).hexdigest()[:24]


# --------------------------------------------------------------- pipe framing
#
# Messages are pickled blobs behind a 4-byte big-endian length prefix.
# ``os.read``/``os.write`` may move fewer bytes than asked, so both
# directions loop.  A writer never emits a partial frame by policy: the
# blob is fully pickled before the first byte goes out, and error paths
# exit without writing.

_HEADER = struct.Struct("!I")


def _write_all(fd: int, data: bytes) -> None:
    view = memoryview(data)
    while view:
        written = os.write(fd, view)
        view = view[written:]


def _read_exact(fd: int, count: int) -> bytes:
    chunks = []
    remaining = count
    while remaining:
        chunk = os.read(fd, remaining)
        if not chunk:
            raise EOFError("checkpoint pipe closed")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def _write_frame(fd: int, blob: bytes) -> None:
    _write_all(fd, _HEADER.pack(len(blob)) + blob)


def _write_message(fd: int, message: tuple) -> None:
    _write_frame(fd, pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL))


def _read_message(fd: int) -> tuple:
    (length,) = _HEADER.unpack(_read_exact(fd, _HEADER.size))
    return pickle.loads(_read_exact(fd, length))


def _fork() -> int:
    """``os.fork`` with the multi-threaded-process warning suppressed.

    A process that also hosts a ``ProcessPoolExecutor`` keeps its
    management thread alive, which makes CPython ≥3.12 warn on every
    fork.  The forked children here never touch thread state — they run
    the single-threaded sim and exit — so the warning is noise for this
    use.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)
        return os.fork()


# ------------------------------------------------------------------ processes


def _run_with_trigger(
    workload, horizon: float, seed: int, at_request: int, trigger
) -> RunResult:
    """A fault-free ``execute_workload`` with ``trigger(cluster)`` armed at
    a request, untraced: the trigger counts requests, and every run
    forked off it is armed.
    """
    cluster = Cluster(seed=seed)
    cluster.fir.tracing = False
    cluster.fir.set_trigger(at_request, lambda _fir: trigger(cluster))
    workload(cluster)
    return cluster.run(horizon)


def _holder_main(
    req_r: int,
    resp_w: int,
    workload,
    horizon: float,
    seed: int,
    at_request: int,
) -> None:
    """Body of the holder process; every path ends in ``os._exit``.

    The holder runs the prefix to request ``at_request``, ships the log
    it has produced so far in the ready frame, and parks in the trigger
    serving fork requests.  A forked grandchild returns from the trigger
    with the candidate plan swapped in, finishes the run, and writes the
    sole success frame — only what lies past the fork point; the holder
    reports grandchild failures (it writes only ``err`` frames, and only
    after ``waitpid``, so the two writers never interleave).
    """
    #: Set in a grandchild only: how many log records the parked prefix held.
    forked: list = []

    def trigger(cluster: Cluster) -> None:
        # Park the cyclic collector: a collection in holder or grandchild
        # would walk the whole inherited heap and fault in copy-on-write
        # pages wholesale.  (No gc.collect()/gc.freeze() here — both walk
        # every tracked object, which IS that wholesale copy.)
        gc.disable()
        fir, log = cluster.fir, cluster.collector.log
        _write_message(resp_w, ("ready", log))
        while True:
            try:
                message = _read_message(req_r)
            except (EOFError, OSError):
                os._exit(0)
            if message[0] == "close":
                os._exit(0)
            if message[0] != "run":
                os._exit(4)
            pid = _fork()
            if pid == 0:
                # Grandchild: resume the run under the candidate plan.
                forked.append(len(log))
                fir.swap_plan(InjectionPlan.from_payload(message[1]))
                return
            _, status = os.waitpid(pid, 0)
            if status != 0:
                _write_message(
                    resp_w, ("err", f"fork child exited with status {status}")
                )

    try:
        result = _run_with_trigger(workload, horizon, seed, at_request, trigger)
    except BaseException:
        os._exit(3 if forked else 4)
    if not forked:
        # The run finished without reaching the trigger (should not
        # happen for fork points derived from the probe trace): the
        # handshake fails and the checkpoint is born closed.
        _write_message(resp_w, ("err", "checkpoint trigger never reached"))
        os._exit(0)
    total = len(result.log)
    result.log = result.log[forked[0]:]
    try:
        blob = pickle.dumps(
            ("ok", result, total),
            protocol=pickle.HIGHEST_PROTOCOL,
        )
    except Exception:
        os._exit(3)
    _write_frame(resp_w, blob)
    os._exit(0)


class Checkpoint:
    """One parked holder process: the run frozen at request ``at_request``.

    ``run(plan)`` forks a grandchild off the holder that finishes the run
    under ``plan``, and returns the :class:`RunResult` — the rung's
    prefix plus the suffix the grandchild shipped — or ``None`` on any
    failure (after which the checkpoint is closed and unusable).  A
    holder that cannot be started (no pipe, no fork) leaves the
    checkpoint closed from the start, with no descriptor left open.
    """

    def __init__(
        self, workload, horizon: float, seed: int, at_request: int
    ) -> None:
        self.at_request = at_request
        self.closed = True
        fds: list = []
        try:
            fds += os.pipe()
            fds += os.pipe()
            pid = _fork()
        except OSError:
            for fd in fds:
                os.close(fd)
            return
        req_r, req_w, resp_r, resp_w = fds
        if pid == 0:
            os.close(req_w)
            os.close(resp_r)
            try:
                _holder_main(req_r, resp_w, workload, horizon, seed, at_request)
            finally:  # pragma: no cover - _holder_main always exits
                os._exit(4)
        os.close(req_r)
        os.close(resp_w)
        self.closed = False
        self._pid = pid
        self._req_w = req_w
        self._resp_r = resp_r
        # Wait for the holder to finish the prefix and park in the trigger,
        # so the prefix replay is paid here and run() times pure
        # fork+suffix.  The ready frame carries the prefix's log, which
        # every result forked off this rung puts in front of its own suffix.
        try:
            ready = _read_message(self._resp_r)
            if ready[0] != "ready":
                raise ValueError(ready)
            self._log_prefix = ready[1]
        except (OSError, EOFError, pickle.PickleError, TypeError, ValueError,
                IndexError):
            self.close()

    def run(self, plan: InjectionPlan) -> Optional[RunResult]:
        """Fork one candidate run off the parked prefix."""
        if self.closed:
            return None
        try:
            _write_message(self._req_w, ("run", plan.to_payload()))
            status, result, total = _read_message(self._resp_r)
            if status != "ok":
                raise ValueError(status)
            result.log = self._log_prefix + result.log
            # A frame that does not add up to the run the grandchild
            # finished is torn, whatever its pickle says.
            if len(result.log) != total:
                raise ValueError("fork frame disagrees with the parked prefix")
        except (OSError, EOFError, pickle.PickleError, TypeError, ValueError):
            self.close()
            return None
        return result

    def close(self) -> None:
        """Tear the holder down without waiting for it to finish."""
        if self.closed:
            return
        self.closed = True
        for fd in (self._req_w, self._resp_r):
            try:
                os.close(fd)
            except OSError:
                pass
        try:
            os.kill(self._pid, signal.SIGKILL)
        except (OSError, ProcessLookupError):
            pass
        try:
            os.waitpid(self._pid, 0)
        except (OSError, ChildProcessError):
            pass


# ----------------------------------------------------------------------- pool


class CheckpointPool:
    """One live checkpoint for one (workload, horizon, seed) context.

    Fork points come from the probe trace: a run replays the probe until
    its first injection, so a plan forks at the probe position of the
    instance it fires (:meth:`fork_point`).  An eligible plan forks from
    the pool's one rung, parked at exactly that position; a plan with
    another fork point replaces the rung with one at its own, so at most
    one holder is alive per pool.

    ``runner`` matches the executor contract of
    :func:`repro.cache.runcache.cached_execute`: a fork-served run is
    indistinguishable from the same run inline.
    """

    def __init__(
        self,
        workload,
        horizon: float,
        seed: int,
        probe_trace: ProbeTrace,
    ) -> None:
        self.workload = workload
        self.horizon = horizon
        self.seed = seed
        self._trace = probe_trace
        self._total_requests = len(probe_trace)
        #: The live rung by its depth: at most one entry.
        self._rungs: dict[int, Checkpoint] = {}
        self._errors = 0
        self.broken = not checkpoint_supported()

    # ------------------------------------------------------------- fork points

    def fork_point(self, plan: Optional[InjectionPlan]) -> Optional[int]:
        """Latest safe fork request for ``plan``, or ``None`` if ineligible.

        That is the probe ordinal of the instance the plan fires
        (:meth:`InjectionPlan.first_firing`); a plan that never fires
        can fork at the deepest point of the trace.  The holder runs the
        fault-free prefix, so a plan with ``always`` faults is foreign,
        and so is every plan against an empty trace.
        """
        if plan is None or plan.always or not self._total_requests:
            return None
        first = plan.first_firing(self._trace)
        if first is None:
            return self._total_requests
        return self._trace.ordinal(first.site_id, first.occurrence)

    # ----------------------------------------------------------------- running

    def runner(
        self,
        workload,
        horizon: float,
        seed: int = 0,
        plan: Optional[InjectionPlan] = None,
        recorder=None,
    ) -> RunResult:
        """Drop-in for ``execute_workload``; forks every eligible plan."""
        if (
            not self.broken
            and recorder is None
            and workload is self.workload
            and horizon == self.horizon
            and seed == self.seed
            and plan is not None
            and plan.instances
        ):
            fork_point = self.fork_point(plan)
            if fork_point is not None:
                result = self._run_forked(fork_point, plan)
                if result is not None:
                    return result
                obs_metrics.increment("sim.checkpoint.fallbacks")
        return execute_workload(
            workload, horizon=horizon, seed=seed, plan=plan, recorder=recorder
        )

    def _run_forked(
        self, fork_point: int, plan: InjectionPlan
    ) -> Optional[RunResult]:
        rung = self._rungs.get(fork_point)
        if rung is None:
            self.close()
            obs_metrics.increment("sim.checkpoint.opens")
            rung = Checkpoint(self.workload, self.horizon, self.seed, fork_point)
            self._rungs[fork_point] = rung
        result = rung.run(plan)
        if result is None:
            # The rung closed itself; the next plan opens a fresh one.
            del self._rungs[fork_point]
            self._errors += 1
            obs_metrics.increment("sim.checkpoint.errors")
            self.broken = self._errors >= MAX_POOL_ERRORS
            return None
        obs_metrics.increment("sim.checkpoint.forks")
        return result

    def close(self) -> None:
        """Kill the holder; the pool opens a new one on its next fork."""
        rungs, self._rungs = list(self._rungs.values()), {}
        for rung in rungs:
            rung.close()

    def __enter__(self) -> "CheckpointPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
