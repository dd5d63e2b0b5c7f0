"""Process-level checkpoint/fork: kill the fault-free prefix of a round.

Every plan the Explorer tries in one round shares a long fault-free
prefix — before the first armed instance fires, the run replays the
probe trace exactly (§5.2.5 single-shot window semantics).  Replaying
that prefix from t=0 for each candidate is the dominant cost on a
single-CPU box, and it is pure waste.

Generators cannot be pickled or deep-copied, so an in-process snapshot
of the scheduler cannot resume tasks.  What *can* clone a pile of live
generator frames, exactly and cheaply, is ``os.fork``.  The scheme:

1. A **holder** process forks off the parent and runs the workload under
   the round's base-only plan, with an :meth:`~repro.injection.fir.FIR.
   set_trigger` armed at request ordinal ``K`` (1-based, from the probe
   trace).  When request ``K`` executes, the holder parks inside the
   trigger — its entire sim state frozen mid-run — and serves fork
   requests off a pipe.
2. For each candidate plan, the holder forks a **grandchild** that swaps
   the candidate plan in (:meth:`~repro.injection.fir.FIR.swap_plan`,
   which preserves prefix state) and simply returns from the trigger:
   the run continues from request ``K`` as if the plan had been active
   all along.  The grandchild ships back only what it computed — the
   log *after* the fork point plus the scalar fields; the parent
   already holds the shared prefix from the holder's ready frame.
3. The parent keeps a small ladder of holders ("rungs") at different
   depths and serves each plan from the deepest rung at most one step
   before the plan's first possible firing position.

The invariance contract: a fork-served run is byte-identical to a full
replay.  The prefix is shared by construction (deterministic sim, same
plan semantics up to ``K``), and the trigger fires after the request is
counted but before its injection decision, so the grandchild makes
exactly the decisions a full replay would.  Every run forked off a
holder is armed, so the holder runs untraced like the inline replay it
stands in for (``execute_workload`` traces only unarmed runs).

Whether a plan forks at all is a measured decision (:class:`ForkCost`):
only when the prefix a rung skips costs more inline than a fork costs on
this host.  Runs the policy keeps inline count under
``sim.checkpoint.declined``.  Everything else degrades gracefully:
platforms without ``os.fork``, foreign workloads/seeds/horizons and
recorder-attached runs execute inline, and a fork that was attempted and
failed (pipe, child, torn or inconsistent frame) is re-run inline and
counted under ``sim.checkpoint.fallbacks``.
"""

from __future__ import annotations

import collections
import gc
import hashlib
import math
import os
import pickle
import signal
import struct
import time
import warnings
from typing import Optional

from ..injection.fir import InjectionPlan, ProbeTrace
from ..obs import metrics as obs_metrics
from .cluster import Cluster, RunResult, execute_workload, request_price

__all__ = [
    "Checkpoint",
    "CheckpointPool",
    "checkpoint_supported",
    "snapshot_fingerprint",
]

#: Rungs held live per pool.  Each rung is one parked holder process,
#: opened at the fork point of the plan that asked for it; a plan forks
#: only from a rung less than one step (1/this of the trace) below its
#: fork point, so the replayed gap stays under a step no matter in which
#: order plans arrive.
MAX_RUNGS = 8
#: Holder processes forked per pool lifetime (rungs are never reopened).
OPEN_BUDGET = 12
#: Pipe failures tolerated before the whole pool stops forking.
MAX_POOL_ERRORS = 2

#: The wall clock of the cost model (one name, so tests can drive it).
_clock = time.perf_counter


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
    workload,
    horizon: float,
    seed: int,
    plan: Optional[InjectionPlan],
    at_request: int,
    trigger,
) -> RunResult:
    """``execute_workload`` with ``trigger(cluster)`` armed at a request,
    untraced: the trigger counts requests, and every run forked off it
    is armed.
    """
    cluster = Cluster(seed=seed)
    cluster.fir.tracing = False
    cluster.fir.set_plan(plan)
    cluster.fir.set_trigger(at_request, lambda _fir: trigger(cluster))
    workload(cluster)
    return cluster.run(horizon)


def _holder_main(
    req_r: int,
    resp_w: int,
    workload,
    horizon: float,
    seed: int,
    base_plan: Optional[InjectionPlan],
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
        result = _run_with_trigger(
            workload, horizon, seed, base_plan, at_request, trigger
        )
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
    failure (after which the checkpoint is closed and unusable).
    """

    def __init__(
        self,
        workload,
        horizon: float,
        seed: int,
        base_plan: Optional[InjectionPlan],
        at_request: int,
    ) -> None:
        self.at_request = at_request
        self.closed = False
        req_r, req_w = os.pipe()
        resp_r, resp_w = os.pipe()
        pid = _fork()
        if pid == 0:
            os.close(req_w)
            os.close(resp_r)
            try:
                _holder_main(
                    req_r, resp_w, workload, horizon, seed, base_plan, at_request
                )
            finally:  # pragma: no cover - _holder_main always exits
                os._exit(4)
        os.close(req_r)
        os.close(resp_w)
        self._pid = pid
        self._req_w = req_w
        self._resp_r = resp_r
        # Wait for the holder to finish the prefix and park in the trigger,
        # so open cost stays in open() and run() times pure fork+suffix —
        # the pool's cost model depends on that separation.  The ready
        # frame carries the prefix's log, which every result forked off
        # this rung puts in front of its own suffix.
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


# ----------------------------------------------------------------- cost model


class ForkCost:
    """Seconds a fork costs beyond the requests it replays, on this host.

    One estimate per process — the cost belongs to the host and to the
    size of the forking process, not to a workload, so pools share what
    they learn.  It starts at the floor, one bare fork + exit + wait
    (measured on first use), and is thereafter the mean overhead the
    last few real forks showed, never below that floor.
    """

    def __init__(self) -> None:
        self._floor: Optional[float] = None
        self._observed: collections.deque = collections.deque(maxlen=8)

    @staticmethod
    def _bare_fork() -> float:
        started = _clock()
        pid = _fork()
        if pid == 0:
            os._exit(0)
        os.waitpid(pid, 0)
        return _clock() - started

    def floor(self) -> float:
        if self._floor is None:
            self._floor = min(self._bare_fork() for _ in range(3))
        return self._floor

    def seconds(self) -> float:
        if not self._observed:
            return self.floor()
        return max(self.floor(), math.fsum(self._observed) / len(self._observed))

    def observe(self, overhead_seconds: float) -> None:
        self._observed.append(overhead_seconds)


_fork_cost = ForkCost()


# ----------------------------------------------------------------------- pool


class CheckpointPool:
    """A ladder of checkpoints for one (workload, horizon, seed) context.

    Fork points come from the probe trace: a plan's earliest possible
    firing position is the minimum probe-trace position over its armed
    ``(site, occurrence)`` pairs — pairs absent from the probe cannot
    fire before the run diverges, and the run only diverges at the first
    fire.  The pool keeps up to :data:`MAX_RUNGS` holders at distinct
    depths and serves each plan from the deepest rung less than a step
    below its firing position, opening one there while budget lasts.

    A plan forks only where forking wins.  A rung at depth ``d`` saves
    ``d`` requests and costs one :class:`ForkCost`, so only rungs deeper
    than the break-even depth are opened or used, and a pool whose whole
    trace is shallower than that goes ``broken`` — its owner stops
    asking.  A request costs the process prior (``request_price``) until
    an open or an inline run prices this workload's own; with no prior,
    the first eligible plan runs inline to price one.

    ``runner`` matches the executor contract of
    :func:`repro.cache.runcache.cached_execute`, so checkpointing
    composes *under* the cache: same keys, same stored results, same
    outcomes — a fork-served miss is indistinguishable from an inline
    miss.
    """

    def __init__(
        self,
        workload,
        horizon: float,
        seed: int,
        probe_trace: ProbeTrace,
        base_faults=(),
    ) -> None:
        self.workload = workload
        self.horizon = horizon
        self.seed = seed
        self._base_faults = list(base_faults)
        self._base_key = tuple(
            (inst.site_id, inst.exception, inst.occurrence)
            for inst in self._base_faults
        )
        self._base_plan = InjectionPlan.of([], always=self._base_faults)
        self._trace = probe_trace
        self._total_requests = len(probe_trace)
        self._rungs: dict[int, Checkpoint] = {}
        self._opens_left = OPEN_BUDGET
        self._errors = 0
        #: Wall seconds one request costs: the prior until this workload
        #: is priced, then the least it has shown (a shared host only
        #: ever adds); and the rung depth, in requests, past which
        #: skipping the prefix beats the fork cost.
        self._request_seconds = request_price()
        self._priced = False
        self._break_even = math.inf
        self.broken = not checkpoint_supported() or self._total_requests == 0
        if not self.broken:
            self._learn()

    # ------------------------------------------------------------- fork points

    def fork_point(self, plan: Optional[InjectionPlan]) -> Optional[int]:
        """Latest safe fork request for ``plan``, or ``None`` if ineligible.

        Plans whose armed pairs never occur in the probe trace can never
        fire, so the deepest point of the trace is safe; plans carrying
        different base faults than the pool's probe are foreign and get
        ``None``.
        """
        if plan is None:
            return None
        always_key = tuple(
            (inst.site_id, inst.exception, inst.occurrence)
            for inst in plan.always
        )
        if always_key != self._base_key:
            return None
        first = self._total_requests
        for instance in plan.instances:
            ordinal = self._trace.ordinal(instance.site_id, instance.occurrence)
            if ordinal is not None and ordinal < first:
                first = ordinal
        return first

    # ----------------------------------------------------------------- running

    def runner(
        self,
        workload,
        horizon: float,
        seed: int = 0,
        plan: Optional[InjectionPlan] = None,
        recorder=None,
    ) -> RunResult:
        """Drop-in for ``execute_workload``; forks when it pays, else inline."""
        fork_point = None
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
            rung = self._pick_rung(fork_point)
            if rung is None:
                obs_metrics.increment("sim.checkpoint.declined")
            else:
                result = self._run_forked(rung, plan)
                if result is not None:
                    return result
                obs_metrics.increment("sim.checkpoint.fallbacks")
        started = _clock()
        result = execute_workload(
            workload, horizon=horizon, seed=seed, plan=plan, recorder=recorder
        )
        if fork_point is not None:
            self._price(
                (_clock() - started) / max(result.injection_requests, 1)
            )
            self._learn()
        return result

    def _price(self, request_seconds: float) -> None:
        """Fold in this workload's own price of a request: the first one
        replaces the prior, later ones keep the least."""
        if self._priced:
            request_seconds = min(request_seconds, self._request_seconds)
        self._request_seconds, self._priced = request_seconds, True

    def _learn(self) -> None:
        """Re-derive the break-even depth (none without a price)."""
        if self._request_seconds == math.inf:
            return
        self._break_even = _fork_cost.seconds() / self._request_seconds
        if self._total_requests <= self._break_even:
            self.broken = True
            self.close()

    def _run_forked(
        self, rung: Checkpoint, plan: InjectionPlan
    ) -> Optional[RunResult]:
        started = _clock()
        result = rung.run(plan)
        fork_seconds = _clock() - started
        obs_metrics.increment("sim.checkpoint.fork_seconds", fork_seconds)
        if result is None:
            self._rungs.pop(rung.at_request, None)
            self._errors += 1
            obs_metrics.increment("sim.checkpoint.errors")
            if self._errors >= MAX_POOL_ERRORS:
                self.broken = True
                self.close()
            return None
        obs_metrics.increment("sim.checkpoint.forks")
        obs_metrics.increment(
            "sim.checkpoint.requests_saved", rung.at_request - 1
        )
        # What the fork cost beyond the requests its grandchild replayed.
        replayed = max(result.injection_requests - rung.at_request, 0)
        _fork_cost.observe(fork_seconds - replayed * self._request_seconds)
        self._learn()
        return result

    def _pick_rung(self, fork_point: int) -> Optional[Checkpoint]:
        """Deepest rung for ``fork_point`` that beats inline, if any.

        A rung serves a plan only from less than one step
        (:data:`MAX_RUNGS` steps across the trace) below its fork point,
        which bounds the replayed gap whatever order plans arrive in: an
        early shallow rung cannot capture later, deeper plans.  Failing
        that, a rung opens at the plan's own fork point, so a repeat of
        it replays no gap at all.  No rung at or below the break-even
        depth is opened or used.
        """
        step = max(1, self._total_requests // MAX_RUNGS)
        lowest = max(self._break_even, fork_point - step)
        best: Optional[Checkpoint] = None
        for depth, rung in self._rungs.items():
            if lowest < depth <= fork_point and (
                best is None or depth > best.at_request
            ):
                best = rung
        if (
            best is not None
            or fork_point <= self._break_even
            or self._opens_left <= 0
            or len(self._rungs) >= MAX_RUNGS
        ):
            return best
        self._opens_left -= 1
        obs_metrics.increment("sim.checkpoint.opens")
        started = _clock()
        rung = Checkpoint(
            self.workload, self.horizon, self.seed, self._base_plan, fork_point
        )
        seconds = _clock() - started
        obs_metrics.increment("sim.checkpoint.open_seconds", seconds)
        # The open replayed ``fork_point`` requests inline plus one fork:
        # this workload's own price, which the fork is then judged by.
        if not rung.closed and seconds > _fork_cost.floor():
            self._price((seconds - _fork_cost.floor()) / fork_point)
        self._rungs[fork_point] = rung
        return rung

    def close(self) -> None:
        """Kill every holder; the pool keeps running inline after."""
        rungs, self._rungs = list(self._rungs.values()), {}
        for rung in rungs:
            rung.close()

    def __enter__(self) -> "CheckpointPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
