"""Cluster harness: wires simulator, network, disk, logger, and FIR.

One :class:`Cluster` is one *run*: a fresh simulator, a fresh FIR trace,
and a fresh log.  Workloads build their system inside the cluster, drive
it, and the harness summarizes the outcome as a :class:`RunResult` that
failure oracles inspect.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import time
from typing import Any, Callable, Generator, Optional

from ..injection.fir import FIR, InjectionPlan, TraceEvent
from ..logs.record import LogFile
from ..obs import VIRTUAL
from ..obs import metrics as obs_metrics
from .env import Env
from .network import Network
from .scheduler import Simulator, Sleep, Task, TaskState
from .slog import LogCollector, SimLogger
from .storage import Disk
from .sync import Condition, Executor, Future, Lock, Queue, SerialExecutor


@dataclasses.dataclass(frozen=True)
class TaskSummary:
    """Terminal state of one task, as seen by oracles."""

    name: str
    state: str
    stack: tuple[str, ...]          # function names, outermost first
    error_type: str = ""
    error_message: str = ""

    def blocked_in(self, function: str) -> bool:
        return self.state == TaskState.BLOCKED.value and function in self.stack


@dataclasses.dataclass
class RunResult:
    """Everything one run produced.

    ``trace`` is the FIR trace of a run that armed nothing (the probe,
    the noop run) and ``None`` for an armed one: an armed run feeds back
    through its log, and ``site_counts`` carries its per-site counts.
    """

    log: LogFile
    trace: Optional[list[TraceEvent]]
    injected: bool
    injected_instance: Optional[Any]
    stuck: list[TaskSummary]
    crashed: list[TaskSummary]
    state: dict[str, Any]
    end_time: float
    site_counts: dict[str, int]
    injection_requests: int = 0
    decision_seconds: float = 0.0
    base_faults_fired: list = dataclasses.field(default_factory=list)
    #: Virtual time at which the early-verdict monitor cut the run short
    #: (``None`` = the run executed to its horizon).  Truncated results
    #: are oracle-equivalent to the full run but carry a shorter log and
    #: smaller counters, so full-run consumers must never receive one —
    #: the run cache segregates them by monitor key.
    truncated_at: Optional[float] = None

    def stuck_in(self, function: str, task_prefix: str = "") -> bool:
        """Whether some (matching) task ended the run blocked in ``function``."""
        return any(
            summary.blocked_in(function)
            for summary in self.stuck
            if summary.name.startswith(task_prefix)
        )

    def log_contains(self, fragment: str) -> bool:
        return any(fragment in record.message for record in self.log)


class Cluster:
    """One simulated deployment plus its observation and injection plumbing."""

    def __init__(self, seed: int = 0, fir: Optional[FIR] = None) -> None:
        self.seed = seed
        self.sim = Simulator(seed)
        self.collector = LogCollector()
        self.net = Network(self.sim)
        self.disk = Disk()
        self.fir = fir if fir is not None else FIR()
        # Bound straight to the two objects that hold the answers, with no
        # Python frame in between; both live as long as the cluster.
        self.fir.bind(
            log_index_fn=self.collector.records.__len__,
            clock=functools.partial(getattr, self.sim, "now"),
        )
        self.env = Env(self)
        #: Free-form state registry the systems publish into for oracles.
        self.state: dict[str, Any] = {}
        self.sim.on_task_crash(self._log_crash)
        self._crash_log = SimLogger(self.sim, self.collector)

    # ------------------------------------------------------------- conveniences

    def logger(self) -> SimLogger:
        return SimLogger(self.sim, self.collector)

    def spawn(self, name: str, gen: Generator[Any, Any, Any]) -> Task:
        return self.sim.spawn(name, gen)

    def condition(self, name: str = "cond") -> Condition:
        return Condition(self.sim, name)

    def lock(self, name: str = "lock") -> Lock:
        return Lock(self.sim, name)

    def queue(self, name: str = "queue", capacity: Optional[int] = None) -> Queue:
        return Queue(self.sim, name, capacity)

    def future(self, name: str = "future") -> Future:
        return Future(self.sim, name)

    def executor(self, name: str) -> Executor:
        return Executor(self.sim, name)

    def serial_executor(self, name: str) -> SerialExecutor:
        return SerialExecutor(self.sim, name)

    def sleep(self, delay: float) -> Sleep:
        return Sleep(delay)

    # -------------------------------------------------------------------- runs

    def run(self, horizon: float, monitor=None) -> RunResult:
        """Run to the horizon (or the monitor's cutoff) and summarize."""
        truncated_at: Optional[float] = None
        if self.sim.run(until=horizon, monitor=monitor):
            truncated_at = self.sim.now
            obs_metrics.increment("verdict.cutoffs")
            obs_metrics.increment(
                "verdict.virtual_seconds_saved", horizon - self.sim.now
            )
            obs_metrics.increment("verdict.events_saved", self.sim.pending_events())
        recorder = self.fir.recorder
        if recorder is not None and recorder.enabled:
            # The whole run is one virtual-clock span (deterministic per
            # (seed, plan)); scheduler/network/FIR totals become counters.
            recorder.add_span(
                "workload.run",
                "sim",
                clock=VIRTUAL,
                start=0.0,
                duration=self.sim.now,
                seed=self.seed,
            )
            recorder.count("runs", 1)
            recorder.count("sim.events_executed", self.sim.events_executed)
            recorder.count("sim.virtual_seconds", self.sim.now)
            recorder.count("net.messages_sent", self.net.sent_count)
            recorder.count("net.messages_delivered", self.net.delivered_count)
            recorder.count("fir.requests", self.fir.request_count)
            recorder.count("fir.decision_seconds", self.fir.decision_seconds)
            recorder.count("log.records", len(self.collector))
        stuck = [
            self._summarize(task)
            for task in self.sim.tasks
            if task.state is TaskState.BLOCKED
        ]
        crashed = [
            self._summarize(task)
            for task in self.sim.tasks
            if task.state is TaskState.FAILED
        ]
        return RunResult(
            log=self.collector.log,
            trace=self.fir.trace if self.fir.tracing else None,
            injected=self.fir.fired is not None,
            injected_instance=self.fir.fired,
            stuck=stuck,
            crashed=crashed,
            state=dict(self.state),
            end_time=self.sim.now,
            site_counts=dict(self.fir.counts),
            injection_requests=self.fir.request_count,
            decision_seconds=self.fir.decision_seconds,
            base_faults_fired=list(self.fir.always_fired),
            truncated_at=truncated_at,
        )

    def _summarize(self, task: Task) -> TaskSummary:
        return TaskSummary(
            name=task.name,
            state=task.state.value,
            stack=tuple(task.stack_functions()),
            error_type=type(task.error).__name__ if task.error else "",
            error_message=str(task.error) if task.error else "",
        )

    def _log_crash(self, task: Task) -> None:
        """Default uncaught-exception handler: log like a JVM would."""
        self._crash_log.exception(
            "Unhandled exception in thread %s",
            task.name,
            exc=task.error,
        )


WorkloadFn = Callable[[Cluster], Any]

#: The least wall seconds one FIR request has cost in any
#: :func:`execute_workload` of this process (``inf`` before the first
#: run that made one): the checkpoint cost model's prior (DESIGN §10.3).
_request_seconds = math.inf


def request_price() -> float:
    """The process-wide prior price of a request, in wall seconds."""
    return _request_seconds


def execute_workload(
    workload: WorkloadFn,
    horizon: float,
    seed: int = 0,
    plan: Optional[InjectionPlan] = None,
    recorder=None,
    monitor=None,
) -> RunResult:
    """Run ``workload`` in a fresh cluster with an optional injection plan.

    The run records its FIR trace iff ``plan`` arms no window instance:
    only the fault-free probe's trace is ever read (site occurrences and
    fork points), so an armed run's result carries ``trace=None``.

    ``recorder`` (a ``repro.obs.TraceRecorder``) enables run-level
    profiling: FIR decision timing, injection-decision events, and the
    scheduler/network counters.  ``None`` (the default) keeps the run on
    the timing-free path.  ``monitor`` (a fresh
    ``repro.core.verdict.VerdictMonitor``) attaches before the workload
    builds the system and may cut the run short once the oracle's
    verdict is decided.  Every run folds its wall seconds per request
    into :func:`request_price`.
    """
    global _request_seconds
    started = time.perf_counter()
    cluster = Cluster(seed=seed)
    cluster.fir.tracing = plan is None or not plan.instances
    if recorder is not None and recorder.enabled:
        cluster.fir.recorder = recorder
    cluster.fir.set_plan(plan)
    if monitor is not None:
        monitor.attach(cluster)
    workload(cluster)
    result = cluster.run(horizon, monitor=monitor)
    if result.injection_requests:
        spent = (time.perf_counter() - started) / result.injection_requests
        _request_seconds = min(_request_seconds, spent)
    return result
