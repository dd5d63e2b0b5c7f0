"""Deterministic distributed-system simulator.

A ``Cluster`` bundles a discrete-event scheduler (virtual time,
generator-based tasks), a message network, a disk, a logger, and the
fault-injection runtime.  Mini systems are written against the cluster's
primitives; all of their external I/O goes through :class:`repro.sim.env.Env`,
whose call sites are the fault space ANDURIL searches.
"""

from .._lazy import lazy_exports
from .cluster import Cluster, RunResult, TaskSummary, execute_workload
from .env import ENV_OPS, Env
from .errors import (
    ConnectException,
    EOFException,
    ExecutionException,
    FileNotFoundException,
    IllegalStateException,
    InterruptedException,
    IOException,
    RuntimeException,
    SimException,
    SocketException,
    TimeoutIOException,
    exception_from_name,
    is_subtype,
)
from .network import Message, Network
from .scheduler import Simulator, Sleep, Task, TaskState, Join, stuck_report
from .slog import LogCollector, SimLogger, render_stack_trace
from .storage import Disk
from .sync import Condition, Executor, Future, Lock, Queue, SerialExecutor

# The fork machinery loads on first use: no search forks, so only a
# caller that drives a CheckpointPool itself compiles it.
__getattr__ = lazy_exports(
    __name__,
    {
        ".checkpoint": (
            "Checkpoint", "CheckpointPool", "checkpoint_supported",
            "snapshot_fingerprint",
        ),
    },
    submodules=("checkpoint",),
)

__all__ = [
    "Checkpoint",
    "CheckpointPool",
    "Cluster",
    "Condition",
    "ConnectException",
    "Disk",
    "ENV_OPS",
    "EOFException",
    "Env",
    "ExecutionException",
    "Executor",
    "FileNotFoundException",
    "Future",
    "IOException",
    "IllegalStateException",
    "InterruptedException",
    "Join",
    "LogCollector",
    "Lock",
    "Message",
    "Network",
    "Queue",
    "RunResult",
    "RuntimeException",
    "SerialExecutor",
    "SimException",
    "SimLogger",
    "Simulator",
    "Sleep",
    "SocketException",
    "Task",
    "TaskState",
    "TaskSummary",
    "TimeoutIOException",
    "checkpoint_supported",
    "execute_workload",
    "snapshot_fingerprint",
    "exception_from_name",
    "is_subtype",
    "render_stack_trace",
    "stuck_report",
]
