"""The run pipeline: the one way to run a workload under a plan (DESIGN §5.3).

ANDURIL's loop has one primitive — "run the workload under this plan"
(§3, step 3).  :class:`RunPipeline` is that primitive, one rule deep::

    recorder attached?  yes -> execute_workload(recorder=...), nothing else
                        no  -> run cache -> execute_workload

Every run, the probe included, replays the workload from t=0 to its
horizon, as the paper's Explorer does.  The Explorer and the baseline
``StrategyRunner`` both call it; neither names a cache.
:class:`RunConfig` says *how* a process runs — the run cache's disk
tier and the event stream, neither of which may change a search's
outcome — and is all a worker process needs from its parent.
"""

from __future__ import annotations

import dataclasses
import os
from typing import Optional

from ..cache import runcache
from ..injection.fir import InjectionPlan
from ..obs.bus import active_bus
from ..sim.cluster import RunResult, execute_workload


def default_jobs() -> int:
    """Worker count when the user asked for parallelism without a number:
    one per core this process may run on (under ``taskset`` or a cgroup
    cpuset that is fewer than are installed)."""
    if hasattr(os, "sched_getaffinity"):
        return max(len(os.sched_getaffinity(0)), 1)
    return max(os.cpu_count() or 1, 1)


@dataclasses.dataclass(frozen=True)
class RunConfig:
    """The runner knobs, picklable as one value.

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
        pool started by library code that called ``runcache.configure``
        or ``set_active_bus`` itself is configured like the CLI's.
        """
        return cls(
            cache_dir=runcache.active().disk_dir, events=active_bus().enabled
        )

    def install(self) -> None:
        """Run this process under the config (also the pool initializer)."""
        runcache.configure(disk_dir=self.cache_dir)


class RunPipeline:
    """Every run of one ``(workload, horizon, seed)`` context."""

    def __init__(self, workload, horizon: float, seed: int, *, recorder=None) -> None:
        self.workload = workload
        self.horizon = horizon
        self.seed = seed
        #: The recorder rule, stated once: a traced pipeline executes
        #: every run in this process with the recorder attached, so the
        #: recorder observes real execution — such a pipeline is never
        #: cached.
        self.traced = recorder is not None and recorder.enabled
        self._recorder = recorder

    def run(self, seed: int, plan: Optional[InjectionPlan]) -> RunResult:
        """One run: the probe (a window-less ``plan``) or a round's."""
        if self.traced:
            return execute_workload(
                self.workload, horizon=self.horizon, seed=seed, plan=plan,
                recorder=self._recorder,
            )
        return runcache.cached_execute(
            self.workload, horizon=self.horizon, seed=seed, plan=plan,
            runner=execute_workload,
        )
