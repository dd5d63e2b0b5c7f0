"""The run pipeline: the one way to run a workload under a plan (DESIGN §5.3).

ANDURIL's loop has one primitive — "run the workload under this plan"
(§3, step 3).  :class:`RunPipeline` is that primitive, one rule deep::

    recorder attached?  yes -> execute_workload(recorder=...), nothing else
                        no  -> run cache -> execute_workload

Every run, the probe included, replays the workload from t=0 to its
horizon, as the paper's Explorer does.  The Explorer and the baseline
``StrategyRunner`` both call it; neither names a cache.  It re-exports
:class:`~repro.cache.runcache.RunConfig`, which says *how* a process
runs.
"""

from __future__ import annotations

from typing import Optional

from ..cache import runcache
from ..cache.runcache import RunConfig  # noqa: F401 (re-export)
from ..injection.fir import InjectionPlan
from ..sim.cluster import RunResult, execute_workload


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
