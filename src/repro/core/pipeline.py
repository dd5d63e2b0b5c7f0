"""The run pipeline: the one way to run a workload under a plan (DESIGN §5.3).

ANDURIL's loop has one primitive — "run the workload under this plan"
(§3, step 3).  :class:`RunPipeline` is that primitive with every runner
accelerator stacked behind it, in one fixed order::

    recorder attached?  yes -> execute_workload(recorder=...), nothing else
                        no  -> run cache -> checkpoint pool -> verdict monitor
                                         -> execute_workload

The Explorer, the baseline ``StrategyRunner`` and the CLI's confirmation
replay all call it; none of them names a cache, a pool or a monitor.
:class:`RunConfig` says *how* to run — the six runner knobs, none of
which may change a search's outcome — and is all a worker process needs
from its parent.
"""

from __future__ import annotations

import dataclasses
import os
from typing import Optional

from ..cache import runcache
from ..injection.fir import InjectionPlan
from ..obs.bus import active_bus
from ..sim.checkpoint import CheckpointPool, checkpoint_supported
from ..sim.cluster import RunResult, execute_workload
from .verdict import compile_cutoff


def default_jobs() -> int:
    """Worker count when the user asked for parallelism without a number:
    ``REPRO_JOBS``, else one per core this process may run on (under
    ``taskset`` or a cgroup cpuset that is fewer than are installed)."""
    env = os.environ.get("REPRO_JOBS")
    if env:
        try:
            return max(int(env), 1)
        except ValueError:
            pass
    if hasattr(os, "sched_getaffinity"):
        return max(len(os.sched_getaffinity(0)), 1)
    return max(os.cpu_count() or 1, 1)


@dataclasses.dataclass(frozen=True)
class RunConfig:
    """The runner knobs, picklable as one value.

    A process pool ships it to each worker once, as the pool
    initializer's argument, and the worker calls :meth:`install`.
    """

    cache: bool = False
    cache_dir: Optional[str] = None
    checkpoint: bool = False
    early_verdict: bool = False
    events: bool = False
    jobs: int = 1

    @classmethod
    def here(cls, **knobs) -> "RunConfig":
        """The config this process runs under, plus ``knobs``.

        The cache tier and the bus are read back from the process, so a
        pool started by library code that called ``runcache.configure``
        or ``set_active_bus`` itself is configured like the CLI's.
        """
        cache = runcache.active()
        return cls(
            cache=cache is not None,
            cache_dir=cache.disk_dir if cache is not None else None,
            events=active_bus().enabled,
            **knobs,
        )

    def install(self) -> None:
        """Run this process under the config (also the pool initializer)."""
        runcache.configure(enabled=self.cache, disk_dir=self.cache_dir)


class RunPipeline:
    """Every run of one ``(workload, horizon, seed, oracle)`` context."""

    def __init__(
        self, workload, horizon: float, seed: int, oracle,
        config: RunConfig = RunConfig(), *, recorder=None, base_faults=(),
    ) -> None:
        self.workload = workload
        self.horizon = horizon
        self.seed = seed
        self.config = config
        #: The recorder rule, stated once: a traced pipeline executes
        #: every run in this process with the recorder attached, so the
        #: recorder observes real execution — such a pipeline is never
        #: cached or forked.
        self.traced = recorder is not None and recorder.enabled
        self._recorder = recorder
        self._base_faults = tuple(base_faults)
        # ``compile_cutoff`` yields None for an oracle that can never
        # decide mid-run; its runs are then not monitored at all.
        verdict = compile_cutoff(oracle) if config.early_verdict else None
        self._monitor_factory = None if verdict is None else verdict.factory
        self._monitor_key = None if verdict is None else verdict.key
        self._pool: Optional[CheckpointPool] = None

    def _execute(self, seed, plan, runner, monitor_factory=None, monitor_key=None):
        if self.traced:
            return execute_workload(
                self.workload, horizon=self.horizon, seed=seed, plan=plan,
                recorder=self._recorder,
            )
        return runcache.cached_execute(
            self.workload, horizon=self.horizon, seed=seed, plan=plan,
            runner=runner, monitor_factory=monitor_factory,
            monitor_key=monitor_key,
        )

    def probe(self, plan: Optional[InjectionPlan] = None) -> RunResult:
        """The fault-free reference run: never monitored, never forked —
        observables and fork points need its full log and trace."""
        return self._execute(self.seed, plan, execute_workload)

    def run(self, seed: int, plan: Optional[InjectionPlan]) -> RunResult:
        """One round run, through every enabled layer."""
        pool = self._pool
        return self._execute(
            seed, plan,
            execute_workload if pool is None or pool.broken else pool.runner,
            self._monitor_factory, self._monitor_key,
        )

    def monitor(self):
        """A fresh verdict monitor for a run made outside :meth:`run`
        (a confirmation replay), or ``None`` when runs are unmonitored."""
        factory = self._monitor_factory
        return None if factory is None else factory()

    def arm(self, probe_trace) -> None:
        """Open the checkpoint pool over the probe trace — iff checkpointing
        is enabled, the platform can fork, and the pipeline is untraced.
        The pipeline owns the pool from here until :meth:`close`."""
        if (
            self._pool is None
            and self.config.checkpoint
            and not self.traced
            and checkpoint_supported()
        ):
            self._pool = CheckpointPool(
                self.workload, self.horizon, self.seed, probe_trace,
                base_faults=self._base_faults,
                monitor_factory=self._monitor_factory,
            )

    def close(self) -> None:
        """Reap the checkpoint pool's holders; idempotent."""
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.close()

    def __enter__(self) -> "RunPipeline":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
