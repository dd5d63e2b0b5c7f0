"""Speculative parallel execution of workload runs.

The simulator is deterministic: a run is a pure function of
``(seed, plan)``.  That makes speculation safe — worker processes may
execute *predicted* future rounds ahead of time, and the Explorer commits
a speculative result only when the round it actually reaches asks for
exactly the same ``(seed, plan)`` key.  A misprediction is never wrong,
merely wasted: the round falls back to an inline run and the stale
speculations are flushed.

This module is deliberately unaware of priorities and feedback; the
Explorer owns the prediction policy (see ``Explorer._predict_plans``)
while the :class:`SpeculativeExecutor` owns the process pool, the
in-flight set, and the hit/miss bookkeeping that surfaces as the
speculation hit-rate and worker-utilization metrics.  How a run executes
is the :class:`~repro.core.pipeline.RunPipeline`'s business: committed
runs go through it, and the workers are initialised from its
:class:`~repro.core.pipeline.RunConfig`.
"""

from __future__ import annotations

from concurrent.futures import Future, ProcessPoolExecutor
from typing import Optional

from ..cache import cached_execute
from ..injection.fir import InjectionPlan
from ..sim.cluster import RunResult, WorkloadFn, execute_workload
from .pipeline import RunConfig, RunPipeline, default_jobs  # noqa: F401


def run_key(seed: int, plan: Optional[InjectionPlan]) -> tuple:
    """Canonical cache identity of one deterministic run."""
    return (seed, plan.key() if plan is not None else ((), ()))


def _worker_run(
    workload: WorkloadFn,
    horizon: float,
    seed: int,
    payload: Optional[dict],
    verdict_spec: Optional[tuple] = None,
) -> RunResult:
    """Process-pool entry point: rebuild the plan and execute the run.

    Runs through :func:`repro.cache.cached_execute`: the pool
    initializer installed the parent's :class:`RunConfig` in this
    process, so speculative runs both consult and feed the shared
    on-disk tier (a no-op when the cache is off).

    ``verdict_spec`` is the parent's picklable oracle spec (oracles
    themselves close over predicates and cannot cross the spawn
    boundary); the rebuilt monitor is conservatively weaker — state
    leaves never latch — so a worker may miss a cutoff, never invent one.
    """
    plan = InjectionPlan.from_payload(payload) if payload is not None else None
    monitor_factory = monitor_key = None
    if verdict_spec is not None:
        from .verdict import runtime_from_spec

        monitor_factory, monitor_key = runtime_from_spec(verdict_spec)
    return cached_execute(
        workload,
        horizon=horizon,
        seed=seed,
        plan=plan,
        runner=execute_workload,
        monitor_factory=monitor_factory,
        monitor_key=monitor_key,
    )


class SpeculativeExecutor:
    """A run pipeline fed by a process pool of speculative executions."""

    def __init__(self, pipeline: RunPipeline, jobs: int) -> None:
        #: Committed (inline) runs go through the pipeline, so they fork
        #: off its checkpoint pool; workers always replay from t=0 in
        #: their own processes (the results are byte-identical, so neither
        #: path is ever double-counted).
        self._pipeline = pipeline
        self.jobs = max(int(jobs), 1)
        self.hits = 0
        self.misses = 0
        self.submitted = 0
        self._pool: Optional[ProcessPoolExecutor] = None
        self._pending: dict[tuple, Future] = {}
        self._broken = False

    # ------------------------------------------------------------------- pool

    def _ensure_pool(self) -> Optional[ProcessPoolExecutor]:
        if self._pool is None and not self._broken and self.jobs > 1:
            try:
                self._pool = ProcessPoolExecutor(
                    max_workers=self.jobs - 1,
                    initializer=RunConfig.install,
                    initargs=(self._pipeline.config,),
                )
            except OSError:
                # No subprocess support (sandbox, resource limits): degrade
                # to purely inline execution rather than failing the search.
                self._broken = True
        return self._pool

    @property
    def in_flight(self) -> int:
        return len(self._pending)

    # -------------------------------------------------------------- prefetch

    def prefetch(self, seed: int, plan: Optional[InjectionPlan]) -> bool:
        """Submit a predicted ``(seed, plan)`` run; returns True if queued."""
        key = run_key(seed, plan)
        if key in self._pending or len(self._pending) >= self.jobs:
            return key in self._pending
        pipeline = self._pipeline
        if pipeline.cached(seed, plan) is not None:
            # The committed path will be served from the run cache anyway;
            # don't burn a worker slot re-executing it.
            return False
        pool = self._ensure_pool()
        if pool is None:
            return False
        payload = plan.to_payload() if plan is not None else None
        try:
            future = pool.submit(
                _worker_run, pipeline.workload, pipeline.horizon, seed,
                payload, pipeline.verdict_spec,
            )
        except Exception:
            # Unpicklable workload or a broken pool: stop speculating.
            self._broken = True
            return False
        self._pending[key] = future
        self.submitted += 1
        return True

    # ------------------------------------------------------------------- run

    def run(self, seed: int, plan: Optional[InjectionPlan]) -> tuple[RunResult, bool]:
        """The run for ``(seed, plan)`` — speculative if available, else inline.

        Returns ``(result, hit)`` where ``hit`` says the result came from a
        completed (or still-running, awaited) speculative worker.
        """
        future = self._pending.pop(run_key(seed, plan), None)
        if future is not None:
            try:
                result = future.result()
            except Exception:
                # Worker died or the result failed to serialize; the
                # deterministic inline run below is always equivalent.
                pass
            else:
                self.hits += 1
                # The worker's own cache tier lives in its process; store
                # the shipped result here too so later rounds (and the
                # disk tier) see it without re-executing.
                self._pipeline.remember(seed, plan, result)
                return result, True
        self.misses += 1
        return self._pipeline.run(seed, plan), False

    def sync(
        self,
        predictions: list[tuple[int, Optional[InjectionPlan]]],
        keep: Optional[tuple[int, Optional[InjectionPlan]]] = None,
    ) -> None:
        """Reconcile the in-flight set with this round's predictions.

        Pending runs not among ``predictions`` (nor the ``keep`` pair of
        the round being committed) were speculated down a path the search
        did not take; they are dropped so their slots free up.  Predictions
        not yet in flight are submitted, oldest-first, up to the worker cap.
        """
        wanted = {run_key(seed, plan) for seed, plan in predictions}
        if keep is not None:
            wanted.add(run_key(*keep))
        for key in list(self._pending):
            if key not in wanted:
                self._pending.pop(key).cancel()
        for seed, plan in predictions:
            self.prefetch(seed, plan)

    # ------------------------------------------------------------- lifecycle

    def flush(self) -> None:
        """Drop all pending speculations (the prediction chain broke)."""
        for future in self._pending.values():
            future.cancel()
        self._pending.clear()

    def shutdown(self) -> None:
        self.flush()
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None

    # ------------------------------------------------------------- reporting

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    @property
    def utilization(self) -> float:
        """Fraction of speculative submissions whose result was committed."""
        return self.hits / self.submitted if self.submitted else 0.0

    def stats(self) -> dict:
        """Engine health, as the sections it adds to a search heartbeat."""
        return {
            "speculation": {
                "hits": self.hits,
                "misses": self.misses,
                "submitted": self.submitted,
                "hit_rate": round(self.hit_rate, 4),
                "in_flight": self.in_flight,
            },
            "workers": {
                "jobs": self.jobs,
                "pool_alive": self._pool is not None and not self._broken,
            },
        }
