"""Campaign-level parallel fan-out over failure cases and strategies.

The benchmark campaigns (the 22-case tables, the baseline comparisons,
``python -m repro compare``) are embarrassingly parallel: every
(strategy, case) cell is an independent deterministic computation.  This
module distributes those cells over a :class:`ProcessPoolExecutor` and
reassembles results **in submission order**, so every table a campaign
renders is byte-identical regardless of worker count.

Workers receive only tasks (case *ids*, budgets, search parameters), plus —
once per worker, as the pool initializer's argument — the parent's
:class:`~repro.cache.runcache.RunConfig`; each worker process resolves
the case from the registry and rebuilds its own model / failure-log
caches.  Oracles (which may close over lambdas) and workload state
therefore never cross a process boundary, and nothing travels through
the environment.

A cell is a pure function of its task and the code, so with a disk
tier the run cache keeps finished cells in its ``cells`` sub-tier.
:func:`run_tasks` looks every task's cell up there first, in the
calling process, whatever ``jobs`` is (DESIGN §8.1).  A campaign served
whole imports no case, search or simulator module and starts no pool:
this module and :mod:`repro.bench.cell` load only what names, reads and
reports a cell, and only the misses load what computes one.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import time
import warnings
from typing import Optional, Sequence

from ..cache import runcache
from ..cache.runcache import RunConfig
from ..failures import INDEX, get_case
from ..obs import metrics as obs_metrics
from ..obs.bus import (
    EventBus,
    MemorySink,
    RoundReporter,
    active_bus,
    campaign_done,
    campaign_start,
    heartbeat_stats,
    set_active_bus,
)
from .cell import CampaignTask, CellOutcome

#: The parent's config in campaign pool worker processes (set by the
#: pool initializer); ``None`` in every other process.
_worker_config: Optional[RunConfig] = None


def _pool_worker_init(config: RunConfig) -> None:
    """Run this campaign pool worker under the parent's config.

    Fork-started workers inherit the parent's active bus — including an
    open :class:`~repro.obs.bus.JsonlSink` handle whose writes would
    interleave with the parent's.  Workers therefore never emit to
    inherited sinks: the active bus is reset here, and
    :func:`execute_task` installs a memory-capture bus per cell whose
    events ship back in the outcome's telemetry envelope.
    """
    global _worker_config
    _worker_config = config
    config.install()
    set_active_bus(None)


#: ``repro.obs.metrics`` counter bumped once per campaign cell that had
#: to be re-run inline because its worker failed (see :func:`run_tasks`).
INLINE_FALLBACK_COUNTER = "campaign.inline_fallbacks"


def inline_fallback_count() -> int:
    """Campaign cells this process re-ran inline after worker failures."""
    return int(obs_metrics.get(INLINE_FALLBACK_COUNTER))


def resolve_jobs(jobs: Optional[int] = None) -> int:
    """Normalize a ``--jobs`` value: ``None``/``0`` means one per core
    this process may run on (under ``taskset`` or a cgroup cpuset that is
    fewer than are installed)."""
    if jobs is not None and jobs >= 1:
        return int(jobs)
    if hasattr(os, "sched_getaffinity"):
        return max(len(os.sched_getaffinity(0)), 1)
    return max(os.cpu_count() or 1, 1)


#: ``repro.obs.metrics`` counter bumped once per campaign cell served
#: from the run cache's ``cells`` tier instead of computed.
CELLS_SERVED_COUNTER = "cache.cells_served"


def _cell_name(task: CampaignTask) -> Optional[str]:
    """The record name of ``task``'s cell in the run cache's ``cells``
    tier: a digest of the task and of every source file of the package,
    so any edit misses.  ``None`` when the cell is never stored or
    served: no disk tier, a profiled cell (its metrics are wall-clock
    samples), or a case outside the catalog index (a run-time
    registration's module is not in the digest)."""
    if (
        runcache.active().disk_dir is None
        or task.case_id not in INDEX
        or task.profile
    ):
        return None
    digest = hashlib.blake2b(repr(task).encode(), digest_size=20)
    digest.update(runcache.package_digest())
    return digest.hexdigest()


def _serve(task: CampaignTask) -> Optional[CellOutcome]:
    """``task``'s stored cell, marked ``served`` and carrying its
    envelope, or ``None`` when the ``cells`` tier does not hold it."""
    name = _cell_name(task)
    if name is None:
        return None
    before = obs_metrics.capture()
    outcome = runcache.active().tier("cells").read(name, pickle.loads)
    if outcome is None:
        return None
    obs_metrics.increment(CELLS_SERVED_COUNTER)
    outcome.served = True
    outcome.telemetry = obs_metrics.capture(since=before)
    return outcome


def _load(tasks: Sequence[CampaignTask]) -> None:
    """Import what computing ``tasks`` executes — the Explorer, the
    harness and each listed case's module — before a pool forks, or each
    worker would compile it again."""
    from ..core import explorer  # noqa: F401
    from . import harness  # noqa: F401

    for case_id in dict.fromkeys(task.case_id for task in tasks):
        get_case(case_id)


def _compute(task: CampaignTask) -> CellOutcome:
    """Run ``task``'s search."""
    from .harness import run_anduril, run_baseline

    case = get_case(task.case_id)
    call = dict(
        task.options, max_rounds=task.max_rounds, max_seconds=task.max_seconds,
        params=task.params,
    )
    if task.strategy == "anduril":
        return run_anduril(case, profile=task.profile, **call)
    return run_baseline(task.strategy, case, **call)


def execute_task(task: CampaignTask) -> CellOutcome:
    """Compute one campaign cell (also the process-pool entry point) and
    store it in the run cache's ``cells`` tier, unless its search ran out
    of time, which depends on the host (see :func:`_cell_name` for what
    else bypasses the tier).  Serving is :func:`run_tasks`' job.

    The cell's ``repro.obs.metrics`` movement — and, in a pool worker of
    an events-on campaign, the bus events it emitted — is captured as one
    envelope and attached to the outcome (``telemetry``), so a parent
    that receives the pickled result can merge it into its own registry
    and sinks without double counting when a worker process runs several
    cells.  Inline cells carry the same envelope (it is what per-cell
    stats are read from); the parent just never merges it.
    """
    from ..core.search import OUT_OF_TIME

    name = _cell_name(task)
    capture = None
    if _worker_config is not None and _worker_config.events:
        capture = MemorySink()
        set_active_bus(EventBus([capture]))
    before = obs_metrics.capture()
    try:
        outcome = _compute(task)
        if name is not None and outcome.message != OUT_OF_TIME:
            runcache.active().tier("cells").write(
                name, lambda: pickle.dumps(outcome, pickle.HIGHEST_PROTOCOL)
            )
    finally:
        if capture is not None:
            set_active_bus(None)
    outcome.telemetry = obs_metrics.capture(
        since=before, events=capture.events if capture is not None else ()
    )
    return outcome


def run_tasks(
    tasks: Sequence[CampaignTask], jobs: Optional[int] = None
) -> list:
    """Execute campaign tasks: serve every stored cell, compute the rest,
    fanning the computed ones out across processes.

    The one lookup: every task's cell is read from the ``cells`` tier
    here, before anything is computed, and a served cell is reported at
    once.  Only when some miss does this process load what the misses
    run (:func:`_load`); two or more misses under ``jobs`` > 1 go to a
    pool forked after that, one goes inline, and a campaign served whole
    starts no pool.

    Results come back in task order (deterministic regardless of worker
    count or completion order).  Any task whose worker fails — an
    interpreter crash, a serialization problem — is re-run inline; the
    degradation is *not* silent: each fallback emits a ``RuntimeWarning``
    naming the task and the worker's exception, and bumps the
    ``campaign.inline_fallbacks`` counter in ``repro.obs.metrics`` so
    campaign output can surface how much of the sweep was serialized.

    Telemetry from *inside* worker processes is not dropped: every
    result returned by a pool future carries its cell's envelope (see
    :func:`execute_task`), which is merged into this process's registry
    and forwarded to its bus here.  Served and inline cells bump the
    registry and stream directly, so their envelopes are deliberately
    not merged.
    """
    tasks = list(tasks)
    jobs = resolve_jobs(jobs)
    bus = active_bus()
    campaign_started = time.perf_counter()
    last_heartbeat = 0.0
    cells = [(task.case_id, task.strategy) for task in tasks]
    reporters = [RoundReporter(bus, *cell) for cell in cells]
    if tasks:
        campaign_start(bus, cells, jobs)
    results: list = [None] * len(tasks)

    def finish(index: int, outcome: CellOutcome) -> None:
        results[index] = outcome
        reporters[index].done(outcome.success, outcome.rounds, outcome.seconds)

    misses = []
    for index, task in enumerate(tasks):
        outcome = _serve(task)
        if outcome is None:
            misses.append(index)
        else:
            reporters[index].start()
            finish(index, outcome)
    if misses:
        _load([tasks[index] for index in misses])
    failed: list[int] = []
    if jobs <= 1 or len(misses) <= 1:
        for index in misses:
            reporters[index].start()
            finish(index, execute_task(tasks[index]))
    else:
        # The pool machinery loads only for a campaign that fans out.
        from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait

        try:
            with ProcessPoolExecutor(
                max_workers=min(jobs, len(misses)),
                initializer=_pool_worker_init,
                initargs=(RunConfig.here(),),
            ) as pool:
                futures = {
                    pool.submit(execute_task, tasks[index]): index
                    for index in misses
                }
                # Submission is the pool-side "start" moment; workers
                # capture their round events and ship them in the
                # outcome's envelope, so case.start is emitted here.
                for index in misses:
                    reporters[index].start()
                pending = set(futures)
                while pending:
                    done, pending = wait(pending, return_when=FIRST_COMPLETED)
                    for future in done:
                        index = futures[future]
                        try:
                            outcome = future.result()
                            obs_metrics.merge(outcome.telemetry, bus.forward)
                            finish(index, outcome)
                        except Exception as error:
                            failed.append(index)
                            warnings.warn(
                                f"campaign worker failed on {tasks[index]}: "
                                f"{type(error).__name__}: {error}; re-running "
                                f"the cell inline",
                                RuntimeWarning,
                                stacklevel=2,
                            )
                    if bus.enabled:
                        now = time.monotonic()
                        if now - last_heartbeat >= bus.heartbeat_interval:
                            last_heartbeat = now
                            bus.emit(
                                "heartbeat",
                                source="campaign",
                                workers={
                                    "jobs": jobs,
                                    "pending": len(pending),
                                    "done": len(tasks) - len(pending),
                                },
                                **heartbeat_stats(),
                            )
        except OSError as error:
            # No subprocess support at all: fall back to a serial sweep.
            failed = [index for index in misses if results[index] is None]
            warnings.warn(
                f"campaign process pool unavailable "
                f"({type(error).__name__}: {error}); running all "
                f"{len(failed)} remaining cell(s) inline",
                RuntimeWarning,
                stacklevel=2,
            )
        if failed:
            obs_metrics.increment(INLINE_FALLBACK_COUNTER, len(failed))
        for index in failed:
            finish(index, execute_task(tasks[index]))
    if tasks:
        campaign_done(
            bus,
            len(tasks),
            sum(1 for outcome in results if outcome.success),
            time.perf_counter() - campaign_started,
        )
    return results


# --------------------------------------------------------------------- sweeps


def run_anduril_many(
    cases: Sequence, jobs: Optional[int] = None, **overrides
) -> list[CellOutcome]:
    """ANDURIL outcomes for many cases, in case order."""
    tasks = [CampaignTask.anduril(case.case_id, **overrides) for case in cases]
    return run_tasks(tasks, jobs=jobs)


def run_compare_campaign(
    cases: Sequence,
    strategies: Sequence[str],
    jobs: Optional[int] = None,
    anduril_options: Optional[dict] = None,
    strategy_options: Optional[dict] = None,
) -> tuple[dict, dict]:
    """The full comparison sweep: ANDURIL plus every strategy on every case.

    ``cases`` are failure cases or their ids: a cell names its case by
    id, so a campaign given ids loads a case only to compute one of its
    cells.  Returns ``(anduril_by_case, outcome_by_strategy_and_case)``
    keyed by ``case_id`` and ``(strategy, case_id)`` respectively.
    """
    case_ids = [getattr(case, "case_id", case) for case in cases]
    anduril_options = dict(anduril_options or {})
    strategy_options = dict(strategy_options or {})
    tasks: list[CampaignTask] = [
        CampaignTask.anduril(case_id, **anduril_options) for case_id in case_ids
    ]
    for name in strategies:
        tasks.extend(
            CampaignTask.baseline(name, case_id, **strategy_options)
            for case_id in case_ids
        )
    results = run_tasks(tasks, jobs=jobs)
    anduril_by_case: dict[str, CellOutcome] = {}
    by_cell: dict[tuple[str, str], CellOutcome] = {}
    for outcome in results:
        if outcome.strategy == "anduril":
            anduril_by_case[outcome.case_id] = outcome
        else:
            by_cell[(outcome.strategy, outcome.case_id)] = outcome
    return anduril_by_case, by_cell
