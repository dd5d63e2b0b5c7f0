"""Run ANDURIL or a baseline strategy on a failure case with budgets.

The budgets play the role of the paper's 24-hour cap: a strategy that
cannot reproduce within them gets a "-" in the tables.
"""

from __future__ import annotations

import dataclasses
from typing import Optional

from ..baselines import ALL_STRATEGIES, StrategyRunner
from ..core.params import SearchParams
from ..core.search import ExplorationResult
from ..failures.case import FailureCase
from ..obs import metrics as obs_metrics
from .cell import ANDURIL_DEFAULTS, BASELINE_DEFAULTS, CellOutcome
from .cell import ANDURIL_PARAMS  # noqa: F401 (re-export)


def _median(values: list) -> float:
    """``statistics.median``, without importing its numeric tower."""
    ordered = sorted(values)
    middle = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[middle]
    return (ordered[middle - 1] + ordered[middle]) / 2


def _cell_outcome(
    strategy: str, case: FailureCase, params: SearchParams,
    result: ExplorationResult, **measured,
) -> CellOutcome:
    """The cell a search under ``params`` makes; ``measured`` holds what
    only ANDURIL's cells report."""
    records = result.round_records
    requests = [r.injection_requests for r in records] or [0]
    inits = [r.init_seconds for r in records] or [0.0]
    workloads = [r.workload_seconds for r in records] or [0.0]
    obs_metrics.increment(
        "campaign.anduril_runs" if strategy == "anduril"
        else "campaign.baseline_runs"
    )
    obs_metrics.increment("campaign.rounds", result.rounds)
    return CellOutcome(
        strategy=strategy,
        case_id=case.case_id,
        success=result.success,
        rounds=result.rounds,
        seconds=result.elapsed_seconds,
        rank_trajectory=result.rank_trajectory,
        median_requests=int(_median(requests)),
        median_init_ms=_median(inits) * 1e3,
        median_workload_ms=_median(workloads) * 1e3,
        coverage=result.coverage.to_dict(),
        message=result.message,
        params=dataclasses.asdict(params),
        seed=case.seed,
        **measured,
    )


def run_anduril(
    case: FailureCase,
    max_rounds: int = ANDURIL_DEFAULTS["max_rounds"],
    max_seconds: Optional[float] = ANDURIL_DEFAULTS["max_seconds"],
    profile: bool = ANDURIL_DEFAULTS["profile"],
    params: SearchParams = ANDURIL_DEFAULTS["params"],
    checkpoint: bool = ANDURIL_DEFAULTS["checkpoint"],  # ignored: see DESIGN §5.3
    early_verdict: bool = ANDURIL_DEFAULTS["early_verdict"],  # ignored: see DESIGN §5.3
    **options,
) -> CellOutcome:
    """Run the feedback-driven search on one case under the table budgets.

    The search is ``params`` under any of its fields in ``options``; the
    rest of ``options`` go to the Explorer.  ``profile=True`` attaches a
    ``repro.obs`` recorder: FIR decision timing is sampled, per-round
    spans and rerank events are captured, and the flat metrics dict lands
    in :attr:`CellOutcome.metrics`; the outcome is invariant in it.
    """
    recorder = None
    if profile:
        from ..obs import TraceRecorder

        recorder = TraceRecorder()
    explorer = case.explorer(
        params,
        max_rounds=max_rounds,
        max_seconds=max_seconds,
        recorder=recorder,
        **options,
    )
    context = explorer.prepare()
    result = explorer.explore()
    metrics = recorder.metrics() if recorder is not None else {}
    decision_requests = metrics.get("fir.requests", 0.0)
    mean_decision_us = (
        metrics.get("fir.decision_seconds", 0.0) / decision_requests * 1e6
        if decision_requests
        else 0.0
    )
    return _cell_outcome(
        "anduril", case, context.params, result,
        prepare_seconds=context.prepare_seconds,
        mean_decision_us=mean_decision_us,
        metrics=metrics,
        oracle=case.oracle.description,
        injected="" if result.injected is None else str(result.injected),
        script_json="" if result.script is None else result.script.to_json(),
    )


def run_baseline(
    name: str,
    case: FailureCase,
    max_rounds: int = BASELINE_DEFAULTS["max_rounds"],
    max_seconds: Optional[float] = BASELINE_DEFAULTS["max_seconds"],
    checkpoint: bool = BASELINE_DEFAULTS["checkpoint"],  # ignored: see DESIGN §5.3
    early_verdict: bool = BASELINE_DEFAULTS["early_verdict"],  # ignored: see DESIGN §5.3
    params: SearchParams = BASELINE_DEFAULTS["params"],
    **options,
) -> CellOutcome:
    """Run one baseline strategy on one case under the table budgets.

    It searches ``params`` under ``options``' search parameters, which
    must leave what only ANDURIL reads at its default
    (:class:`~repro.baselines.base.StrategyRunner`); the rest of
    ``options`` go to the strategy constructor.
    """
    params, options = SearchParams.split(options, params)
    runner = StrategyRunner(max_rounds, max_seconds, params)
    strategy = ALL_STRATEGIES[name](**options)
    result = runner.run(strategy, case, case_id=case.case_id)
    return _cell_outcome(name, case, strategy.context.params, result)
