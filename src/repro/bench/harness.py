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


def _median(values: list) -> float:
    """``statistics.median``, without importing its numeric tower."""
    ordered = sorted(values)
    middle = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[middle]
    return (ordered[middle - 1] + ordered[middle]) / 2


@dataclasses.dataclass
class CellOutcome:
    """One campaign cell: a strategy (``"anduril"`` for ANDURIL) on a case."""

    strategy: str
    case_id: str
    success: bool
    rounds: int
    seconds: float
    rank_trajectory: list[tuple[int, int]]
    median_requests: int
    median_init_ms: float
    median_workload_ms: float
    #: Fault-space coverage accounting dict.
    coverage: dict
    #: Why the search stopped (``ExplorationResult.message``).
    message: str = ""
    #: ANDURIL's prepare step (Tables 4/8); 0.0 on baseline cells.
    prepare_seconds: float = 0.0
    #: The search's resolved ``SearchParams`` as a dict.
    params: dict = dataclasses.field(default_factory=dict)
    #: Mean FIR decision latency in µs, reported by the ``repro.obs``
    #: metrics layer; 0.0 unless the run was profiled (see ``profile``).
    mean_decision_us: float = 0.0
    #: Flat ``repro.obs`` metrics dict (empty unless profiled).
    metrics: dict = dataclasses.field(default_factory=dict)
    #: This cell's :func:`repro.obs.metrics.capture` envelope — counter
    #: and histogram movement, plus the bus events captured when a pool
    #: worker ran it — attached by ``execute_task`` in whatever process
    #: ran the cell so a campaign parent can merge it.  Per-cell runner
    #: stats are ``runner_stats(telemetry["counters"])``.
    telemetry: dict = dataclasses.field(default_factory=dict)

    @property
    def cell(self) -> str:
        return f"{self.rounds}/{self.seconds:.1f}s" if self.success else "-"

    @property
    def deterministic_cell(self) -> str:
        """Wall-clock-free cell — byte-identical across runs and job counts."""
        return str(self.rounds) if self.success else "-"


def _cell_outcome(
    strategy: str, case_id: str, params: SearchParams, result: ExplorationResult,
    **measured,
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
        case_id=case_id,
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
        **measured,
    )


#: ``run_anduril``'s search: coverage also over the statically pruned space.
ANDURIL_PARAMS = SearchParams(prune="static")


def run_anduril(
    case: FailureCase,
    max_rounds: int = 600,
    max_seconds: Optional[float] = 60.0,
    profile: bool = False,
    params: SearchParams = ANDURIL_PARAMS,
    checkpoint: bool = False,  # ignored: see DESIGN §5.3
    early_verdict: bool = False,  # ignored: see DESIGN §5.3
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
        "anduril", case.case_id, context.params, result,
        prepare_seconds=context.prepare_seconds,
        mean_decision_us=mean_decision_us,
        metrics=metrics,
    )


def run_baseline(
    name: str,
    case: FailureCase,
    max_rounds: int = 300,
    max_seconds: Optional[float] = 8.0,
    checkpoint: bool = False,  # ignored: see DESIGN §5.3
    early_verdict: bool = False,  # ignored: see DESIGN §5.3
    params: SearchParams = SearchParams(),
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
    return _cell_outcome(name, case.case_id, strategy.context.params, result)
