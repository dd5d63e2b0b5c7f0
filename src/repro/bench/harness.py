"""Run ANDURIL or a baseline strategy on a failure case with budgets.

The budgets play the role of the paper's 24-hour cap: a strategy that
cannot reproduce within them gets a "-" in the tables.
"""

from __future__ import annotations

import dataclasses
from typing import Optional

from ..baselines import ALL_STRATEGIES, StrategyRunner
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
class AndurilOutcome:
    case_id: str
    success: bool
    rounds: int
    seconds: float
    prepare_seconds: float
    rank_trajectory: list[tuple[int, int]]
    median_requests: int
    #: Mean FIR decision latency in µs, reported by the ``repro.obs``
    #: metrics layer; 0.0 unless the run was profiled (see ``profile``).
    mean_decision_us: float
    median_init_ms: float
    median_workload_ms: float
    #: Flat ``repro.obs`` metrics dict (empty unless profiled).
    metrics: dict = dataclasses.field(default_factory=dict)
    #: Fault-space coverage accounting dict (``None`` when disabled).
    coverage: Optional[dict] = None
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


@dataclasses.dataclass
class StrategyOutcome:
    strategy: str
    case_id: str
    success: bool
    rounds: int
    seconds: float
    #: Fault-space coverage accounting dict (``None`` when disabled).
    coverage: Optional[dict] = None
    #: See :attr:`AndurilOutcome.telemetry`.
    telemetry: dict = dataclasses.field(default_factory=dict)

    @property
    def cell(self) -> str:
        return f"{self.rounds}/{self.seconds:.1f}s" if self.success else "-"

    @property
    def deterministic_cell(self) -> str:
        """Wall-clock-free cell — byte-identical across runs and job counts."""
        return str(self.rounds) if self.success else "-"


def run_anduril(
    case: FailureCase,
    max_rounds: int = 600,
    max_seconds: Optional[float] = 60.0,
    profile: bool = False,
    coverage: bool = True,
    prune: str = "static",
    **overrides,
) -> AndurilOutcome:
    """Run the feedback-driven search on one case under the table budgets.

    ``profile=True`` attaches a ``repro.obs`` recorder: FIR decision
    timing is sampled, per-round spans and rerank events are captured,
    and the flat metrics dict lands in :attr:`AndurilOutcome.metrics`.
    ``coverage`` (default on — campaign accounting is this harness's
    job) tracks fault-space coverage, with ``prune="static"`` (the
    default) folding the flow pass's statically-dead triples out of the
    denominator; pruning is accounting-only, so the search outcome is
    invariant in all three knobs (``prune="none"`` restores the raw
    space).
    """
    recorder = None
    if profile:
        from ..obs import TraceRecorder

        recorder = TraceRecorder()
    explorer = case.explorer(
        max_rounds=max_rounds,
        max_seconds=max_seconds,
        recorder=recorder,
        track_coverage=coverage,
        prune=prune,
        **overrides,
    )
    prepared = explorer.prepare()
    result = explorer.explore()
    records = result.round_records
    requests = [r.injection_requests for r in records] or [0]
    inits = [r.init_seconds for r in records] or [0.0]
    workloads = [r.workload_seconds for r in records] or [0.0]
    metrics = recorder.metrics() if recorder is not None else {}
    decision_requests = metrics.get("fir.requests", 0.0)
    mean_decision_us = (
        metrics.get("fir.decision_seconds", 0.0) / decision_requests * 1e6
        if decision_requests
        else 0.0
    )
    obs_metrics.increment("campaign.anduril_runs")
    obs_metrics.increment("campaign.rounds", result.rounds)
    return AndurilOutcome(
        case_id=case.case_id,
        success=result.success,
        rounds=result.rounds,
        seconds=result.elapsed_seconds,
        prepare_seconds=prepared.prepare_seconds,
        rank_trajectory=result.rank_trajectory,
        median_requests=int(_median(requests)),
        mean_decision_us=mean_decision_us,
        median_init_ms=_median(inits) * 1e3,
        median_workload_ms=_median(workloads) * 1e3,
        metrics=metrics,
        coverage=result.coverage.to_dict() if result.coverage else None,
    )


def run_baseline(
    name: str,
    case: FailureCase,
    max_rounds: int = 300,
    max_seconds: Optional[float] = 8.0,
    coverage: bool = True,
    checkpoint: bool = False,  # ignored: see DESIGN §5.3
    early_verdict: bool = False,  # ignored: see DESIGN §5.3
    **strategy_kwargs,
) -> StrategyOutcome:
    """Run one baseline strategy on one case under the table budgets.

    Everything in ``strategy_kwargs`` goes to the strategy constructor.
    """
    strategy = ALL_STRATEGIES[name](**strategy_kwargs)
    runner = StrategyRunner(
        max_rounds=max_rounds,
        max_seconds=max_seconds,
        track_coverage=coverage,
    )
    result = runner.run(strategy, case, case_id=case.case_id)
    obs_metrics.increment("campaign.baseline_runs")
    obs_metrics.increment("campaign.rounds", result.rounds)
    return StrategyOutcome(
        strategy=name,
        case_id=case.case_id,
        success=result.success,
        rounds=result.rounds,
        seconds=result.elapsed_seconds,
        coverage=result.coverage.to_dict() if result.coverage else None,
    )
