"""Shared machinery for baseline and ablation injection strategies.

A strategy produces, per round, a window of fault instances to arm (the
first one that occurs is injected, mirroring the FIR semantics); the
:class:`StrategyRunner` executes rounds against a failure case until the
oracle is satisfied or the budget runs out, measuring the same metrics as
the Explorer (rounds, wall time).

Strategies receive a :class:`SearchContext` with everything ANDURIL's
Explorer also builds in its prepare step, so ablations can reuse exactly
the pieces they keep and drop the ones they ablate.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Mapping, Optional, Protocol, Sequence

from ..analysis.causal import DistanceIndex
from ..analysis.model import SourceInfo
from ..analysis.system_model import SystemModel
from ..core.alignment import TimelineMap
from ..core.observables import ObservableSet
from ..core.oracle import Oracle
from ..core.pipeline import RunConfig, RunPipeline
from ..core.prepared import prepared_case
from ..injection.fir import InjectionPlan, TraceEvent, dedupe_instances
from ..injection.sites import FaultInstance
from ..logs.record import LogFile
from ..obs.bus import RoundReporter
from ..obs.coverage import NULL_COVERAGE, CoverageSummary, CoverageTracker
from ..sim.cluster import RunResult, WorkloadFn


class CaseLike(Protocol):
    """The slice of a failure case a strategy needs."""

    workload: WorkloadFn
    horizon: float
    oracle: Oracle
    seed: int

    def model(self) -> SystemModel: ...
    def failure_log(self) -> LogFile: ...


@dataclasses.dataclass
class SearchContext:
    """Artifacts shared by all strategies for one case."""

    case: CaseLike
    model: SystemModel
    observables: ObservableSet
    candidates: Sequence[SourceInfo]
    index: DistanceIndex
    timeline: TimelineMap
    normal_run: RunResult
    instances_by_site: Mapping[str, Sequence[TraceEvent]]
    #: Every injectable triple of the case (coverage's denominator).
    fault_space: frozenset

    def instances_of(self, site_id: str) -> Sequence[TraceEvent]:
        return self.instances_by_site.get(site_id, ())


def build_context(case: CaseLike) -> SearchContext:
    """The case's shared prepared artefact (Explorer steps 1–2) plus a
    fresh observable set, the one piece of it a strategy's feedback may
    write to.

    The probe run is identical across every strategy sharing a case — it
    is also the noop run that alias-serves never-firing windows — so it
    is made once, with the prepared case, through the run cache.
    """
    model = case.model()
    # Strategies search the same fault dimensions as the case's Explorer
    # would (CaseLike is a Protocol, so reach for the attribute politely).
    prepared = prepared_case(
        model, case.workload, case.horizon, case.seed, case.failure_log(),
        fault_dims=getattr(case, "fault_dims", "exceptions"),
    )
    return SearchContext(
        case=case,
        model=model,
        observables=prepared.observables(),
        candidates=prepared.candidates,
        index=prepared.index,
        timeline=prepared.timeline,
        normal_run=prepared.normal_run,
        instances_by_site=prepared.instances_by_site,
        fault_space=prepared.fault_space,
    )


class Strategy:
    """Base class: subclasses implement window selection and feedback."""

    name = "base"

    def prepare(self, context: SearchContext) -> None:
        self.context = context

    def next_window(self) -> list[FaultInstance]:
        """The instances to arm this round; empty means exhausted."""
        raise NotImplementedError

    def observe(
        self,
        result: RunResult,
        injected: Optional[FaultInstance],
        satisfied: bool,
    ) -> None:
        """Feedback hook after each round (default: none)."""


@dataclasses.dataclass
class StrategyResult:
    strategy: str
    case_id: str
    success: bool
    rounds: int
    elapsed_seconds: float
    injected: Optional[FaultInstance]
    message: str = ""
    #: Fault-space coverage accounting (``None`` unless the runner was
    #: built with ``track_coverage=True``).  The space is enumerated from
    #: the same inputs ANDURIL's Explorer uses, so fractions compare.
    coverage: Optional[CoverageSummary] = None


class StrategyRunner:
    def __init__(
        self,
        max_rounds: int = 400,
        max_seconds: Optional[float] = 60.0,
        track_coverage: bool = False,
        checkpoint: bool = False,
        early_verdict: bool = False,
        bus=None,
    ) -> None:
        self.max_rounds = max_rounds
        self.max_seconds = max_seconds
        #: Live event bus; ``None`` means "the process-active bus".
        self._bus = bus
        #: Fault-space coverage accounting (off by default; the shared
        #: NULL_COVERAGE no-op tracker keeps the default path unchanged).
        self.track_coverage = track_coverage
        #: Fork round runs off a parked prefix (``repro.sim.checkpoint``)
        #: instead of replaying from t=0.  Outcome-invariant, opt-in, and
        #: a no-op where ``os.fork`` is unavailable.
        self.checkpoint = bool(checkpoint)
        #: Early-verdict cutoff: round runs are verdict-monitored and
        #: stop once the oracle's outcome is decided.  Only satisfied
        #: runs can truncate, and a satisfied round ends the search, so
        #: strategies' feedback hooks always see full-run results.
        self.early_verdict = bool(early_verdict)

    def run(
        self,
        strategy: Strategy,
        case: CaseLike,
        case_id: Optional[str] = None,
    ) -> StrategyResult:
        if case_id is None:
            # Campaign workers address cases by id; default to the case's
            # own id so parallel sweeps need not thread it separately.
            case_id = getattr(case, "case_id", "")
        started = time.perf_counter()
        context = build_context(case)
        strategy.prepare(context)
        coverage = NULL_COVERAGE
        if self.track_coverage:
            coverage = CoverageTracker(context.fault_space)
        tried: set[tuple[str, str, int]] = set()
        rounds = 0

        def finish(
            success: bool,
            injected: Optional[FaultInstance],
            message: str,
        ) -> StrategyResult:
            return StrategyResult(
                strategy.name, case_id, success, rounds,
                time.perf_counter() - started, injected, message,
                coverage=coverage.summary(),
            )

        reporter = RoundReporter(self._bus, case_id, strategy.name)
        with RunPipeline(
            case.workload,
            case.horizon,
            case.seed,
            case.oracle,
            RunConfig.here(
                checkpoint=self.checkpoint, early_verdict=self.early_verdict
            ),
        ) as pipeline:
            pipeline.arm(context.normal_run.trace)
            while rounds < self.max_rounds:
                round_started = time.perf_counter()
                if (
                    self.max_seconds is not None
                    and round_started - started > self.max_seconds
                ):
                    return finish(False, None, "time budget exhausted")
                window = [
                    instance
                    for instance in strategy.next_window()
                    if (instance.site_id, instance.exception, instance.occurrence)
                    not in tried
                ]
                if not window:
                    return finish(False, None, "fault space exhausted")
                rounds += 1
                reporter.begin(rounds)
                # A strategy's window may offer the same (site, occurrence)
                # under two exceptions; only the first is armable per run.
                plan = InjectionPlan.of(dedupe_instances(window))
                run_started = time.perf_counter()
                result = pipeline.run(case.seed, plan)
                feedback_started = time.perf_counter()
                injected = result.injected_instance
                satisfied = False
                if injected is not None:
                    tried.add(
                        (injected.site_id, injected.exception, injected.occurrence)
                    )
                    satisfied = case.oracle.satisfied(result)
                else:
                    # None of the armed instances occurred; with a fixed seed
                    # they never will, so retire the whole window.
                    tried.update(
                        (i.site_id, i.exception, i.occurrence) for i in window
                    )
                coverage.record_round(rounds, plan.instances, injected)
                strategy.observe(result, injected, satisfied)
                round_ended = time.perf_counter()
                reporter.end(
                    rounds,
                    injected,
                    satisfied,
                    None,
                    len(window),
                    run_seconds=feedback_started - run_started,
                    feedback_seconds=round_ended - feedback_started,
                    round_seconds=round_ended - round_started,
                )
                if satisfied:
                    return finish(True, injected, "reproduced")
            return finish(False, None, "round budget exhausted")
