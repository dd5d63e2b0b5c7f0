"""Shared machinery for baseline and ablation injection strategies.

A strategy produces, per round, a window of fault instances to arm (the
first one that occurs is injected, mirroring the FIR semantics).  It is a
policy of the one round loop, :func:`repro.core.search.search` — the same
loop ANDURIL's Explorer runs under, so both are measured alike (rounds,
wall time); :class:`StrategyRunner` builds a case's context and pipeline
and wraps the loop's outcome as a :class:`StrategyResult`.

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
from ..core.search import search
from ..injection.fir import TraceEvent
from ..injection.sites import FaultInstance
from ..logs.record import LogFile
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


def _key(instance: FaultInstance) -> tuple[str, str, int]:
    return (instance.site_id, instance.exception, instance.occurrence)


class Strategy:
    """Base class: subclasses implement window selection
    (:meth:`next_window`) and feedback (:meth:`observe`); the base class
    makes them a ``search()`` policy and keeps the one :attr:`tried` set."""

    name = "base"
    entries = ()  # no window provenance (nor a rank): those are ANDURIL's

    def prepare(self, context: SearchContext) -> None:
        self.context = context
        #: Every ``(site, exception, occurrence)`` never to offer again.
        self.tried: set[tuple[str, str, int]] = set()

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

    def window(self) -> list[FaultInstance]:
        return [
            instance
            for instance in self.next_window()
            if _key(instance) not in self.tried
        ]

    def rank(self) -> None:
        return None

    def feedback(self, window, result, injected, satisfied) -> int:
        # When none of the armed instances occurred, with a fixed seed
        # they never will: retire the whole window.
        retired = window if injected is None else [injected]
        self.tried.update(_key(instance) for instance in retired)
        self.observe(result, injected, satisfied)
        return 0


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
            found = search(
                pipeline,
                case.oracle,
                strategy,
                case_id=case_id,
                max_rounds=self.max_rounds,
                max_seconds=self.max_seconds,
                started=started,
                bus=self._bus,
                coverage=coverage,
            )
        return StrategyResult(
            strategy.name, case_id, found.success, len(found.records),
            found.elapsed_seconds, found.injected, found.message,
            coverage=found.coverage,
        )
