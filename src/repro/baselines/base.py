"""Shared machinery for baseline and ablation injection strategies.

A strategy produces, per round, a window of fault instances to arm (the
first one that occurs is injected, mirroring the FIR semantics).  It is a
policy of the one round loop, :func:`repro.core.search.search` — the same
loop ANDURIL's Explorer runs under, so both are measured alike (rounds,
wall time); :class:`StrategyRunner` builds a case's context and pipeline
and returns the loop's :class:`~repro.core.search.ExplorationResult`.

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
from ..core.params import SearchParams
from ..core.pipeline import RunPipeline
from ..core.prepared import prepared_case
from ..core.search import ExplorationResult, search
from ..injection.sites import FaultInstance
from ..logs.record import LogFile
from ..obs.coverage import CoverageTracker
from ..sim.cluster import RunResult, WorkloadFn


class CaseLike(Protocol):
    """The slice of a failure case a strategy needs."""

    workload: WorkloadFn
    horizon: float
    oracle: Oracle
    seed: int
    case_id: str
    fault_dims: str

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
    #: The probe; its trace's per-site index places each occurrence.
    normal_run: RunResult
    #: Times the probe executed each site.
    occurrences: Mapping[str, int]
    #: Every injectable triple of the case (coverage's denominator).
    fault_space: frozenset

    def occurrences_of(self, site_id: str) -> range:
        """The site's probe occurrences, 1 … n (empty if it never ran)."""
        return range(1, self.occurrences.get(site_id, 0) + 1)


def build_context(case: CaseLike, params: Optional[SearchParams] = None) -> SearchContext:
    """The case's shared prepared artefact (Explorer steps 1–2) plus a
    fresh observable set, the one piece of it a strategy's feedback may
    write to.

    The probe run is identical across every strategy sharing a case — it
    is also the run a window that never fires executes as — so it is
    made once, with the prepared case, through the run cache.  Its fault
    dimensions are those of ``params``, by default the case's own.
    """
    model = case.model()
    prepared = prepared_case(
        model, case.workload, case.horizon, case.seed, case.failure_log(),
        params=(params or SearchParams()).resolve(case.fault_dims),
    )
    return SearchContext(
        case=case,
        model=model,
        observables=prepared.observables(),
        candidates=prepared.candidates,
        index=prepared.index,
        timeline=prepared.timeline,
        normal_run=prepared.normal_run,
        occurrences=prepared.occurrences,
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
class StrategyRunner:
    max_rounds: int = 400
    max_seconds: Optional[float] = 60.0
    params: Optional[SearchParams] = None

    def run(
        self,
        strategy: Strategy,
        case: CaseLike,
        case_id: Optional[str] = None,
    ) -> ExplorationResult:
        if case_id is None:
            case_id = case.case_id
        started = time.perf_counter()
        context = build_context(case, self.params)
        strategy.prepare(context)
        return search(
            RunPipeline(case.workload, case.horizon, case.seed),
            case.oracle,
            strategy,
            case_id=case_id,
            max_rounds=self.max_rounds,
            max_seconds=self.max_seconds,
            # The space is enumerated from the same inputs ANDURIL's
            # Explorer uses, so coverage fractions compare.
            coverage=CoverageTracker(context.fault_space),
            probe=context.normal_run.trace,
            started=started,
        )
