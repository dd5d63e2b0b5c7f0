"""Shared machinery for baseline and ablation injection strategies.

A strategy produces, per round, a window of fault instances to arm (the
first one that occurs is injected, mirroring the FIR semantics).  It is a
policy of the one round loop, :func:`repro.core.search.search` — the same
loop ANDURIL's Explorer runs under, so both are measured alike (rounds,
wall time); :class:`StrategyRunner` sets the search up and returns the
loop's :class:`~repro.core.search.ExplorationResult`.

Strategies prepare from the :class:`~repro.core.prepared.SearchContext`
that ANDURIL's Explorer also builds, through the same
:func:`~repro.core.prepared.build_context`, so ablations can reuse
exactly the pieces they keep and drop the ones they ablate.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Optional, Protocol

from ..analysis.system_model import SystemModel
from ..core.oracle import Oracle
from ..core.params import SearchParams
from ..core.prepared import SearchContext, build_context
from ..core.search import ExplorationResult, search
from ..injection.sites import FaultInstance
from ..logs.record import LogFile
from ..sim.cluster import RunResult, WorkloadFn

#: What only ANDURIL's policy reads.  A baseline runs a fixed seed and
#: keeps its own order (DESIGN §5.5), so it refuses these off default.
POLICY_FIELDS = (
    "initial_window", "aggregate", "temporal_mode", "max_instances_per_site",
    "runs_per_round",
)


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

    def __post_init__(self) -> None:
        default = SearchParams()
        moved = [
            name for name in POLICY_FIELDS
            if getattr(self.params or default, name) != getattr(default, name)
        ]
        if moved:
            raise ValueError(
                f"a baseline does not read {', '.join(moved)}: "
                "only ANDURIL's policy does"
            )

    def context(self, case: CaseLike) -> SearchContext:
        """The search's setup on ``case``, whose fault dimensions fill in
        what ``params`` leaves open."""
        return build_context(
            case.model(), case.workload, case.horizon, case.seed,
            case.failure_log(),
            (self.params or SearchParams()).resolve(case.fault_dims),
        )

    def run(
        self,
        strategy: Strategy,
        case: CaseLike,
        case_id: Optional[str] = None,
    ) -> ExplorationResult:
        started = time.perf_counter()
        context = self.context(case)
        strategy.prepare(context)
        return search(
            context, case.oracle, strategy,
            case_id=case.case_id if case_id is None else case_id,
            max_rounds=self.max_rounds,
            max_seconds=self.max_seconds,
            started=started,
        )
