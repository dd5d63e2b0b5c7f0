"""The Explorer: feedback-driven fault-injection search (§3, §5).

Workflow (numbers match §3):

1. run the workload fault-free to obtain the normal log and the fault
   instance trace;
2. derive relevant observables (per-thread diff vs. the failure log),
   build the static causal graph over them, precompute distances, and
   align instance positions onto the failure timeline;
3. each round, take the flexible window of highest-priority fault
   instances and run the workload with that injection plan;
4. check the oracle — on success emit a deterministic reproduction
   script (4.a); otherwise apply the Algorithm 2 feedback and re-rank
   (4.b);
5. stop when every instance was tried or the round budget is exhausted.

:meth:`Explorer.prepare` is steps 1–2; steps 3–5 are the shared round
loop, :func:`repro.core.search.search`, run under ANDURIL's policy
(:class:`FeedbackPolicy`: the window, its doubling, the feedback).
"""

from __future__ import annotations

import dataclasses
import time
from typing import Optional

from ..analysis.system_model import SystemModel
from ..injection.sites import FaultInstance
from ..obs import NULL_RECORDER, WALL
from ..logs.record import LogFile
from ..sim.cluster import WorkloadFn
from .oracle import Oracle
from .priority import FaultPriorityPool
from .params import SearchParams
from .prepared import SearchContext, build_context
from .report import ReproductionScript
from .search import ExplorationResult, search


class FeedbackPolicy:
    """ANDURIL as a :func:`~repro.core.search.search` policy: the
    flexible window over the priority pool (§5.2.5) and the Algorithm 2
    feedback.  The pool owns what was tried (``mark_tried``)."""

    name = "anduril"
    entries = ()

    def __init__(self, ground_truth_site: Optional[str] = None) -> None:
        self.ground_truth_site = ground_truth_site

    def prepare(self, context: SearchContext) -> None:
        """This search's priority pool, over the context's observables."""
        case = context.prepared
        self.observables = context.observables
        self.pool = FaultPriorityPool(
            case.candidates, case.index, context.observables,
            case.normal_run.trace, case.timeline, context.params,
        )
        self.initial_window = self.size = context.params.initial_window

    def window(self) -> list[FaultInstance]:
        self.entries = self.pool.window(self.size)
        return [entry.instance for entry in self.entries]

    def rank(self) -> Optional[int]:
        site = self.ground_truth_site
        return self.pool.rank_of_site(site) if site else None

    def feedback(self, window, result, injected, satisfied) -> int:
        if injected is None:
            self.size = min(self.size * 2, max(self.pool.candidate_count, 1))
            return 0
        self.pool.mark_tried(injected)
        # The feedback re-ranks the pool, so the inflation past dry rounds
        # applied no longer fits: back to the configured window.
        self.size = self.initial_window
        if satisfied:
            return 0
        return len(self.observables.apply_feedback(result.log))


class Explorer:
    """Searches the fault space to reproduce one failure."""

    def __init__(
        self,
        *,
        workload: WorkloadFn,
        horizon: float,
        failure_log: LogFile,
        oracle: Oracle,
        model: SystemModel,
        seed: int = 0,
        max_rounds: int = 2000,
        max_seconds: Optional[float] = None,
        ground_truth_site: Optional[str] = None,
        case_id: str = "",
        system: str = "",
        base_faults: tuple = (),
        recorder=None,
        params: Optional[SearchParams] = None,
        jobs: int = 1,
        track_coverage: bool = True,  # ignored: see DESIGN §5.3
        checkpoint: bool = False,  # ignored: see DESIGN §5.3
        early_verdict: bool = False,  # ignored: see DESIGN §5.3
        **knobs,
    ) -> None:
        if jobs != 1:
            raise ValueError(
                "a search runs its rounds serially (jobs must be 1); "
                "parallelism lives in campaign fan-out: compare --jobs"
            )
        #: ``params`` under any of its fields given as keywords; fault
        #: dimensions left to the case are ``exceptions`` here.
        self.params = dataclasses.replace(params or SearchParams(), **knobs).resolve()
        self.model = model
        self.workload = workload
        self.horizon = horizon
        self.failure_log = failure_log
        self.oracle = oracle
        self.seed = seed
        self.max_rounds = max_rounds
        self.max_seconds = max_seconds
        self.ground_truth_site = ground_truth_site
        self.case_id = case_id
        self.system = system
        #: Faults injected unconditionally in every round — the iterative
        #: multi-fault workflow fixes already-found faults here.
        self.base_faults = tuple(base_faults)
        #: ``repro.obs`` recorder.  Default off: the NULL_RECORDER no-op
        #: path records nothing, samples no clocks, and leaves the search
        #: byte-identical to an untraced one (see the equivalence tests).
        self._obs = recorder if recorder is not None else NULL_RECORDER
        #: ANDURIL's policy; :meth:`prepare` builds its pool.
        self.policy = FeedbackPolicy(ground_truth_site)
        self._context: Optional[SearchContext] = None

    # ----------------------------------------------------------------- prepare

    def prepare(self) -> SearchContext:
        """Steps 1–2: the one search setup, then ANDURIL's pool over it."""
        if self._context is not None:
            return self._context
        obs = self._obs
        started = time.perf_counter()
        context = build_context(
            self.model, self.workload, self.horizon, self.seed,
            self.failure_log, self.params, base_faults=self.base_faults,
            recorder=obs,
        )
        pooled = time.perf_counter()
        self.policy.prepare(context)
        context.prepare_seconds += time.perf_counter() - pooled
        obs.add_span(
            "prepare",
            "explorer",
            clock=WALL,
            start=obs.rel(started),
            duration=context.prepare_seconds,
            observables=len(context.observables),
            candidates=self.policy.pool.candidate_count,
        )
        self._context = context
        return context

    # ----------------------------------------------------------------- explore

    def explore(self) -> ExplorationResult:
        """Run the search: ANDURIL's policy under the shared round loop,
        plus, on success, a reproduction script."""
        found = search(
            self.prepare(), self.oracle, self.policy,
            case_id=self.case_id,
            max_rounds=self.max_rounds,
            max_seconds=self.max_seconds,
        )
        if not found.success:
            return found
        script = ReproductionScript(
            case_id=self.case_id,
            system=self.system,
            instance=found.injected,
            seed=found.run_seed,
            horizon=self.horizon,
            oracle_description=self.oracle.description,
            extra_instances=self.base_faults,
        )
        return dataclasses.replace(found, script=script)
