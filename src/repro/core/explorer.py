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

from ..analysis.causal import DistanceIndex
from ..analysis.flow import PropagationGraph, propagation_graph
from ..analysis.model import CausalGraph
from ..analysis.system_model import SystemModel
from ..injection.sites import FaultInstance
from ..obs import NULL_RECORDER, WALL
from ..obs.coverage import CoverageTracker, enumerate_fault_space
from ..logs.record import LogFile
from ..sim.cluster import RunResult, WorkloadFn
from .alignment import TimelineMap
from .observables import ObservableSet
from .oracle import Oracle
from .priority import FaultPriorityPool
from .pipeline import RunPipeline
from .prepared import prepared_case
from .pruning import DEFAULT_RADIUS, StaticPruner
from .report import ReproductionScript
from .search import ExplorationResult, search


@dataclasses.dataclass
class PreparedSearch:
    """Everything assembled before the first injection round."""

    model: SystemModel
    graph: CausalGraph
    index: DistanceIndex
    observables: ObservableSet
    pool: FaultPriorityPool
    normal_log: LogFile
    normal_run: RunResult
    prepare_seconds: float
    timeline: Optional[TimelineMap] = None
    #: The flow pass's result; built only for static pruning, whose
    #: coverage accounting is its one reader.
    flow_graph: Optional[PropagationGraph] = None


class FeedbackPolicy:
    """ANDURIL as a :func:`~repro.core.search.search` policy: the
    flexible window over the priority pool (§5.2.5) and the Algorithm 2
    feedback.  The pool owns what was tried (``mark_tried``)."""

    name = "anduril"

    def __init__(
        self,
        pool: FaultPriorityPool,
        observables: ObservableSet,
        initial_window: int,
        ground_truth_site: Optional[str] = None,
    ) -> None:
        self.pool = pool
        self.observables = observables
        self.initial_window = self.size = initial_window
        self.ground_truth_site = ground_truth_site
        self.entries = ()

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
        initial_window: int = 10,
        adjustment: int = 1,
        max_rounds: int = 2000,
        max_seconds: Optional[float] = None,
        ground_truth_site: Optional[str] = None,
        case_id: str = "",
        system: str = "",
        max_instances_per_site: Optional[int] = None,
        base_faults: tuple = (),
        aggregate: str = "min",
        temporal_mode: str = "messages",
        runs_per_round: int = 1,
        jobs: int = 1,
        recorder=None,
        track_coverage: bool = True,  # ignored: see DESIGN §5.3
        prune: str = "none",
        prune_radius: float = DEFAULT_RADIUS,
        checkpoint: bool = False,  # ignored: see DESIGN §5.3
        early_verdict: bool = False,  # ignored: see DESIGN §5.3
        fault_dims: str = "exceptions",
    ) -> None:
        if runs_per_round < 1:
            raise ValueError("runs_per_round must be at least 1")
        if prune not in ("none", "static"):
            raise ValueError("prune must be 'none' or 'static'")
        if fault_dims not in ("exceptions", "soft", "all"):
            raise ValueError("fault_dims must be 'exceptions', 'soft', or 'all'")
        if jobs != 1:
            raise ValueError(
                "a search runs its rounds serially (jobs must be 1); "
                "parallelism lives in campaign fan-out: compare --jobs"
            )
        self.model = model
        self.workload = workload
        self.horizon = horizon
        self.failure_log = failure_log
        self.oracle = oracle
        self.seed = seed
        self.initial_window = initial_window
        self.adjustment = adjustment
        self.max_rounds = max_rounds
        self.max_seconds = max_seconds
        self.ground_truth_site = ground_truth_site
        self.case_id = case_id
        self.system = system
        self.max_instances_per_site = max_instances_per_site
        self.aggregate = aggregate
        self.temporal_mode = temporal_mode
        #: §6: against nondeterministic systems, a round may re-run the
        #: workload under perturbed seeds until some armed instance occurs,
        #: improving the chance that crucial log messages materialize.
        self.runs_per_round = runs_per_round
        #: Faults injected unconditionally in every round — the iterative
        #: multi-fault workflow fixes already-found faults here.
        self.base_faults = tuple(base_faults)
        #: Static fault-space pruning (accounting-only; see
        #: ``repro.core.pruning``).  With ``prune="static"`` the coverage
        #: tracker additionally carries the pruned space and records any
        #: fired triple outside it as a contradiction.  The search path
        #: itself is byte-identical with pruning on or off.
        self.prune = prune
        self.prune_radius = prune_radius
        #: Fault dimensions the search enumerates candidates over:
        #: ``exceptions`` (legacy raise specs only — the default, which
        #: keeps pre-existing campaigns byte-identical), ``soft`` (value
        #: corruptions only), or ``all``.
        self.fault_dims = fault_dims
        #: ``repro.obs`` recorder.  Default off: the NULL_RECORDER no-op
        #: path records nothing, samples no clocks, and leaves the search
        #: byte-identical to an untraced one (see the equivalence tests).
        self._obs = recorder if recorder is not None else NULL_RECORDER
        #: Fault-space coverage accounting, built by :meth:`prepare`.
        self._coverage: Optional[CoverageTracker] = None
        self._prepared: Optional[PreparedSearch] = None
        #: Every run of this search goes through here (DESIGN §5.3).
        self._pipeline = RunPipeline(workload, horizon, seed, recorder=self._obs)

    # ----------------------------------------------------------------- prepare

    def prepare(self) -> PreparedSearch:
        """Steps 1–2: the shared prepared case (probe run, observables,
        causal graph), then this search's own priorities."""
        if self._prepared is not None:
            return self._prepared
        obs = self._obs
        started = time.perf_counter()
        case = prepared_case(
            self.model, self.workload, self.horizon, self.seed,
            self.failure_log, fault_dims=self.fault_dims,
            base_faults=self.base_faults, pipeline=self._pipeline,
        )
        obtained = time.perf_counter()
        normal_run, candidates = case.normal_run, case.candidates
        index, timeline = case.index, case.timeline
        observables = case.observables(self.adjustment, obs)

        pool = FaultPriorityPool(
            candidates,
            index,
            observables,
            normal_run.trace,
            timeline,
            max_instances_per_site=self.max_instances_per_site,
            aggregate=self.aggregate,
            temporal_mode=self.temporal_mode,
        )
        # The full injectable fault space comes from the same inputs the
        # pool uses (graph candidates x probe occurrences), so coverage
        # fractions are comparable across strategies.
        occurrences = case.occurrences
        space = (
            case.fault_space
            if self.max_instances_per_site is None
            else enumerate_fault_space(
                candidates,
                occurrences,
                max_instances_per_site=self.max_instances_per_site,
            )
        )
        flow_graph = pruned_space = None
        if self.prune == "static":
            # Pruning is accounting-only: the flow pass feeds the
            # coverage tracker and nothing else.
            flow_graph = propagation_graph(self.model)
            pruner = StaticPruner(
                graph=flow_graph,
                candidates=candidates,
                index=index,
                observables=observables,
                timeline=timeline,
                trace=normal_run.trace,
                radius=self.prune_radius,
            )
            pruned_space = enumerate_fault_space(
                candidates,
                occurrences,
                max_instances_per_site=self.max_instances_per_site,
                prune="static",
                pruner=pruner,
            )
        self._coverage = CoverageTracker(space, pruned_space=pruned_space)
        # Tables 4/8 report what preparing this search costs: a shared
        # case counts at its recorded build time, not at the memo hit's.
        prepare_seconds = case.build_seconds + time.perf_counter() - obtained
        obs.add_span(
            "prepare",
            "explorer",
            clock=WALL,
            start=obs.rel(started),
            duration=prepare_seconds,
            observables=len(observables),
            candidates=pool.candidate_count,
        )
        self._prepared = PreparedSearch(
            model=self.model,
            graph=case.graph,
            index=index,
            observables=observables,
            pool=pool,
            normal_log=normal_run.log,
            normal_run=normal_run,
            prepare_seconds=prepare_seconds,
            timeline=timeline,
            flow_graph=flow_graph,
        )
        return self._prepared

    # ----------------------------------------------------------------- explore

    def explore(self) -> ExplorationResult:
        """Run the search: ANDURIL's policy under the shared round loop,
        plus, on success, a reproduction script."""
        prepared = self.prepare()
        policy = FeedbackPolicy(
            prepared.pool, prepared.observables,
            self.initial_window, self.ground_truth_site,
        )
        found = search(
            self._pipeline, self.oracle, policy,
            case_id=self.case_id,
            max_rounds=self.max_rounds,
            max_seconds=self.max_seconds,
            runs_per_round=self.runs_per_round,
            base_faults=self.base_faults,
            recorder=self._obs,
            coverage=self._coverage,
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
