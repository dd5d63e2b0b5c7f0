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
from ..analysis.flow import PropagationGraph, reachability_weights
from ..analysis.model import CausalGraph
from ..analysis.system_model import SystemModel, analyze_package
from ..cache.flowcache import cached_propagation_graph
from ..injection.sites import FaultInstance
from ..obs import NULL_RECORDER, WALL
from ..obs.coverage import (
    NULL_COVERAGE,
    CoverageSummary,
    CoverageTracker,
    enumerate_fault_space,
)
from ..logs.record import LogFile
from ..sim.cluster import RunResult, WorkloadFn
from .alignment import TimelineMap
from .observables import ObservableSet
from .oracle import Oracle
from .priority import FaultPriorityPool
from .pipeline import RunConfig, RunPipeline
from .prepared import prepared_case
from .pruning import DEFAULT_RADIUS, StaticPruner
from .report import ReproductionScript
from .search import RoundRecord, search


@dataclasses.dataclass
class ExplorationResult:
    success: bool
    rounds: int
    elapsed_seconds: float
    script: Optional[ReproductionScript]
    injected: Optional[FaultInstance]
    round_records: list[RoundRecord]
    message: str = ""
    final_run: Optional[RunResult] = None
    #: Fault-space coverage accounting (``None`` unless the search ran
    #: with ``track_coverage=True``).
    coverage: Optional[CoverageSummary] = None

    @property
    def rank_trajectory(self) -> list[tuple[int, int]]:
        """(round, root-cause site rank) pairs — the Figure 6 series."""
        return [
            (record.round_number, record.root_site_rank)
            for record in self.round_records
            if record.root_site_rank is not None
        ]

    def signature(self) -> tuple:
        """Semantic identity of the search outcome, excluding wall times.

        A pure function of (case, seed, search parameters): no runner
        knob may move it.  Early-verdict cutoff may truncate a satisfied
        round's run, shrinking its ``injection_requests`` count, so that
        one field is masked on satisfied rounds (unconditionally, keeping
        cutoff on and off byte-identical).
        Every other round field is cutoff-invariant: feedback — and so
        ``present_observables`` — only runs on unsatisfied rounds, which
        never truncate.
        """
        return (
            self.success,
            self.rounds,
            self.message,
            self.injected,
            self.script,
            tuple(
                (
                    record.round_number,
                    record.window_size,
                    record.injected,
                    record.satisfied,
                    record.root_site_rank,
                    -1 if record.satisfied else record.injection_requests,
                    record.present_observables,
                )
                for record in self.round_records
            ),
        )


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
    #: The flow pass's result; built only when static pruning or the
    #: reachability prior asked for it.
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
        package: Optional[str] = None,
        model: Optional[SystemModel] = None,
        seed: int = 0,
        initial_window: int = 10,
        adjustment: int = 1,
        max_rounds: int = 2000,
        max_seconds: Optional[float] = None,
        ground_truth_site: Optional[str] = None,
        case_id: str = "",
        system: str = "",
        vary_seed: bool = False,
        max_instances_per_site: Optional[int] = None,
        base_faults: tuple = (),
        aggregate: str = "min",
        temporal_mode: str = "messages",
        runs_per_round: int = 1,
        lint_prior: bool = False,
        lint_bonus: float = 2.0,
        reachability_prior: bool = False,
        reach_bonus: float = 1.0,
        jobs: int = 1,
        recorder=None,
        bus=None,
        track_coverage: bool = False,
        prune: str = "none",
        prune_radius: float = DEFAULT_RADIUS,
        checkpoint: bool = False,
        early_verdict: bool = False,
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
        if model is None:
            if package is None:
                raise ValueError("either package or model is required")
            model = analyze_package(package)
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
        self.vary_seed = vary_seed
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
        #: Warm-start the site ranking from the static lint pass: sites
        #: implicated by fault-handling defect findings get an F_i bonus
        #: of ``lint_bonus * weight`` (see ``LintReport.site_weights``).
        self.lint_prior = lint_prior
        self.lint_bonus = lint_bonus
        #: Flow-pass reachability prior: sites whose exceptions can
        #: statically reach a relevant logging divergence point get an
        #: F_i bonus of ``reach_bonus * weight`` (see
        #: ``repro.analysis.flow.reachability_weights``).
        self.reachability_prior = reachability_prior
        self.reach_bonus = reach_bonus
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
        #: ``repro.obs.bus`` live event stream.  ``None`` (the default)
        #: means "whatever bus is process-active", resolved per explore
        #: so campaign workers that install a capture bus after the
        #: Explorer is built still stream events.  The NULL_BUS path
        #: emits nothing and leaves signatures byte-identical (see
        #: tests/core/test_bus_equivalence.py).
        self._bus = bus
        #: Fault-space coverage accounting.  Off by default: the shared
        #: NULL_COVERAGE no-op tracker keeps the untracked path free of
        #: set bookkeeping (same pattern as NULL_RECORDER).
        self.track_coverage = track_coverage
        self._coverage = NULL_COVERAGE
        self._prepared: Optional[PreparedSearch] = None
        #: Every run of this search goes through here (DESIGN §5.3).
        #: Both runner knobs are outcome-invariant:
        #: ``checkpoint`` forks each round's run off a holder parked at
        #: the plan's first possible firing position instead of replaying
        #: the fault-free prefix (``repro.sim.checkpoint``);
        #: ``early_verdict`` stops a round run the moment the oracle's
        #: outcome is decided (``repro.core.verdict``) — only *satisfied*
        #: runs can truncate, so the log-diff feedback loop always sees
        #: full logs, and the masked ``injection_requests`` field above
        #: is the sole truncation-visible round field.
        self._pipeline = RunPipeline(
            workload, horizon, seed, oracle,
            RunConfig.here(
                checkpoint=bool(checkpoint),
                early_verdict=bool(early_verdict),
            ),
            recorder=self._obs, base_faults=self.base_faults,
        )

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

        prior_weights = None
        if self.lint_prior:
            from ..analysis.lint import run_lint

            prior_weights = run_lint(self.model).site_weights()
        flow_graph = None
        if self.prune == "static" or self.reachability_prior:
            flow_graph = cached_propagation_graph(
                self.model, workload=self.workload
            )
        reach_weights = None
        if self.reachability_prior and flow_graph is not None:
            reach_weights = reachability_weights(
                flow_graph, observables.mapped_keys()
            )
        pool = FaultPriorityPool(
            candidates,
            index,
            observables,
            normal_run.trace,
            timeline,
            max_instances_per_site=self.max_instances_per_site,
            aggregate=self.aggregate,
            temporal_mode=self.temporal_mode,
            prior_weights=prior_weights,
            prior_scale=self.lint_bonus,
            reach_weights=reach_weights,
            reach_scale=self.reach_bonus,
        )
        if self.track_coverage:
            # The full injectable fault space comes from the same inputs
            # the pool uses (graph candidates x probe occurrences), so
            # coverage fractions are comparable across strategies.
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
            pruned_space = None
            if self.prune == "static" and flow_graph is not None:
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
        wrapped as a result plus, on success, a reproduction script."""
        prepared = self.prepare()
        policy = FeedbackPolicy(
            prepared.pool, prepared.observables,
            self.initial_window, self.ground_truth_site,
        )
        with self._pipeline as pipeline:
            # The fork points come from the probe trace.
            pipeline.arm(prepared.normal_run.trace)
            found = search(
                pipeline, self.oracle, policy,
                case_id=self.case_id,
                max_rounds=self.max_rounds,
                max_seconds=self.max_seconds,
                vary_seed=self.vary_seed,
                runs_per_round=self.runs_per_round,
                base_faults=self.base_faults,
                recorder=self._obs,
                bus=self._bus,
                coverage=self._coverage,
            )
        script = None
        if found.success:
            script = ReproductionScript(
                case_id=self.case_id,
                system=self.system,
                instance=found.injected,
                seed=found.run_seed,
                horizon=self.horizon,
                oracle_description=self.oracle.description,
                extra_instances=self.base_faults,
            )
        return ExplorationResult(
            found.success, len(found.records), found.elapsed_seconds,
            script, found.injected, found.records, found.message,
            found.final_run, found.coverage,
        )
