"""The prepared case: steps 1–2 of the search, built once (DESIGN §5.4).

Before its first round every search over a case needs the same things:
the fault-free probe run, its per-thread diff against the failure log,
the causal graph over the resulting observables, the distance index,
the candidates, the timeline alignment.  None of it depends on the
strategy, so the ten cells a campaign runs on one case — ANDURIL's
:meth:`~repro.core.explorer.Explorer.prepare` and nine baselines'
:func:`~repro.baselines.base.build_context` — obtain one
:class:`PreparedCase` from :func:`prepared_case`.

**Immutability contract.**  A :class:`PreparedCase` and everything
reachable from it is read-only once built; what a search mutates —
observable priorities, the priority pool, coverage — is made fresh per
search (:meth:`PreparedCase.observables`).  The three memos inside it
(the comparator's edit scripts, the matcher's message keys, the probe
trace's per-site index) are pure caches.
"""

from __future__ import annotations

import dataclasses
import time
import types
from typing import Mapping, Optional

from ..analysis.causal import CausalGraphBuilder, DistanceIndex
from ..analysis.flow import PropagationGraph, propagation_graph
from ..analysis.model import (
    CausalGraph,
    SourceInfo,
    filter_candidates_by_dims,
    graph_fault_candidates,
)
from ..analysis.system_model import SystemModel
from ..injection.fir import InjectionPlan
from ..logs.diff import CompareResult, LogComparator, PreparedComparator
from ..logs.record import LogFile
from ..obs import NULL_RECORDER
from ..obs.coverage import CoverageTracker, enumerate_fault_space
from ..sim.cluster import RunResult
from .alignment import TimelineMap
from .observables import ObservableSet
from .params import SearchParams
from . import pipeline as _pipeline
from .pipeline import RunPipeline
from .pruning import StaticPruner

#: Cases kept per model before the table is cleared wholesale.  A campaign
#: is strategy-major, so a system's cases must all survive to the last
#: sweep; the catalog has at most eight per system.
CASES_PER_MODEL = 32


@dataclasses.dataclass(frozen=True)
class PreparedCase:
    """The strategy-independent product of the Explorer's steps 1–2."""

    failure_log: LogFile
    #: The probe.  Its trace's per-site index (``ProbeTrace.positions``)
    #: is the one grouping by site that every search reads.
    normal_run: RunResult
    #: The failure side, grouped once for every search's feedback.
    comparator: PreparedComparator
    #: ``COMPARE(normal log, failure log)``: observables and anchors.
    initial: CompareResult
    template_ids: frozenset
    graph: CausalGraph
    index: DistanceIndex
    candidates: tuple[SourceInfo, ...]
    timeline: TimelineMap
    #: Times the probe executed each site, and from that every
    #: injectable ``(site, spec, occurrence)`` (no per-site cap).
    occurrences: Mapping[str, int]
    fault_space: frozenset
    #: What building this cost; a search handed it for free still
    #: reports this (Tables 4 and 8).
    build_seconds: float

    def observables(self, adjustment: int = 1, recorder=None) -> ObservableSet:
        """A fresh observable set at its initial priorities — the one
        piece of prepared state feedback writes to."""
        observables = ObservableSet(
            self.comparator, self.failure_log, adjustment=adjustment,
            known_template_ids=self.template_ids, recorder=recorder,
        )
        observables.seed(self.initial)
        return observables


def prepared_case(
    model: SystemModel,
    workload,
    horizon: float,
    seed: int,
    failure_log: LogFile,
    params: Optional[SearchParams] = None,
    base_faults: tuple = (),
    pipeline: Optional[RunPipeline] = None,
) -> PreparedCase:
    """The prepared case for these inputs, built on first request.

    Of ``params`` it reads the fault dimensions alone.  ``pipeline`` makes
    the probe run.  A *traced* one's recorder must observe a real probe,
    so that search gets a private, unshared case.
    """
    fault_dims = (params or SearchParams()).resolve().fault_dims
    base_faults = tuple(base_faults)
    if pipeline is None:
        pipeline = RunPipeline(workload, horizon, seed)
    # The executor is part of the identity: a test double installed over
    # ``pipeline.execute_workload`` neither sees nor leaves real cases.
    key = (
        workload, float(horizon), int(seed), failure_log, fault_dims,
        base_faults, _pipeline.execute_workload,
    )
    try:
        hash(key)
    except TypeError:  # an unhashable workload callable cannot be a key
        key = None
    if key is None or pipeline.traced:
        return _build(model, failure_log, fault_dims, base_faults, pipeline)
    cases = model.memo(PreparedCase, dict)
    if key not in cases:
        if len(cases) >= CASES_PER_MODEL:
            cases.clear()
        cases[key] = _build(model, failure_log, fault_dims, base_faults, pipeline)
    return cases[key]


def _build(model, failure_log, fault_dims, base_faults, pipeline) -> PreparedCase:
    started = time.perf_counter()
    matcher = model.template_matcher()
    comparator = PreparedComparator(LogComparator(matcher), failure_log)
    # The probe includes any fixed base faults: in the iterative
    # multi-fault workflow they are part of the workload now, so their
    # log footprint must not be re-chased as "missing" observables.
    normal_run = pipeline.run(
        pipeline.seed,
        InjectionPlan.of([], always=base_faults) if base_faults else None,
    )
    initial = comparator.compare(normal_run.log)
    template_ids = frozenset(t.template_id for t in matcher.templates)
    graph = CausalGraphBuilder(model, fault_dims=fault_dims).build(
        {o.key for o in initial.failure_only if o.key in template_ids}
    )
    candidates = tuple(
        filter_candidates_by_dims(graph_fault_candidates(graph), fault_dims)
    )
    occurrences = normal_run.site_counts
    return PreparedCase(
        failure_log=failure_log,
        normal_run=normal_run,
        comparator=comparator,
        initial=initial,
        template_ids=template_ids,
        graph=graph,
        index=DistanceIndex(graph),
        candidates=candidates,
        timeline=TimelineMap(
            initial.matched, len(normal_run.log), len(failure_log)
        ),
        occurrences=types.MappingProxyType(occurrences),
        fault_space=enumerate_fault_space(candidates, occurrences),
        build_seconds=time.perf_counter() - started,
    )


@dataclasses.dataclass
class SearchContext:
    """One search's state: the shared case plus what this search alone
    writes to.  ANDURIL's policy and every baseline strategy prepare
    from it, and :func:`~repro.core.search.search` runs on it."""

    prepared: PreparedCase
    model: SystemModel
    #: The search's parameters, fault dimensions resolved.
    params: SearchParams
    #: Every run of this search goes through here (DESIGN §5.3).
    pipeline: RunPipeline
    #: Fresh, at ``params.adjustment``: what feedback writes to.
    observables: ObservableSet
    #: Over the case's fault space, capped and pruned as ``params`` say.
    coverage: CoverageTracker
    #: Faults armed in every run, the probe's included: the iterative
    #: multi-fault workflow fixes already-found faults here.
    base_faults: tuple = ()
    recorder: object = NULL_RECORDER
    #: The flow pass, built for ``prune="static"`` alone.
    flow_graph: Optional[PropagationGraph] = None
    #: The shared case at its recorded build time plus this search's own
    #: set-up, whether it built the case or was handed it (Tables 4/8).
    prepare_seconds: float = 0.0

    def occurrences_of(self, site_id: str) -> range:
        """The site's probe occurrences, 1 … n (empty if it never ran)."""
        return range(1, self.prepared.occurrences.get(site_id, 0) + 1)


def build_context(
    model: SystemModel,
    workload,
    horizon: float,
    seed: int,
    failure_log: LogFile,
    params: Optional[SearchParams] = None,
    *,
    base_faults: tuple = (),
    recorder=None,
) -> SearchContext:
    """The one search setup, ANDURIL's and every baseline's: the shared
    prepared case, a fresh observable set, and the coverage tracker.

    ``params`` leaves the fault dimensions to ``exceptions``; a
    ``recorder`` observes every run, so its search gets a private case.
    """
    params = (params or SearchParams()).resolve()
    recorder = NULL_RECORDER if recorder is None else recorder
    base_faults = tuple(base_faults)
    pipeline = RunPipeline(workload, horizon, seed, recorder=recorder)
    case = prepared_case(
        model, workload, horizon, seed, failure_log, params=params,
        base_faults=base_faults, pipeline=pipeline,
    )
    obtained = time.perf_counter()
    observables = case.observables(params.adjustment, recorder)
    # Every strategy's space comes from the same inputs (graph candidates
    # x probe occurrences), so coverage fractions compare.
    cap = params.max_instances_per_site
    space = case.fault_space if cap is None else enumerate_fault_space(
        case.candidates, case.occurrences, max_instances_per_site=cap
    )
    flow_graph = pruned_space = None
    if params.prune == "static":
        # Pruning is accounting-only: the flow pass feeds the coverage
        # tracker and nothing else.
        flow_graph = propagation_graph(model)
        pruner = StaticPruner(
            flow_graph, case.candidates, case.index, observables,
            case.timeline, case.normal_run.trace, params.prune_radius,
        )
        pruned_space = enumerate_fault_space(
            case.candidates, case.occurrences, max_instances_per_site=cap,
            pruner=pruner,
        )
    return SearchContext(
        prepared=case, model=model, params=params, pipeline=pipeline,
        observables=observables,
        coverage=CoverageTracker(space, pruned_space=pruned_space),
        base_faults=base_faults, recorder=recorder, flow_graph=flow_graph,
        prepare_seconds=case.build_seconds + time.perf_counter() - obtained,
    )
