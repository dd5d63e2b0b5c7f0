"""Static fault-space pruning (the flow pass's coverage consumer).

PR 4's coverage accounting showed the enumerated fault space dwarfs what
a guided search ever touches (f17: 107 of 2020 triples planned).  Most of
that gap is static: a ``(site, exception, occurrence)`` triple whose
propagation path can neither reach an observable nor perturb one in time
cannot contribute to reproducing *this* failure.  :class:`StaticPruner`
drops those triples from the *accounting* space.  Two criteria are
AND-ed; a triple survives when both hold:

1. **Pair liveness** (case-independent): the
   :class:`~repro.analysis.flow.PropagationGraph` says the pair can
   reach a log statement, crash a task, or mutate a variable some branch
   condition reads (:meth:`PropagationGraph.pair_live`).
2. **Temporal reachability** (case-specific): the occurrence's probe-run
   log index lies within ``radius`` log messages of some relevant
   observable the site can statically cause.  Observable positions live
   on the failure-log axis, so they are inverse-mapped through
   :meth:`~repro.core.alignment.TimelineMap.to_normal` first — the
   forward map's virtual end anchor compresses long normal tails, which
   would flatten the radius if measured on the failure axis.

Everything unknown is kept: speculative occurrences (the probe never
executed the site, so there is no timestamp), pairs the graph does not
catalog, and pairs with no reachable relevant observables.  Pruning is
deliberately **accounting-only**: the Explorer still arms every triple,
so ``(seed, plan)`` determinism and exploration signatures are untouched
whether pruning is on or off.  The safety net for the static claim is
dynamic: :class:`~repro.obs.coverage.CoverageTracker` records any fired
triple the pruner called dead as a *contradiction*, and the test suite
fails hard on a non-zero count.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from ..analysis.flow import PropagationGraph
from ..injection.fir import ProbeTrace
from ..injection.sites import is_corruption_spec
from .params import DEFAULT_RADIUS, SearchParams


class StaticPruner:
    """Decides, per triple, whether the flow pass can rule it out."""

    def __init__(
        self,
        graph: PropagationGraph,
        candidates: Iterable,
        index,
        observables,
        timeline,
        trace: ProbeTrace,
        radius: float = DEFAULT_RADIUS,
    ) -> None:
        # A radius is range-checked in one place, as a search parameter.
        self._radius = SearchParams(prune_radius=radius).prune_radius
        self._dead_pairs = graph.dead_pairs()
        # Per (site, exception): normal-axis positions of every relevant
        # observable the causal graph says the candidate can reach.
        self._pair_positions: dict[tuple[str, str], tuple[float, ...]] = {}
        for candidate in candidates:
            reachable = index.observables_reachable_from(candidate.node_id)
            positions: list[float] = []
            for key in reachable:
                if observables.get(key) is None:
                    continue
                positions.extend(
                    timeline.to_normal(position)
                    for position in observables.positions(key)
                )
            self._pair_positions[(candidate.site_id, candidate.exception)] = tuple(
                positions
            )
        self._trace = trace

    @property
    def radius(self) -> float:
        return self._radius

    def live(self, site_id: str, exception: str, occurrence: int) -> bool:
        """False only when *both* static criteria rule the triple out."""
        if is_corruption_spec(exception):
            # The flow pass reasons about exception propagation only; it
            # has nothing to say about a poisoned return value, so a
            # corruption spec is never pair-dead.  The temporal criterion
            # below still applies (it needs only probe timestamps and
            # causal-graph reachability, both dimension-agnostic).
            pass
        elif (site_id, exception) in self._dead_pairs:
            return False
        ordinal = self._trace.ordinal(site_id, occurrence)
        if ordinal is None:
            # Speculative occurrence — no probe timestamp to reason from.
            return True
        positions = self._pair_positions.get((site_id, exception))
        if not positions:
            # Unknown pair, or no reachable relevant observable: keep.
            return True
        log_index = self._trace.log_indices[ordinal - 1]
        return min(
            abs(log_index - position) for position in positions
        ) <= self._radius

    def prune(self, space: Iterable[tuple[str, str, int]]) -> frozenset:
        """The subset of ``space`` the static analysis keeps."""
        return frozenset(
            triple for triple in space if self.live(*triple)
        )


def pruner_from_prepared(
    graph: PropagationGraph, context, radius: float = DEFAULT_RADIUS
) -> StaticPruner:
    """Build a pruner over a :class:`~repro.core.prepared.SearchContext`."""
    from ..analysis.model import graph_fault_candidates

    case = context.prepared
    return StaticPruner(
        graph=graph,
        candidates=graph_fault_candidates(case.graph),
        index=case.index,
        observables=context.observables,
        timeline=case.timeline,
        trace=case.normal_run.trace,
        radius=radius,
    )
