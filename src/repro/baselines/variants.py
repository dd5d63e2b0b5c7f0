"""ANDURIL ablation variants (§8.3, the non-"Full Feedback" columns).

Each variant removes or replaces one ingredient of the full design:

* ``ExhaustiveInstances``   — causal-graph pruning only; try every
  instance of every inferred fault site in static order.
* ``DistanceOnly``          — site priority is the graph distance
  ``L_{i,k}`` alone (no feedback); all instances per site, depth-first.
* ``DistanceInstanceLimit`` — same, but only the first 3 instances of
  each site.
* ``SiteFeedback``          — adds the observable feedback ``I_k`` but no
  instance (temporal) priorities; 3-instance limit.
* ``MultiplyFeedback``      — uses both priorities but combines them as
  ``F_i × F_{i,j}`` into one rank instead of the two-level scheme.

A variant says what to offer (``next_window``) and what to learn
(``observe``); never re-offering what was tried is the base class's
``tried`` set, which the two feedback variants' rankings also read.
"""

from __future__ import annotations

from typing import Optional

from ..core.alignment import temporal_distance
from ..injection.sites import FaultInstance
from ..sim.cluster import RunResult
from .base import SearchContext, Strategy

INSTANCE_LIMIT = 3
WINDOW = 10
INFINITY = float("inf")


def _instances(context: SearchContext, site_id: str, limit: Optional[int] = None):
    """Occurrence numbers of a site in the probe run (1 if never seen)."""
    return (context.occurrences_of(site_id) or [1])[:limit]


class _StaticOrderStrategy(Strategy):
    """Base for variants whose exploration order is fixed up front."""

    def prepare(self, context: SearchContext) -> None:
        super().prepare(context)
        self._queue = self.build_queue(context)
        self._cursor = 0

    def build_queue(self, context: SearchContext) -> list[FaultInstance]:
        raise NotImplementedError

    def next_window(self) -> list[FaultInstance]:
        window = self._queue[self._cursor:self._cursor + WINDOW]
        return window

    def observe(self, result: RunResult, injected, satisfied: bool) -> None:
        if injected is not None:
            self._queue = [
                instance
                for instance in self._queue
                if not (
                    instance.site_id == injected.site_id
                    and instance.exception == injected.exception
                    and instance.occurrence == injected.occurrence
                )
            ]
        else:
            self._queue = self._queue[WINDOW:]


class ExhaustiveInstances(_StaticOrderStrategy):
    """All instances of all causal-graph fault sites, in static order."""

    name = "exhaustive"

    def build_queue(self, context: SearchContext) -> list[FaultInstance]:
        queue: list[FaultInstance] = []
        for info in context.prepared.candidates:
            for occurrence in _instances(context, info.site_id):
                queue.append(
                    FaultInstance(info.site_id, info.exception, occurrence)
                )
        return queue


class DistanceOnly(_StaticOrderStrategy):
    """Sites by static distance only; every instance, depth-first."""

    name = "fault-site-distance"
    instance_limit: Optional[int] = None

    def build_queue(self, context: SearchContext) -> list[FaultInstance]:
        ranked = []
        for info in context.prepared.candidates:
            reachable = context.prepared.index.observables_reachable_from(info.node_id)
            relevant = [
                distance
                for key, distance in reachable.items()
                if context.observables.get(key) is not None
            ]
            if not relevant:
                continue
            ranked.append((min(relevant), info))
        ranked.sort(key=lambda pair: (pair[0], pair[1].site_id, pair[1].exception))
        queue: list[FaultInstance] = []
        for _distance, info in ranked:
            for occurrence in _instances(context, info.site_id, self.instance_limit):
                queue.append(
                    FaultInstance(info.site_id, info.exception, occurrence)
                )
        return queue


class DistanceInstanceLimit(DistanceOnly):
    """Distance-only with the first 3 instances of each site."""

    name = "fault-site-distance-limit"
    instance_limit = INSTANCE_LIMIT


class SiteFeedback(Strategy):
    """Observable feedback on sites, but no instance priorities."""

    name = "fault-site-feedback"

    def _site_priority(self, info) -> float:
        reachable = self.context.prepared.index.observables_reachable_from(info.node_id)
        best = INFINITY
        for key, distance in reachable.items():
            observable = self.context.observables.get(key)
            if observable is None:
                continue
            best = min(best, distance + observable.priority)
        return best

    def next_window(self) -> list[FaultInstance]:
        entries = []
        for info in self.context.prepared.candidates:
            priority = self._site_priority(info)
            if priority == INFINITY:
                continue
            for occurrence in _instances(
                self.context, info.site_id, INSTANCE_LIMIT
            ):
                key = (info.site_id, info.exception, occurrence)
                if key not in self.tried:
                    entries.append(
                        (
                            priority,
                            info.site_id,
                            info.exception,
                            occurrence,
                        )
                    )
                    break  # one untried instance per site per round
        entries.sort()
        return [
            FaultInstance(site_id, exception, occurrence)
            for _priority, site_id, exception, occurrence in entries[:WINDOW]
        ]

    def observe(self, result: RunResult, injected, satisfied: bool) -> None:
        if injected is not None and not satisfied:
            self.context.observables.apply_feedback(result.log)


class MultiplyFeedback(Strategy):
    """Full feedback, but F_i × F_{i,j} instead of the two-level scheme."""

    name = "multiply-feedback"

    def next_window(self) -> list[FaultInstance]:
        observables, case = self.context.observables, self.context.prepared
        trace = case.normal_run.trace
        entries = []
        for info in case.candidates:
            reachable = case.index.observables_reachable_from(info.node_id)
            best = INFINITY
            best_key = ""
            for key, distance in sorted(reachable.items()):
                observable = observables.get(key)
                if observable is None:
                    continue
                value = distance + observable.priority
                if value < best:
                    best, best_key = value, key
            if best == INFINITY:
                continue
            positions = observables.positions(best_key)
            for occurrence, request in enumerate(
                trace.positions(info.site_id), start=1
            ):
                key = (info.site_id, info.exception, occurrence)
                if key in self.tried:
                    continue
                temporal = temporal_distance(
                    case.timeline.to_failure(trace.log_indices[request]),
                    positions,
                )
                # The ablated combination: one flat rank per instance.
                combined = best * (1.0 + temporal)
                entries.append(
                    (combined, info.site_id, info.exception, occurrence)
                )
        entries.sort()
        return [
            FaultInstance(site_id, exception, occurrence)
            for _rank, site_id, exception, occurrence in entries[:WINDOW]
        ]

    def observe(self, result: RunResult, injected, satisfied: bool) -> None:
        if injected is not None and not satisfied:
            self.context.observables.apply_feedback(result.log)
