"""Two-level fault priorities and the flexible window (§5.2.2–§5.2.5).

Level one ranks *fault sites*: ``F_i = min_k (L_{i,k} + I_k)`` over the
observables the site can reach in the causal graph — spatial distance
plus observable feedback, combined with ``min`` so one injection maximizes
the chance of triggering at least one observable.

Level two ranks *instances of a site* by temporal distance ``T_{i,j,k*}``
to the observable ``k*`` chosen at level one: the j-th occurrence whose
mapped failure-timeline position is closest to the observable goes first.

Each site offers its best untried instance; sites are explored in
priority order with a tried-count tie-break (the HB-16144 lesson: when
priorities tie, spread across sites instead of exhausting one site's
instances).  The flexible window takes the top-k such entries; the
Explorer's ``FeedbackPolicy`` doubles k whenever a round injects nothing.
"""

from __future__ import annotations

import dataclasses
from typing import Optional

from ..analysis.causal import DistanceIndex
from ..analysis.model import SourceInfo
from ..injection.fir import ProbeTrace
from ..injection.sites import FaultInstance
from .alignment import TimelineMap, temporal_distance
from .observables import ObservableSet
from .params import SearchParams

INFINITY = float("inf")


@dataclasses.dataclass
class InstanceEntry:
    occurrence: int
    mapped_position: Optional[float]   # failure-timeline position, None if unseen

    def temporal(self, observable_positions: list[int]) -> float:
        if self.mapped_position is None:
            return INFINITY
        return temporal_distance(self.mapped_position, observable_positions)


@dataclasses.dataclass
class CandidateState:
    info: SourceInfo
    reachable: dict[str, int]              # template id -> L_{i,k}
    instances: list[InstanceEntry]
    tried: set[int] = dataclasses.field(default_factory=set)

    @property
    def site_id(self) -> str:
        return self.info.site_id

    @property
    def exception(self) -> str:
        return self.info.exception

    def untried(self) -> list[InstanceEntry]:
        return [
            entry for entry in self.instances if entry.occurrence not in self.tried
        ]


@dataclasses.dataclass(frozen=True)
class WindowEntry:
    """One pool entry offered to a round's injection window."""

    instance: FaultInstance
    site_priority: float
    temporal: float
    chosen_observable: str


class FaultPriorityPool:
    """Priority state over all fault candidates of one search."""

    def __init__(
        self,
        candidates: list[SourceInfo],
        index: DistanceIndex,
        observables: ObservableSet,
        trace: ProbeTrace,
        timeline: TimelineMap,
        params: Optional[SearchParams] = None,
    ) -> None:
        #: The search's parameters: the instance cap, the F_i aggregate
        #: (§5.2.4: the paper's ``min`` maximizes the chance to trigger one
        #: observable per run; ``sum`` tries for all, less sensitive to
        #: feedback) and T's mode (§5.2.3: the paper's log ``messages``
        #: between instance and observable; occurrence ``order``
        #: over-penalizes early instances of frequently executed sites).
        self._params = params = params or SearchParams()
        self._observables = observables
        self._index = index
        log_indices = trace.log_indices

        self._candidates: list[CandidateState] = []
        for info in candidates:
            reachable = index.observables_reachable_from(info.node_id)
            # Only observables that are currently relevant matter.
            reachable = {
                key: distance
                for key, distance in reachable.items()
                if observables.get(key) is not None
            }
            if not reachable:
                continue
            # The site's probe requests: occurrence -> log position.
            instances = [
                InstanceEntry(
                    occurrence=occurrence,
                    mapped_position=timeline.to_failure(log_indices[position]),
                )
                for occurrence, position in enumerate(
                    trace.positions(info.site_id), start=1
                )
            ]
            if not instances:
                # The workload did not exercise the site in the probe run;
                # keep one speculative first-occurrence instance at the
                # lowest priority so nondeterministic executions still get
                # a chance.
                instances = [InstanceEntry(occurrence=1, mapped_position=None)]
            if params.max_instances_per_site is not None:
                instances = instances[: params.max_instances_per_site]
            self._candidates.append(
                CandidateState(info=info, reachable=reachable, instances=instances)
            )

        # Exact-match index for mark_tried: a fired instance identifies
        # its candidate by (site_id, exception), so there is no need to
        # scan every candidate per fired instance.
        self._candidates_by_key: dict[tuple[str, str], list[CandidateState]] = {}
        for candidate in self._candidates:
            self._candidates_by_key.setdefault(
                (candidate.site_id, candidate.exception), []
            ).append(candidate)

        # site_ranking() cache: site priorities depend only on observable
        # priorities and static distances, so the ranking is recomputed
        # only when the observable set's version moves — not on every
        # per-round rank_of_site query.
        self._ranking_version: Optional[int] = None
        self._ranking: list[str] = []
        self._rank_by_site: dict[str, int] = {}

    # ------------------------------------------------------------------ sizing

    @property
    def candidate_count(self) -> int:
        return len(self._candidates)

    def remaining_instances(self) -> int:
        return sum(len(candidate.untried()) for candidate in self._candidates)

    # -------------------------------------------------------------- priorities

    def site_priority(self, candidate: CandidateState) -> tuple[float, str]:
        """(F_i, chosen observable k*) for a candidate.

        With ``min`` aggregation F_i is the best single observable term;
        with ``sum`` it is the total over all reachable observables (the
        §5.2.4 alternative).  The chosen observable k* is the argmin term
        in both modes — instance selection still targets one observable.
        """
        best = INFINITY
        best_key = ""
        total = 0.0
        for key, distance in sorted(candidate.reachable.items()):
            value = distance + self._observables.priority(key)
            total += value
            if value < best:
                best = value
                best_key = key
        if self._params.aggregate == "sum":
            return total, best_key
        return best, best_key

    def ranked_entries(self) -> list[WindowEntry]:
        """All candidates' best untried instances in exploration order."""
        entries: list[tuple[tuple, WindowEntry]] = []
        by_order = self._params.temporal_mode == "order"
        for candidate in self._candidates:
            untried = candidate.untried()
            if not untried:
                continue
            site_priority, chosen = self.site_priority(candidate)
            positions = self._observables.positions(chosen)
            if by_order:
                # §5.2.3 alternative: rank instances by occurrence order
                # alone; earliest untried first, T = occurrence index.
                best_instance = min(untried, key=lambda entry: entry.occurrence)
                temporal = float(best_instance.occurrence)
            else:
                best_instance = min(
                    untried,
                    key=lambda entry: (entry.temporal(positions), entry.occurrence),
                )
                temporal = best_instance.temporal(positions)
            entry = WindowEntry(
                instance=FaultInstance(
                    site_id=candidate.site_id,
                    spec=candidate.exception,
                    occurrence=best_instance.occurrence,
                ),
                site_priority=site_priority,
                temporal=temporal,
                chosen_observable=chosen,
            )
            sort_key = (
                site_priority,
                len(candidate.tried),     # tie-break: spread across sites
                temporal,
                candidate.site_id,
                candidate.exception,
            )
            entries.append((sort_key, entry))
        entries.sort(key=lambda pair: pair[0])
        return [entry for _key, entry in entries]

    def window(self, size: int) -> list[WindowEntry]:
        return self.ranked_entries()[: max(size, 0)]

    def mark_tried(self, instance: FaultInstance) -> None:
        for candidate in self._candidates_by_key.get(
            (instance.site_id, instance.exception), ()
        ):
            candidate.tried.add(instance.occurrence)

    # ------------------------------------------------------------------- ranks

    def site_ranking(self) -> list[str]:
        """Distinct site ids ordered by their best candidate priority.

        The result is cached against the observable set's version and
        must not be mutated by callers.  Anything that changes priorities
        outside :meth:`ObservableSet.adjust` (tests poking ``priority``
        directly) must call :meth:`invalidate_ranking`.
        """
        version = self._observables.version
        if version != self._ranking_version:
            self._ranking = self._compute_site_ranking()
            self._rank_by_site = {
                site_id: position + 1
                for position, site_id in enumerate(self._ranking)
            }
            self._ranking_version = version
        return self._ranking

    def invalidate_ranking(self) -> None:
        """Drop the cached site ranking (next query recomputes it)."""
        self._ranking_version = None

    def _compute_site_ranking(self) -> list[str]:
        best_by_site: dict[str, float] = {}
        for candidate in self._candidates:
            priority, _ = self.site_priority(candidate)
            current = best_by_site.get(candidate.site_id, INFINITY)
            if priority < current:
                best_by_site[candidate.site_id] = priority
        ordered = sorted(best_by_site.items(), key=lambda item: (item[1], item[0]))
        return [site_id for site_id, _priority in ordered]

    def rank_of_site(self, site_id: str) -> Optional[int]:
        """1-based rank of a site in the current ordering (Figure 6)."""
        self.site_ranking()
        return self._rank_by_site.get(site_id)
