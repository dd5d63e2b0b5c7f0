"""Fault-space coverage accounting for one search (campaign observability).

The paper's efficiency claim — "feedback prunes the fault space" — is a
statement about how much of the *injectable fault space* a strategy has
to touch before it reproduces the failure.  This module makes that
measurable:

* :func:`enumerate_fault_space` builds the full space for one case as the
  set of ``(site_id, exception, occurrence)`` triples: every injectable
  candidate from the causal graph (site × exception, the catalog rooted
  in :mod:`repro.injection.sites`) crossed with the occurrence window the
  fault-free probe run observed for that site.  ANDURIL and every
  baseline strategy enumerate the same space from the same inputs, so
  their coverage fractions are directly comparable.
* :class:`CoverageTracker` accounts, per round and cumulatively, which
  fraction of that space was **planned** (armed in some round's window),
  **fired** (actually injected), and **no-op'd** (armed in a round whose
  run injected nothing — under a fixed seed those instances never fire).

Every search accounts its coverage: :func:`repro.core.search.search`
takes a tracker.  All recorded quantities derive from the search path
only (window contents and the injected instance), so the accounting
never moves the search and is byte-identical under every runner knob.
"""

from __future__ import annotations

import dataclasses
from typing import Iterable, Mapping, Optional

#: One point of the fault space: (site_id, exception, occurrence).
Triple = tuple[str, str, int]


def enumerate_fault_space(
    candidates: Iterable,
    occurrences_by_site: Mapping[str, int],
    max_instances_per_site: Optional[int] = None,
    pruner=None,
) -> frozenset[Triple]:
    """The full injectable fault space for one case.

    ``candidates`` is any iterable of objects with ``site_id`` and
    ``exception`` attributes (e.g. :class:`repro.analysis.model.SourceInfo`
    from ``graph_fault_candidates``).  ``occurrences_by_site`` maps a site
    to the number of times the fault-free probe executed it; a site the
    probe never exercised still contributes one speculative first
    occurrence, mirroring the priority pool's construction.

    A ``pruner`` — an object with a ``live(site_id, exception,
    occurrence)`` predicate (see :class:`repro.core.pruning.StaticPruner`)
    — filters the space, dropping the triples the flow pass rules out.
    Pruning changes the *accounting* space only; strategies still arm
    whatever they like, and a fired triple outside the pruned space is
    recorded as a contradiction by :class:`CoverageTracker`.
    """
    space: set[Triple] = set()
    for candidate in candidates:
        count = max(int(occurrences_by_site.get(candidate.site_id, 0)), 1)
        if max_instances_per_site is not None:
            count = min(count, max_instances_per_site)
        for occurrence in range(1, count + 1):
            triple = (candidate.site_id, candidate.exception, occurrence)
            if pruner is not None and not pruner.live(*triple):
                continue
            space.add(triple)
    return frozenset(space)


@dataclasses.dataclass(frozen=True)
class RoundCoverage:
    """Cumulative coverage right after one round committed."""

    round_number: int
    planned_new: int      # instances first armed this round
    planned: int          # cumulative distinct instances ever armed
    fired: int            # cumulative distinct instances injected
    noop: int             # cumulative distinct instances armed in dry rounds

    def as_list(self) -> list[int]:
        return [
            self.round_number,
            self.planned_new,
            self.planned,
            self.fired,
            self.noop,
        ]


@dataclasses.dataclass(frozen=True)
class CoverageSummary:
    """End-of-search coverage accounting over the full fault space."""

    space_size: int
    planned: int
    fired: int
    noop: int
    #: Instances a strategy armed that are outside the enumerated space
    #: (e.g. a baseline guessing occurrences the probe never observed).
    planned_outside: int
    rounds: tuple[RoundCoverage, ...]
    #: Static pruning accounting (``None`` unless the tracker was built
    #: with a pruned space): size of the space ``prune=static`` keeps.
    pruned_space_size: Optional[int] = None
    #: Fired triples the static analysis had called unreachable — the
    #: dynamic-contradiction check.  Non-empty means the pruning claim is
    #: wrong for this case, and the test suite fails hard on it.
    contradictions: tuple[Triple, ...] = ()

    @property
    def planned_fraction(self) -> float:
        return self.planned / self.space_size if self.space_size else 0.0

    @property
    def fired_fraction(self) -> float:
        return self.fired / self.space_size if self.space_size else 0.0

    @property
    def noop_fraction(self) -> float:
        return self.noop / self.space_size if self.space_size else 0.0

    def to_dict(self) -> dict:
        """JSON shape persisted in ``bench_summary.json`` and the ledger.

        Fractions are rounded to six places so serialized documents are
        byte-stable; the raw integers carry the exact values.  The
        pruning keys appear only when the search ran with
        ``prune=static``, so documents from unpruned runs keep their
        historical shape.
        """
        document = {
            "space": self.space_size,
            "planned": self.planned,
            "fired": self.fired,
            "noop": self.noop,
            "planned_outside": self.planned_outside,
            "planned_fraction": round(self.planned_fraction, 6),
            "fired_fraction": round(self.fired_fraction, 6),
            "noop_fraction": round(self.noop_fraction, 6),
            "rounds": [entry.as_list() for entry in self.rounds],
        }
        if self.pruned_space_size is not None:
            document["pruned_space"] = self.pruned_space_size
            document["pruned"] = self.space_size - self.pruned_space_size
            document["pruned_fraction"] = round(
                (self.space_size - self.pruned_space_size) / self.space_size
                if self.space_size
                else 0.0,
                6,
            )
            document["contradictions"] = len(self.contradictions)
            if self.contradictions:
                document["contradiction_triples"] = [
                    list(triple) for triple in sorted(self.contradictions)
                ]
        return document


class CoverageTracker:
    """Accumulates planned/fired/no-op coverage over one search's rounds."""

    def __init__(
        self,
        space: Iterable[Triple],
        pruned_space: Optional[Iterable[Triple]] = None,
    ) -> None:
        self._space = frozenset(space)
        #: The subset ``prune=static`` kept, or ``None`` when pruning is
        #: off.  Must be a subset of ``space``; anything that fires from
        #: ``space - pruned_space`` is a contradiction of the static
        #: analysis and is recorded as such.
        self._pruned_space = (
            frozenset(pruned_space) if pruned_space is not None else None
        )
        if self._pruned_space is not None and not self._pruned_space <= self._space:
            raise ValueError("pruned_space must be a subset of space")
        self._planned: set[Triple] = set()
        self._fired: set[Triple] = set()
        self._noop: set[Triple] = set()
        self._outside: set[Triple] = set()
        self._contradictions: set[Triple] = set()
        self._rounds: list[RoundCoverage] = []

    @property
    def space_size(self) -> int:
        return len(self._space)

    def record_round(self, round_number: int, planned, fired) -> None:
        """Account one committed round.

        ``planned`` is the round's (deduplicated) injection window;
        ``fired`` is the instance the run injected, or ``None`` for a dry
        round.  Both are :class:`~repro.injection.sites.FaultInstance`-like.
        """
        armed: list[Triple] = []
        for instance in planned:
            triple = (instance.site_id, instance.exception, instance.occurrence)
            if triple in self._space:
                armed.append(triple)
            else:
                self._outside.add(triple)
        new = sum(1 for triple in armed if triple not in self._planned)
        self._planned.update(armed)
        if fired is not None:
            triple = (fired.site_id, fired.exception, fired.occurrence)
            # Out-of-space firings (a strategy guessing occurrences the
            # probe never observed) stay out of the fired set, so
            # fired ⊆ planned ⊆ space holds; they are already visible
            # through planned_outside.
            if triple in self._space:
                self._fired.add(triple)
                if (
                    self._pruned_space is not None
                    and triple not in self._pruned_space
                ):
                    self._contradictions.add(triple)
        else:
            self._noop.update(armed)
        self._rounds.append(
            RoundCoverage(
                round_number=round_number,
                planned_new=new,
                planned=len(self._planned),
                fired=len(self._fired),
                noop=len(self._noop),
            )
        )

    def summary(self) -> CoverageSummary:
        return CoverageSummary(
            space_size=len(self._space),
            planned=len(self._planned),
            fired=len(self._fired),
            noop=len(self._noop),
            planned_outside=len(self._outside),
            rounds=tuple(self._rounds),
            pruned_space_size=(
                len(self._pruned_space)
                if self._pruned_space is not None
                else None
            ),
            contradictions=tuple(sorted(self._contradictions)),
        )
