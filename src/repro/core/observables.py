"""Relevant observables and their feedback priorities (§5.1, Algorithm 2).

The initial relevant observables are the messages that appear only in the
failure log (per-thread diff against the fault-free normal log).  After
each unsuccessful injection, the observables the run *did* produce are
deprioritized: their priority value ``I_k`` is incremented by the
adjustment step ``s`` (smaller value = higher priority).  Missing
observables keep their priority, so the search keeps chasing them.
"""

from __future__ import annotations

import dataclasses
from typing import Optional

from ..logs.diff import CompareResult, LogComparator, PreparedComparator
from ..logs.record import LogFile
from ..obs import NULL_RECORDER


@dataclasses.dataclass
class Observable:
    """One relevant observable: a message key with feedback state."""

    key: str                        # template id (or canonical fallback)
    failure_positions: list[int]    # indices in the failure log
    priority: int = 0               # I_k; smaller = higher priority
    mapped: bool = False            # whether the key is a known log template


class ObservableSet:
    """Tracks relevant observables and applies the Algorithm 2 update."""

    def __init__(
        self,
        comparator: "LogComparator | PreparedComparator",
        failure_log: LogFile,
        adjustment: int = 1,
        known_template_ids: Optional[set[str]] = None,
        recorder=None,
    ) -> None:
        self._failure_log = failure_log
        #: The failure log is fixed for the life of this set, and every
        #: round diffs a fresh run log against it — the prepared
        #: comparator groups/interns that fixed side once and memoizes
        #: unchanged per-thread diffs across rounds.  A prepared case
        #: hands every set over it the same one (its memo is pure).
        self._prepared = (
            comparator
            if isinstance(comparator, PreparedComparator)
            else PreparedComparator(comparator, failure_log)
        )
        self._adjustment = adjustment
        self._known = known_template_ids or set()
        self._observables: dict[str, Observable] = {}
        #: Bumped on every priority adjustment; consumers (the priority
        #: pool's site-ranking cache) invalidate when it moves.
        self.version = 0
        self._recorder = recorder if recorder is not None else NULL_RECORDER

    # ----------------------------------------------------------------- set up

    def seed(self, result: CompareResult) -> CompareResult:
        """Take the initial observables from an already computed
        ``COMPARE(normal log, failure log)``; ``result`` is only read."""
        for occurrence in result.failure_only:
            observable = self._observables.get(occurrence.key)
            if observable is None:
                observable = Observable(
                    key=occurrence.key,
                    failure_positions=[],
                    mapped=occurrence.key in self._known,
                )
                self._observables[occurrence.key] = observable
            observable.failure_positions.append(occurrence.failure_index)
        return result

    # ------------------------------------------------------------------ query

    def __len__(self) -> int:
        return len(self._observables)

    def keys(self) -> set[str]:
        return set(self._observables)

    def mapped_keys(self) -> list[str]:
        """Observables that map to static log templates (graph sinks)."""
        return [
            observable.key
            for observable in self._observables.values()
            if observable.mapped
        ]

    def get(self, key: str) -> Optional[Observable]:
        return self._observables.get(key)

    def priority(self, key: str) -> int:
        observable = self._observables.get(key)
        return observable.priority if observable else 0

    def positions(self, key: str) -> list[int]:
        observable = self._observables.get(key)
        return observable.failure_positions if observable else []

    # --------------------------------------------------------------- feedback

    def adjust(self, key: str, delta: int) -> None:
        """Shift one observable's ``I_k`` by ``delta`` (the only mutation
        path — it bumps :attr:`version` and records the old/new values)."""
        observable = self._observables[key]
        old = observable.priority
        observable.priority = old + delta
        self.version += 1
        recorder = self._recorder
        if recorder.enabled:
            recorder.event(
                "observable.adjust",
                "feedback",
                key=key,
                old=old,
                new=observable.priority,
            )

    def apply_feedback(self, run_log: LogFile) -> set[str]:
        """Algorithm 2: deprioritize observables present in the failed run.

        Returns the set of keys that were *present* (and thus adjusted).
        The relevant-observable set itself never grows (§5.1.2: the
        initial set is a superset of every later round's set).
        """
        comparison = self._prepared.compare(run_log)
        missing = comparison.failure_only_keys()
        present = self.keys() - missing
        for key in sorted(present):
            self.adjust(key, self._adjustment)
        return present
