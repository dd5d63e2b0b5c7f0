"""Per-thread log comparison (§5.1.1).

A standard diff fails on distributed system logs: timestamps make every
line unique, and concurrency interleaves messages differently across runs.
ANDURIL therefore (1) groups messages by thread, (2) sanitizes entries,
and (3) runs the Myers algorithm per thread.  Threads present only in the
failure log contribute *all* of their messages as relevant observables.
"""

from __future__ import annotations

import dataclasses
import functools
import re
from typing import Optional

from . import myers
from .record import LogFile, LogRecord
from .sanitize import TemplateMatcher, canonicalize

_THREAD_ID = re.compile(r"\d+")


@functools.lru_cache(maxsize=4096)
def sanitize_thread_name(name: str) -> str:
    """Strip per-run numeric ids from a thread name.

    ``"RS-Worker-3"`` and ``"RS-Worker-7"`` denote the same logical thread
    role; developers name threads by role plus an instance counter, and the
    counter can differ across runs.  Instance counters are preserved only
    when small (< 100), because small counters are usually stable role
    indices (e.g. ``"follower-1"``), while large ones are per-run ids.

    Cached: the distinct thread-name population is tiny while the call
    rate is one per record per comparison side per round.
    """

    def replace(match: re.Match[str]) -> str:
        return match.group(0) if int(match.group(0)) < 100 else "<id>"

    return _THREAD_ID.sub(replace, name)


@dataclasses.dataclass(frozen=True)
class Occurrence:
    """One failure-log record identified as a relevant observable."""

    key: str            # template id or canonical message
    thread: str         # sanitized thread name
    failure_index: int  # global index in the failure log
    record: LogRecord


@dataclasses.dataclass
class CompareResult:
    """Result of comparing a (normal) run log against the failure log."""

    #: Observable keys present in the failure log but absent from the run
    #: log (per-thread); this is ``COMPARE(log, f_log)`` in Algorithm 2.
    failure_only: list[Occurrence]
    #: Matched entries as (run-log global index, failure-log global index);
    #: the anchor points used by timeline alignment (§5.2.3).
    matched: list[tuple[int, int]]

    def failure_only_keys(self) -> set[str]:
        return {occ.key for occ in self.failure_only}


class LogComparator:
    """Per-thread Myers comparison between a run log and the failure log."""

    def __init__(self, matcher: Optional[TemplateMatcher] = None) -> None:
        self._matcher = matcher or TemplateMatcher()

    def compare(self, run_log: LogFile, failure_log: LogFile) -> CompareResult:
        """Find failure-log-only messages and matched anchors.

        Both directions of Algorithm 2 are served by this one call: the
        initial relevant observables come from comparing the fault-free
        normal log against the failure log, and each round's feedback comes
        from comparing that round's log against the same failure log.
        """
        run_groups = self._group(run_log)
        failure_groups = self._group(failure_log)

        failure_only: list[Occurrence] = []
        matched: list[tuple[int, int]] = []

        for thread, failure_entries in failure_groups.items():
            run_entries = run_groups.get(thread, [])
            failure_keys = [key for key, _index in failure_entries]
            if not run_entries:
                # Thread absent from the run log: every message is relevant.
                for key, index in failure_entries:
                    failure_only.append(
                        Occurrence(key, thread, index, failure_log[index])
                    )
                continue
            run_keys = [key for key, _index in run_entries]
            for edit in myers.diff(run_keys, failure_keys):
                if edit.op is myers.Op.INSERT:
                    key, index = failure_entries[edit.right_index]
                    failure_only.append(
                        Occurrence(key, thread, index, failure_log[index])
                    )
                elif edit.op is myers.Op.KEEP:
                    matched.append(
                        (
                            run_entries[edit.left_index][1],
                            failure_entries[edit.right_index][1],
                        )
                    )

        failure_only.sort(key=lambda occ: occ.failure_index)
        matched.sort(key=lambda pair: pair[1])
        return CompareResult(failure_only=failure_only, matched=matched)

    def _group(self, log: LogFile) -> dict[str, list[tuple[str, int]]]:
        """Group (key, global index) pairs by sanitized thread, reading
        the log's thread and message columns."""
        groups: dict[str, list[tuple[str, int]]] = {}
        key_for = self._matcher.key_for
        for index, (thread, message) in enumerate(
            zip(log.thread_names, log.texts)
        ):
            groups.setdefault(sanitize_thread_name(thread), []).append(
                (key_for(message), index)
            )
        return groups


class PreparedComparator:
    """Incremental per-thread comparison against one fixed failure log.

    Every round of the search diffs a fresh run log against the *same*
    failure log.  :class:`LogComparator` re-groups and re-keys that fixed
    side on every call and Myers-diffs template-key *strings*; this class
    does the per-case work once and the per-round work incrementally:

    * the failure log is grouped, keyed, and sorted exactly once;
    * template keys are interned to integer ids, so the Myers inner loop
      compares ints (interning preserves equality, so edit scripts are
      identical to the string-keyed ones);
    * per-thread edit scripts are memoized on the thread's run-side key
      sequence — most threads log identically round to round, so their
      diffs are dictionary lookups after the first round.

    ``compare(run_log)`` returns a :class:`CompareResult` equal to
    ``LogComparator.compare(run_log, failure_log)`` (equivalence is
    pinned by tests), so :class:`~repro.core.observables.ObservableSet`
    can swap it in without changing any downstream behavior.
    """

    #: Memo-table bound: ~rounds x threads entries of small tuples; the
    #: cap only matters for pathological million-round searches.
    MEMO_LIMIT = 65536

    def __init__(
        self, comparator: LogComparator, failure_log: LogFile
    ) -> None:
        self._comparator = comparator
        #: The failure log's rows, built once: what an occurrence carries.
        self._failure_records = failure_log.records
        self._intern: dict[str, int] = {}
        #: thread -> (interned key ids, (key, global index) pairs), in
        #: failure-log first-appearance order (LogComparator's order).
        self._failure: dict[str, tuple[tuple[int, ...], list]] = {}
        for thread, entries in comparator._group(failure_log).items():
            ids = tuple(self._id(key) for key, _index in entries)
            self._failure[thread] = (ids, entries)
        #: (thread, run-side id sequence) -> (INSERT right-locals,
        #: KEEP (left-local, right-local) pairs).
        self._memo: dict[tuple[str, tuple[int, ...]], tuple] = {}

    def _id(self, key: str) -> int:
        interned = self._intern.get(key)
        if interned is None:
            interned = len(self._intern)
            self._intern[key] = interned
        return interned

    def compare(self, run_log: LogFile) -> CompareResult:
        """``COMPARE(run_log, failure_log)`` — see :meth:`LogComparator.compare`."""
        run_groups = self._comparator._group(run_log)
        records = self._failure_records
        failure_only: list[Occurrence] = []
        matched: list[tuple[int, int]] = []

        for thread, (failure_ids, failure_entries) in self._failure.items():
            run_entries = run_groups.get(thread)
            if not run_entries:
                for key, index in failure_entries:
                    failure_only.append(
                        Occurrence(key, thread, index, records[index])
                    )
                continue
            run_ids = tuple(self._id(key) for key, _index in run_entries)
            memo_key = (thread, run_ids)
            script = self._memo.get(memo_key)
            if script is None:
                inserts: list[int] = []
                keeps: list[tuple[int, int]] = []
                for edit in myers.diff(run_ids, failure_ids):
                    if edit.op is myers.Op.INSERT:
                        inserts.append(edit.right_index)
                    elif edit.op is myers.Op.KEEP:
                        keeps.append((edit.left_index, edit.right_index))
                script = (tuple(inserts), tuple(keeps))
                if len(self._memo) >= self.MEMO_LIMIT:
                    self._memo.clear()
                self._memo[memo_key] = script
            inserts, keeps = script
            for right in inserts:
                key, index = failure_entries[right]
                failure_only.append(
                    Occurrence(key, thread, index, records[index])
                )
            for left, right in keeps:
                matched.append(
                    (run_entries[left][1], failure_entries[right][1])
                )

        failure_only.sort(key=lambda occ: occ.failure_index)
        matched.sort(key=lambda pair: pair[1])
        return CompareResult(failure_only=failure_only, matched=matched)


def quick_canonical_diff(run_log: LogFile, failure_log: LogFile) -> set[str]:
    """Convenience: failure-only canonical messages without templates.

    Used by tests and by baselines that do not build a causal graph (and
    therefore have no template set).
    """
    comparator = LogComparator(TemplateMatcher())
    result = comparator.compare(run_log, failure_log)
    return {canonicalize(occ.record.message) for occ in result.failure_only}
