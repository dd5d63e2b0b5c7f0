"""Failure oracles (§2, input 4).

An oracle encapsulates the failure *symptoms*: a log message, a stuck
thread at a particular function (the jstack observation in the motivating
example), a crashed thread, or an external state predicate.  Reproduction
is defined with respect to the oracle: the failure is reproduced iff the
oracle is satisfied by a run.
"""

from __future__ import annotations

import re
from typing import Callable, Iterable

from ..sim.cluster import RunResult


class Oracle:
    """Base oracle; subclasses override :meth:`satisfied`."""

    description: str = "oracle"

    def satisfied(self, result: RunResult) -> bool:
        raise NotImplementedError

    def __and__(self, other: "Oracle") -> "Oracle":
        return AllOf([self, other])

    def __or__(self, other: "Oracle") -> "Oracle":
        return AnyOf([self, other])

    def __invert__(self) -> "Oracle":
        return Not(self)


class LogMessageOracle(Oracle):
    """Satisfied when some log message matches a regular expression."""

    def __init__(self, pattern: str, level: str | None = None) -> None:
        self._regex = re.compile(pattern)
        self._level = level
        self.description = f"log matches /{pattern}/"

    def satisfied(self, result: RunResult) -> bool:
        log, search = result.log, self._regex.search
        if self._level is None:
            return any(map(search, log.texts))
        return any(
            level.name == self._level and search(message)
            for level, message in zip(log.levels, log.texts)
        )


class StuckTaskOracle(Oracle):
    """Satisfied when a task is blocked with ``function`` on its stack.

    This is the "stack trace shows the log roller is stuck at
    waitForSafePoint" style of symptom.
    """

    def __init__(self, function: str, task_prefix: str = "") -> None:
        self._function = function
        self._task_prefix = task_prefix
        self.description = (
            f"task {task_prefix or '*'} stuck in {function}"
        )

    def satisfied(self, result: RunResult) -> bool:
        return result.stuck_in(self._function, self._task_prefix)


class CrashedTaskOracle(Oracle):
    """Satisfied when a task died of an unhandled ``error_type``."""

    def __init__(self, task_prefix: str = "", error_type: str = "") -> None:
        self._task_prefix = task_prefix
        self._error_type = error_type
        self.description = f"task {task_prefix or '*'} crashed ({error_type or 'any'})"

    def satisfied(self, result: RunResult) -> bool:
        for summary in result.crashed:
            if not summary.name.startswith(self._task_prefix):
                continue
            if self._error_type and summary.error_type != self._error_type:
                continue
            return True
        return False


class StatePredicateOracle(Oracle):
    """Satisfied when a predicate over the published system state holds.

    Used for external-state symptoms such as "the data file is corrupted"
    or "the keyspace was never created".
    """

    def __init__(
        self,
        predicate: Callable[[dict], bool],
        description: str = "state predicate",
    ) -> None:
        self._predicate = predicate
        self.description = description

    def satisfied(self, result: RunResult) -> bool:
        return bool(self._predicate(result.state))


class AllOf(Oracle):
    def __init__(self, oracles: Iterable[Oracle]) -> None:
        self._oracles = list(oracles)
        self.description = " AND ".join(o.description for o in self._oracles)

    def satisfied(self, result: RunResult) -> bool:
        return all(oracle.satisfied(result) for oracle in self._oracles)


class AnyOf(Oracle):
    def __init__(self, oracles: Iterable[Oracle]) -> None:
        self._oracles = list(oracles)
        self.description = " OR ".join(o.description for o in self._oracles)

    def satisfied(self, result: RunResult) -> bool:
        return any(oracle.satisfied(result) for oracle in self._oracles)


class Not(Oracle):
    def __init__(self, oracle: Oracle) -> None:
        self._oracle = oracle
        self.description = f"NOT ({oracle.description})"

    def satisfied(self, result: RunResult) -> bool:
        return not self._oracle.satisfied(result)
