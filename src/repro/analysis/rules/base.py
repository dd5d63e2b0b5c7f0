"""Shared infrastructure for the fault-handling lint rules.

A rule is a function from a :class:`LintContext` (the system model plus
the interprocedural exception analysis) to a list of :class:`Finding`
objects.  Rules register themselves with the :func:`rule` decorator; the
driver in :mod:`repro.analysis.lint` runs every registered rule (or a
selected subset) and aggregates the findings into a report.

The context carries the span queries every rule needs — "which facts lie
inside this handler body", "which env calls does this handler guard",
"which fault sites does this handler catch on any interprocedural path" —
so individual rules stay small and declarative.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Iterable, Optional, TypeVar

from ..ast_facts import (
    AssignFact,
    CallFact,
    EnvCallFact,
    HandlerFact,
    LogFact,
    RaiseFact,
    ReturnFact,
    TryFact,
)
from ..exceptions import (
    ExceptionAnalysis,
    KIND_ASYNC,
    KIND_CALL,
    KIND_EXTERNAL,
    ThrowPoint,
)
from ..system_model import SystemModel

#: Severity order, least to most severe.
SEVERITIES = ("info", "warning", "error")

#: Callee names whose invocation inside a handler escalates the fault
#: into a node/process shutdown (the abort-on-handled shape).
ABORT_CALLEES = frozenset(
    {"abort", "shutdown", "halt", "crash", "terminate", "exit", "fail"}
)

#: Callee names that are pure pacing, not recovery work.
BENIGN_CALLEES = frozenset({"sleep", "jitter"})

#: Catch types so wide they also trap typed simulator faults the code
#: never meant to handle.
BROAD_TYPES = frozenset({"Exception", "BaseException", "SimException"})

#: Log levels that signal the handler considers the fault fatal.
SEVERE_LOG_LEVELS = frozenset({"ERROR", "FATAL"})


def severity_rank(severity: str) -> int:
    return SEVERITIES.index(severity)


@dataclasses.dataclass(frozen=True)
class Finding:
    """One structured lint finding."""

    rule: str
    severity: str            # "info" | "warning" | "error"
    file: str
    line: int
    function: str            # enclosing function qualname
    message: str
    #: Fault-site ids implicated by the finding (used by the Explorer's
    #: lint prior and by the ground-truth validation benchmark).
    site_ids: tuple[str, ...] = ()
    exception: str = ""      # primary exception type, "" when several

    @property
    def location(self) -> str:
        return f"{self.file}:{self.line}"

    def to_dict(self) -> dict:
        return {
            "rule": self.rule,
            "severity": self.severity,
            "file": self.file,
            "line": self.line,
            "function": self.function,
            "message": self.message,
            "site_ids": list(self.site_ids),
            "exception": self.exception,
        }


RuleFn = Callable[["LintContext"], list[Finding]]


@dataclasses.dataclass(frozen=True)
class RuleInfo:
    rule_id: str
    summary: str
    check: RuleFn


_REGISTRY: dict[str, RuleInfo] = {}


def rule(rule_id: str, summary: str) -> Callable[[RuleFn], RuleFn]:
    """Register a rule function under a stable rule id."""

    def decorate(fn: RuleFn) -> RuleFn:
        if rule_id in _REGISTRY:
            raise ValueError(f"duplicate lint rule id {rule_id!r}")
        _REGISTRY[rule_id] = RuleInfo(rule_id, summary, fn)
        return fn

    return decorate


def registered_rules() -> dict[str, RuleInfo]:
    return dict(_REGISTRY)


_FactT = TypeVar("_FactT")


def _in_span(
    facts: Iterable[_FactT], file: str, start: int, end: int
) -> list[_FactT]:
    return [
        fact
        for fact in facts
        if fact.file == file and start <= fact.line <= end
    ]


class LintContext:
    """Model + exception analysis plus the span queries rules share."""

    def __init__(
        self, model: SystemModel, analysis: Optional[ExceptionAnalysis] = None
    ) -> None:
        self.model = model
        self.analysis = analysis if analysis is not None else ExceptionAnalysis.of(model)

    # ------------------------------------------------------------ span queries

    def calls_in_span(self, file: str, start: int, end: int) -> list[CallFact]:
        return _in_span(self.model.calls, file, start, end)

    def logs_in_span(self, file: str, start: int, end: int) -> list[LogFact]:
        return _in_span(self.model.logs, file, start, end)

    def raises_in_span(self, file: str, start: int, end: int) -> list[RaiseFact]:
        return _in_span(self.model.raises, file, start, end)

    def assigns_in_span(self, file: str, start: int, end: int) -> list[AssignFact]:
        return _in_span(self.model.assigns, file, start, end)

    def returns_in_span(self, file: str, start: int, end: int) -> list[ReturnFact]:
        return _in_span(self.model.returns, file, start, end)

    def env_calls_in_span(
        self, file: str, start: int, end: int
    ) -> list[EnvCallFact]:
        return _in_span(self.model.env_calls, file, start, end)

    # --------------------------------------------------------- handler queries

    def handler_span(self, handler: HandlerFact) -> tuple[str, int, int]:
        return handler.file, handler.body_start, handler.body_end

    def try_env_calls(self, try_fact: TryFact) -> list[EnvCallFact]:
        """Env calls lexically inside the try body."""
        return [
            env_call
            for env_call in _in_span(
                self.model.env_calls,
                try_fact.file,
                try_fact.body_start,
                try_fact.body_end,
            )
            if env_call.function == try_fact.function
        ]

    def guarded_env_calls(
        self, try_fact: TryFact, handler: HandlerFact
    ) -> list[EnvCallFact]:
        """Env calls in the try body whose fault types this handler catches."""
        return [
            env_call
            for env_call in self.try_env_calls(try_fact)
            if any(
                self.model.handler_catches(handler, exc_type)
                for exc_type in env_call.exception_types
            )
        ]

    def handler_is_tolerant(self, handler: HandlerFact) -> bool:
        """Whether the handler absorbs the fault and carries on."""
        return self.handler_escalation(handler) is None

    def handler_escalation(self, handler: HandlerFact) -> Optional[str]:
        """How the handler escalates the fault, or ``None`` if it absorbs it.

        Escalations: calling an abort-family callee, re-raising, or
        logging at ERROR/FATAL severity and bailing out of the function —
        the give-up-and-return shape treats the fault as fatal even
        though control returns normally.
        """
        span = self.handler_span(handler)
        aborts = [
            call
            for call in self.calls_in_span(*span)
            if call.callee in ABORT_CALLEES
        ]
        if aborts:
            return f"aborts via {aborts[0].callee}()"
        raises = self.raises_in_span(*span)
        if raises:
            wrapped = raises[0].exception or "the caught exception"
            return f"re-raises as {wrapped}"
        severe = [
            log
            for log in self.logs_in_span(*span)
            if log.level in SEVERE_LOG_LEVELS
        ]
        if severe and self.returns_in_span(*span):
            return f"logs at {severe[0].level} and gives up (returns)"
        return None

    def handler_guarded_sites(
        self, try_fact: TryFact, handler: HandlerFact
    ) -> tuple[str, ...]:
        """Direct plus interprocedural fault sites this handler guards."""
        sites = {
            env_call.site_id: None
            for env_call in self.guarded_env_calls(try_fact, handler)
        }
        for site_id in self.handler_site_ids(handler):
            sites.setdefault(site_id, None)
        return tuple(sites)

    def handler_site_ids(self, handler: HandlerFact) -> tuple[str, ...]:
        """Injectable fault sites this handler catches, interprocedurally.

        Direct external throw points contribute their own site; call and
        async points are expanded through the callee's escaping points to
        the underlying env-boundary sites.
        """
        sites: dict[str, None] = {}
        for point in self.analysis.caught.get((handler.file, handler.line), []):
            for site_id in self._expand_point(point, set()):
                sites.setdefault(site_id, None)
        return tuple(sites)

    def _expand_point(
        self, point: ThrowPoint, seen: set[tuple[str, str]]
    ) -> list[str]:
        if point.kind == KIND_EXTERNAL:
            return [point.site_id]
        if point.kind not in (KIND_CALL, KIND_ASYNC):
            return []
        sites: list[str] = []
        for callee in self.model.functions_named(point.callee):
            key = (callee.qualname, point.exc_type)
            if key in seen:
                continue
            seen.add(key)
            for escaping in self.analysis.escaping.get(callee.qualname, []):
                if point.kind == KIND_CALL and escaping.exc_type != point.exc_type:
                    continue
                sites.extend(self._expand_point(escaping, seen))
        return sites

    # ----------------------------------------------------- escape propagation

    def escapes_to_top(self, env_call: EnvCallFact, exc_type: str) -> bool:
        """Whether a fault at this env call can crash a task uncaught.

        True when the throw point escapes its own function and, following
        the synchronous call graph upward, some chain of callers lets it
        escape to a task entry (a spawned generator or an uncalled entry
        function).  Executor submissions stop raw propagation — the pool
        converts the fault into an ``ExecutionException`` on the future.
        """
        escaping = self.analysis.escaping.get(env_call.function, [])
        if not any(
            point.kind == KIND_EXTERNAL
            and point.site_id == env_call.site_id
            and point.exc_type == exc_type
            for point in escaping
        ):
            return False
        return self._escapes_from(env_call.function, exc_type, set())

    def _escapes_from(
        self, qualname: str, exc_type: str, seen: set[tuple[str, str]]
    ) -> bool:
        key = (qualname, exc_type)
        if key in seen:
            return False
        seen.add(key)
        fn = self.model.function(qualname)
        if fn is None:
            return True  # module-level code: nothing above it
        callers = [
            call for call in self.model.calls_to(fn.name) if not call.is_submit
        ]
        if not callers:
            return True  # entry point: the escape reaches the task top
        for call in callers:
            if call.is_spawn:
                return True  # the spawned task dies of the escape
            propagated = any(
                point.kind == KIND_CALL
                and point.callee == fn.name
                and point.exc_type == exc_type
                and point.line == call.line
                for point in self.analysis.escaping.get(call.caller, [])
            )
            if propagated and self._escapes_from(call.caller, exc_type, seen):
                return True
        return False

    # ------------------------------------------------------- flow-shape checks

    def try_end(self, try_fact: TryFact) -> int:
        ends = [try_fact.body_end]
        ends.extend(handler.body_end for handler in try_fact.handlers)
        return max(ends)

    def continues_after(self, try_fact: TryFact) -> bool:
        """Whether the enclosing function keeps working past the try.

        True when state mutation, env calls, or further calls follow the
        try statement in the same function.  A try that merely sits at
        the tail of a loop body does not count: re-entering the loop is
        the retry shape, which the unbounded-retry rule judges instead.
        """
        fn = self.model.function(try_fact.function)
        if fn is None:
            return False
        start = self.try_end(try_fact) + 1
        end = fn.end_line
        return bool(
            self.assigns_in_span(try_fact.file, start, end)
            or self.env_calls_in_span(try_fact.file, start, end)
            or self.calls_in_span(try_fact.file, start, end)
        )

    def in_loop(self, try_fact: TryFact) -> bool:
        return any(
            cond.is_loop
            and cond.file == try_fact.file
            and cond.function == try_fact.function
            and cond.scope_start < try_fact.body_start
            and cond.scope_end >= try_fact.body_end
            for cond in self.model.conditions
        )
