"""Interprocedural exception analysis (§4.1, "Exception Analysis").

For every function we compute its *throw points* — program points at
which an exception can surface inside the function — and whether each
point is caught by an enclosing handler or escapes the function:

* ``external`` — an env-boundary call (library fault; injectable site);
* ``new`` — a ``raise NewType(...)`` in system code;
* ``reraise`` — a bare ``raise`` inside a handler;
* ``call`` — a synchronous call whose callee lets an exception escape;
* ``async`` — an executor submission whose job can fail; the failure
  surfaces as an ``ExecutionException`` (cross-thread propagation through
  futures, modeled at the submission site).

Escape sets are computed to a fixpoint over the name-resolved call graph,
so exception flow crosses function and module boundaries the same way the
paper's Soot-based analysis does.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Optional

from .ast_facts import FunctionFact, HandlerFact
from .system_model import SystemModel

KIND_EXTERNAL = "external"
KIND_NEW = "new"
KIND_RERAISE = "reraise"
KIND_CALL = "call"
KIND_ASYNC = "async"


@dataclasses.dataclass(frozen=True)
class ThrowPoint:
    """A point inside ``function`` where exception ``exc_type`` can surface."""

    file: str
    line: int
    function: str        # qualname of the function containing the point
    exc_type: str
    kind: str
    site_id: str = ""    # kind == external
    callee: str = ""     # kind in (call, async)


def _handler_key(handler: HandlerFact) -> tuple[str, int]:
    return (handler.file, handler.line)


class ExceptionAnalysis:
    """Fixpoint exception-flow analysis over a :class:`SystemModel`."""

    def __init__(self, model: SystemModel) -> None:
        self.model = model
        #: qualname -> throw points that escape the function
        self.escaping: dict[str, list[ThrowPoint]] = {}
        #: (handler file, handler line) -> points that handler catches
        self.caught: dict[tuple[str, int], list[ThrowPoint]] = {}
        #: qualname -> set of escaping exception type names
        self.escaping_types: dict[str, set[str]] = {}
        self.elapsed_seconds = 0.0
        self._run()

    @classmethod
    def of(cls, model: SystemModel) -> "ExceptionAnalysis":
        """The model's one analysis: the fixpoint runs on first request
        and ``elapsed_seconds`` keeps reporting that run (Table 7)."""
        return model.memo(cls, lambda: cls(model))

    # ------------------------------------------------------------------ public

    def escaping_points(
        self, qualname: str, exc_type: Optional[str] = None
    ) -> list[ThrowPoint]:
        points = self.escaping.get(qualname, [])
        if exc_type is None:
            return points
        return [point for point in points if point.exc_type == exc_type]

    def caught_by(self, handler: HandlerFact) -> list[ThrowPoint]:
        return self.caught.get(_handler_key(handler), [])

    # --------------------------------------------------------------- algorithm

    def _run(self) -> None:
        started = time.perf_counter()
        model = self.model
        escaping_types: dict[str, set[str]] = {
            fn.qualname: set() for fn in model.functions
        }

        # Fixpoint on escaping type sets.
        changed = True
        while changed:
            changed = False
            for fn in model.functions:
                points = self._points_for(fn, escaping_types)
                escapes: set[str] = set()
                for point in points:
                    if self._catching_handler(fn, point) is None:
                        escapes.add(point.exc_type)
                if not escapes <= escaping_types[fn.qualname]:
                    escaping_types[fn.qualname] |= escapes
                    changed = True

        self.escaping_types = escaping_types

        # Final pass: materialize points and the caught/escaping partition.
        for fn in model.functions:
            for point in self._points_for(fn, escaping_types):
                handler = self._catching_handler(fn, point)
                if handler is None:
                    self.escaping.setdefault(fn.qualname, []).append(point)
                else:
                    self.caught.setdefault(_handler_key(handler), []).append(point)
        self.elapsed_seconds = time.perf_counter() - started

    def _points_for(
        self, fn: FunctionFact, escaping_types: dict[str, set[str]]
    ) -> list[ThrowPoint]:
        model = self.model
        points: list[ThrowPoint] = []

        for env_call in model.env_calls_in(fn.qualname):
            for exc_type in env_call.exception_types:
                points.append(
                    ThrowPoint(
                        file=env_call.file,
                        line=env_call.line,
                        function=fn.qualname,
                        exc_type=exc_type,
                        kind=KIND_EXTERNAL,
                        site_id=env_call.site_id,
                    )
                )

        for raise_fact in model.raises_in(fn.qualname):
            if raise_fact.exception:
                points.append(
                    ThrowPoint(
                        file=raise_fact.file,
                        line=raise_fact.line,
                        function=fn.qualname,
                        exc_type=raise_fact.exception,
                        kind=KIND_NEW,
                    )
                )
            elif raise_fact.handler_line:
                handler = model.handler_by_line(
                    raise_fact.file, raise_fact.handler_line
                )
                if handler is not None:
                    for exc_type in handler.exceptions:
                        points.append(
                            ThrowPoint(
                                file=raise_fact.file,
                                line=raise_fact.line,
                                function=fn.qualname,
                                exc_type=exc_type,
                                kind=KIND_RERAISE,
                            )
                        )

        for call in model.calls_in(fn.qualname):
            if call.is_spawn:
                # A crash of a spawned task does not propagate to the
                # spawner; it surfaces through the crash handler (logged).
                continue
            callee_types: set[str] = set()
            for callee in model.functions_named(call.callee):
                callee_types |= escaping_types.get(callee.qualname, set())
            if not callee_types:
                continue
            if call.is_submit:
                points.append(
                    ThrowPoint(
                        file=call.file,
                        line=call.line,
                        function=fn.qualname,
                        exc_type="ExecutionException",
                        kind=KIND_ASYNC,
                        callee=call.callee,
                    )
                )
            else:
                for exc_type in sorted(callee_types):
                    points.append(
                        ThrowPoint(
                            file=call.file,
                            line=call.line,
                            function=fn.qualname,
                            exc_type=exc_type,
                            kind=KIND_CALL,
                            callee=call.callee,
                        )
                    )
        return points

    def _catching_handler(
        self, fn: FunctionFact, point: ThrowPoint
    ) -> Optional[HandlerFact]:
        """Innermost enclosing handler of ``point`` that catches its type.

        A point lexically inside a handler body is not covered by that
        handler's own try body, so re-raises naturally look outward.
        """
        for try_fact in self.model.enclosing_trys(fn.qualname, point.line):
            for handler in try_fact.handlers:
                if self.model.handler_catches(handler, point.exc_type):
                    return handler
        return None
