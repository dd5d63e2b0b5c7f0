"""Interprocedural fault-propagation dataflow (the *flow pass*).

Where :class:`~repro.analysis.exceptions.ExceptionAnalysis` answers "which
exception types escape each function?", this pass answers the forward
question the Explorer actually cares about: *if exception E surfaces at
env-boundary site S, what can the system observably do about it?*  For
every ``(site, exception)`` pair it walks the propagation chain — through
the innermost catching handler, any typed or bare re-raises, and up the
name-resolved synchronous call graph when the exception escapes — and
records, per pair:

* the **handler chain** traversed (file, line, enclosing function);
* the **log statements** statically reachable on the handling path, split
  into *direct* (lexically inside a handler span) and *callee* (inside
  the closure of functions called from a handler span);
* the **state mutations** the handlers perform (assignments in the
  handler span of the propagating function); and
* whether the pair can **crash a task**: escape from a spawned task's
  top frame, from a function with no callers, or from an unresolvable
  frame — all of which terminate a scheduler task rather than return.

Cross-thread and cross-process propagation is modeled explicitly as
:class:`CrossEdge` records mirroring the ``repro.sim`` runtime: ``spawn``
(scheduler tasks), ``submit`` (executor jobs whose failures surface as
``ExecutionException`` at the submission site — same convention as the
exception analysis), ``queue`` (a ``put`` paired with a ``get`` on the
same receiver name), and ``message`` (an env-boundary ``sock_send``
paired with the functions that ``sock_recv``).

The result is a :class:`PropagationGraph`; consumers are the static
fault-space pruner (:mod:`repro.core.pruning`) and the concurrency rule
pack (:mod:`repro.analysis.rules`).  The graph is a pure function of its
:class:`SystemModel` and cheap to build (milliseconds per mini system),
so :func:`propagation_graph` memoises it on the model and nothing
persists it.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Iterable, Mapping, Optional

from .system_model import SystemModel

#: Call names that enqueue into / dequeue from a ``repro.sim`` queue.
QUEUE_PUT_CALLEES = frozenset({"put", "put_nowait"})
QUEUE_GET_CALLEES = frozenset({"get", "get_nowait"})

#: Env-boundary ops forming a network message edge (send -> deliver).
MESSAGE_SEND_OPS = frozenset({"sock_send"})
MESSAGE_RECV_OPS = frozenset({"sock_recv", "sock_accept"})


@dataclasses.dataclass(frozen=True)
class CrossEdge:
    """One cross-thread / cross-process propagation edge.

    ``kind`` is ``spawn`` | ``submit`` | ``queue`` | ``message``.  The
    edge points from the program point that *hands work off* (``file``,
    ``line`` inside ``source``) to the ``target`` that continues it: the
    spawned/submitted callable, or the function on the receiving end of
    a queue/socket.  ``channel`` names the carrier — the queue receiver
    or the env op pair — and is empty for spawn/submit edges.
    """

    kind: str
    file: str
    line: int
    source: str
    target: str
    channel: str = ""


@dataclasses.dataclass(frozen=True)
class PropagationPath:
    """What one ``(site, exception)`` pair can statically reach."""

    site_id: str
    exception: str
    #: Handler chain in propagation order: (file, line, enclosing function).
    handlers: tuple[tuple[str, int, str], ...]
    #: Template ids of log statements lexically inside a handler span.
    logs: tuple[str, ...]
    #: Template ids reachable through calls made from a handler span.
    callee_logs: tuple[str, ...]
    #: Handler-path state mutations: (file, line, variable).
    mutations: tuple[tuple[str, int, str], ...]
    #: True when the pair can terminate a scheduler task.
    crash: bool

    @property
    def all_logs(self) -> frozenset[str]:
        return frozenset(self.logs) | frozenset(self.callee_logs)


class PropagationGraph:
    """The product of the flow pass for one package.

    ``paths`` maps every ``(site_id, exception)`` pair drawn from the env
    catalog to its :class:`PropagationPath`.  ``condition_variables`` is
    the set of variables that appear in branch/loop conditions anywhere
    in the package, baked in at build time so :meth:`pair_live` is
    self-contained.
    """

    def __init__(
        self,
        paths: Mapping[tuple[str, str], PropagationPath],
        cross_edges: Iterable[CrossEdge],
        condition_variables: Iterable[str],
        package: str = "",
        build_seconds: float = 0.0,
    ) -> None:
        self.paths: dict[tuple[str, str], PropagationPath] = dict(paths)
        self.cross_edges: tuple[CrossEdge, ...] = tuple(cross_edges)
        self.condition_variables: frozenset[str] = frozenset(condition_variables)
        self.package = package
        self.build_seconds = build_seconds

    # ------------------------------------------------------------- queries

    def path(self, site_id: str, exception: str) -> Optional[PropagationPath]:
        return self.paths.get((site_id, exception))

    def pair_live(self, site_id: str, exception: str) -> bool:
        """Can this pair leave any statically observable mark?

        Live means the propagation path reaches a log statement, can
        crash a task (the log truncates — itself a divergence), or
        mutates state that some branch condition later reads.  A pair
        the catalog does not know is conservatively live.
        """
        path = self.paths.get((site_id, exception))
        if path is None:
            return True
        if path.logs or path.callee_logs or path.crash:
            return True
        return any(
            variable in self.condition_variables
            for _file, _line, variable in path.mutations
        )

    def dead_pairs(self) -> frozenset[tuple[str, str]]:
        return frozenset(
            key for key in self.paths if not self.pair_live(*key)
        )

    def edges_of(self, kind: str) -> tuple[CrossEdge, ...]:
        return tuple(edge for edge in self.cross_edges if edge.kind == kind)

    def summary(self) -> dict:
        """Compact counts for CLI / report output."""
        dead = self.dead_pairs()
        edge_kinds: dict[str, int] = {}
        for edge in self.cross_edges:
            edge_kinds[edge.kind] = edge_kinds.get(edge.kind, 0) + 1
        return {
            "pairs": len(self.paths),
            "live_pairs": len(self.paths) - len(dead),
            "dead_pairs": len(dead),
            "handlers": len(
                {entry for path in self.paths.values() for entry in path.handlers}
            ),
            "cross_edges": {kind: edge_kinds[kind] for kind in sorted(edge_kinds)},
            "build_seconds": round(self.build_seconds, 6),
        }


class FlowAnalysis:
    """Builds a :class:`PropagationGraph` from a :class:`SystemModel`.

    The propagation walk mirrors the runtime semantics of ``repro.sim``:

    * an exception surfacing at ``(function, line)`` is handled by the
      innermost enclosing ``try`` whose handler catches the type
      (:meth:`SystemModel.handler_catches` honors bases and bare
      ``except``);
    * a handler's effect is what its span contains — logs, assignments,
      calls (whose closures are scanned for logs), and re-raises, which
      continue the walk (typed raises with their own type, bare ``raise``
      with the in-flight type);
    * an uncaught exception escapes to every *synchronous* caller (by
      callee name, matching the exception analysis) and continues there;
      at ``submit`` call sites it resurfaces as ``ExecutionException``;
      escaping from a spawned callable, an unresolvable function, or a
      function with no callers terminates the task — a crash.

    The walk is memoized on ``(function, line, exception)`` and cycle-
    guarded, so recursive retry loops terminate.
    """

    def __init__(self, model: SystemModel) -> None:
        self.model = model
        self._memo: dict[tuple[str, int, str], dict] = {}

    # --------------------------------------------------------------- build

    def build(self, package: str = "") -> PropagationGraph:
        started = time.perf_counter()
        model = self.model
        paths: dict[tuple[str, str], PropagationPath] = {}
        for env_call in model.env_calls:
            for exception in env_call.exception_types:
                result = self._propagate(
                    env_call.function, env_call.line, exception, frozenset()
                )
                paths[(env_call.site_id, exception)] = PropagationPath(
                    site_id=env_call.site_id,
                    exception=exception,
                    handlers=tuple(sorted(result["handlers"])),
                    logs=tuple(sorted(result["logs"])),
                    callee_logs=tuple(sorted(result["callee_logs"])),
                    mutations=tuple(sorted(result["mutations"])),
                    crash=result["crash"],
                )
        graph = PropagationGraph(
            paths=paths,
            cross_edges=self._cross_edges(),
            condition_variables={
                variable
                for condition in model.conditions
                for variable in condition.variables
            },
            package=package,
            build_seconds=time.perf_counter() - started,
        )
        return graph

    # --------------------------------------------------------- propagation

    def _empty(self) -> dict:
        return {
            "logs": set(),
            "callee_logs": set(),
            "crash": False,
            "mutations": set(),
            "handlers": set(),
        }

    def _merge(self, out: dict, sub: dict) -> None:
        out["logs"] |= sub["logs"]
        out["callee_logs"] |= sub["callee_logs"]
        out["crash"] = out["crash"] or sub["crash"]
        out["mutations"] |= sub["mutations"]
        out["handlers"] |= sub["handlers"]

    def _propagate(
        self, qualname: str, line: int, exception: str, seen: frozenset
    ) -> dict:
        key = (qualname, line, exception)
        if key in seen:
            return self._empty()
        memo = self._memo.get(key)
        if memo is not None:
            return memo
        seen = seen | {key}
        out = self._empty()
        model = self.model

        handler = None
        for try_fact in model.enclosing_trys(qualname, line):
            for candidate in try_fact.handlers:
                if model.handler_catches(candidate, exception):
                    handler = candidate
                    break
            if handler is not None:
                break

        if handler is not None:
            out["handlers"].add((handler.file, handler.line, qualname))
            span_file = handler.file
            span_start = handler.body_start
            span_end = handler.body_end
            for log in model.logs:
                if log.file == span_file and span_start <= log.line <= span_end:
                    out["logs"].add(log.template_id)
            for assign in model.assigns:
                if (
                    assign.file == span_file
                    and span_start <= assign.line <= span_end
                    and assign.function == qualname
                ):
                    for target in assign.targets:
                        out["mutations"].add((assign.file, assign.line, target))
            for call in model.calls_in(qualname):
                if call.file == span_file and span_start <= call.line <= span_end:
                    self._callee_logs(call.callee, out, set())
            for raise_fact in model.raises_in(qualname):
                if not (
                    raise_fact.file == span_file
                    and span_start <= raise_fact.line <= span_end
                ):
                    continue
                if raise_fact.exception:
                    sub = self._propagate(
                        qualname, raise_fact.line, raise_fact.exception, seen
                    )
                elif raise_fact.handler_line == handler.line:
                    sub = self._propagate(qualname, raise_fact.line, exception, seen)
                else:
                    continue
                self._merge(out, sub)
        else:
            fn = model.function(qualname)
            if fn is None:
                out["crash"] = True
            else:
                callers = list(model.calls_to(fn.name))
                if not callers or any(call.is_spawn for call in callers):
                    out["crash"] = True
                for call in callers:
                    if call.is_spawn:
                        continue
                    if call.is_submit:
                        sub = self._propagate(
                            call.caller, call.line, "ExecutionException", seen
                        )
                    else:
                        sub = self._propagate(call.caller, call.line, exception, seen)
                    self._merge(out, sub)

        self._memo[key] = out
        return out

    def _callee_logs(self, callee_name: str, out: dict, seen: set) -> None:
        """Logs anywhere in the call closure rooted at ``callee_name``."""
        for fn in self.model.functions_named(callee_name):
            if fn.qualname in seen:
                continue
            seen.add(fn.qualname)
            for log in self.model.logs:
                if log.function == fn.qualname:
                    out["callee_logs"].add(log.template_id)
            for call in self.model.calls_in(fn.qualname):
                self._callee_logs(call.callee, out, seen)

    # --------------------------------------------------------- cross edges

    def _cross_edges(self) -> list[CrossEdge]:
        model = self.model
        edges: list[CrossEdge] = []

        for call in model.calls:
            if call.is_spawn:
                edges.append(
                    CrossEdge(
                        kind="spawn",
                        file=call.file,
                        line=call.line,
                        source=call.caller,
                        target=call.callee,
                    )
                )
            elif call.is_submit:
                edges.append(
                    CrossEdge(
                        kind="submit",
                        file=call.file,
                        line=call.line,
                        source=call.caller,
                        target=call.callee,
                    )
                )

        # Queue hand-off: a put and a get on the same receiver name pair
        # up — the put site hands control to every function that gets.
        puts: dict[str, list] = {}
        getters: dict[str, set[str]] = {}
        for call in model.calls:
            if not call.owner:
                continue
            if call.callee in QUEUE_PUT_CALLEES:
                puts.setdefault(call.owner, []).append(call)
            elif call.callee in QUEUE_GET_CALLEES:
                getters.setdefault(call.owner, set()).add(call.caller)
        for owner, put_calls in sorted(puts.items()):
            for target in sorted(getters.get(owner, ())):
                for call in put_calls:
                    edges.append(
                        CrossEdge(
                            kind="queue",
                            file=call.file,
                            line=call.line,
                            source=call.caller,
                            target=target,
                            channel=owner,
                        )
                    )

        # Network message edge: env sends pair with env receives.
        recv_functions = sorted(
            {
                env_call.function
                for env_call in model.env_calls
                if env_call.op in MESSAGE_RECV_OPS
            }
        )
        for env_call in model.env_calls:
            if env_call.op not in MESSAGE_SEND_OPS:
                continue
            for target in recv_functions:
                edges.append(
                    CrossEdge(
                        kind="message",
                        file=env_call.file,
                        line=env_call.line,
                        source=env_call.function,
                        target=target,
                        channel=f"{env_call.op}->sock_recv",
                    )
                )
        return edges


def build_propagation_graph(
    model: SystemModel, package: str = ""
) -> PropagationGraph:
    """Run the flow pass over ``model`` (uncached)."""
    return FlowAnalysis(model).build(package=package)


def propagation_graph(model: SystemModel) -> PropagationGraph:
    """The flow pass's result for ``model``, built once per model.

    Every reader goes through here, so a model's graph is built at most
    once per process; :func:`~repro.analysis.system_model.clear_facts_cache`
    forgets it with the model's other memos.  Import it by name at
    module level: the e2e tracer rebinds every module global that is
    this function.
    """
    return model.memo(PropagationGraph, lambda: build_propagation_graph(model))


def task_root_closure(model: SystemModel, graph: PropagationGraph) -> dict[str, frozenset[str]]:
    """Map each task root (spawn/submit target) to its call closure.

    Task roots are the entry points of concurrent execution; the closure
    is every function reachable from the root through the name-resolved
    call graph.  The concurrency rule pack uses this to decide whether
    two program points can run on different tasks.
    """
    closures: dict[str, frozenset[str]] = {}
    roots = sorted(
        {
            edge.target
            for edge in graph.cross_edges
            if edge.kind in ("spawn", "submit")
        }
    )
    for root in roots:
        seen: set[str] = set()
        frontier = [root]
        while frontier:
            name = frontier.pop()
            for fn in model.functions_named(name):
                if fn.qualname in seen:
                    continue
                seen.add(fn.qualname)
                for call in model.calls_in(fn.qualname):
                    frontier.append(call.callee)
        closures[root] = frozenset(seen)
    return closures

