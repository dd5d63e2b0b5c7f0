"""Static causal graph construction (Algorithm 1, §4.1).

Starting from the location nodes of the relevant observables' logging
statements, we recursively add causally-prior nodes until reaching fault
sites (new-exception / external-exception nodes), producing a DAG-like
graph whose sources are fault candidates and whose sinks are observables.

The per-node ``CausallyPrior`` rules follow the paper:

* location  → enclosing condition, enclosing handler, invocation of the
  enclosing function;
* condition → the location rules, plus jumping-strategy slicing: every
  assignment (anywhere in the system) to a variable the test reads;
* invocation → the call sites of the invoked function (including executor
  submissions and task spawns);
* handler   → the throw points the handler catches (from the exception
  analysis); propagating points become internal-exception nodes whose
  priors continue into the callee, and a ``throw new`` inside a handler
  is downgraded to internal so the search keeps digging for the deeper
  root cause.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Iterable, Optional

from ..injection.corruptions import corruption_kinds_for_op
from ..injection.sites import CORRUPT_PREFIX
from .ast_facts import HandlerFact
from .exceptions import (
    KIND_ASYNC,
    KIND_CALL,
    KIND_EXTERNAL,
    KIND_NEW,
    KIND_RERAISE,
    ExceptionAnalysis,
    ThrowPoint,
)
from .model import (
    CausalGraph,
    Node,
    NodeKind,
    SOURCE_KINDS,
    condition_node,
    external_corruption_node,
    external_exception_node,
    handler_node,
    internal_exception_node,
    invocation_node,
    location_node,
    new_exception_node,
)
from .system_model import SystemModel


@dataclasses.dataclass
class AnalysisTimings:
    """Wall-clock breakdown mirroring Table 7's columns."""

    exception_seconds: float = 0.0
    slicing_seconds: float = 0.0
    chaining_seconds: float = 0.0

    @property
    def total_seconds(self) -> float:
        return self.exception_seconds + self.slicing_seconds + self.chaining_seconds


class CausalGraphBuilder:
    def __init__(
        self,
        model: SystemModel,
        analysis: Optional[ExceptionAnalysis] = None,
        fault_dims: str = "exceptions",
    ) -> None:
        self.model = model
        self.timings = AnalysisTimings()
        if analysis is None:
            analysis = ExceptionAnalysis.of(model)
        self.analysis = analysis
        self.timings.exception_seconds = analysis.elapsed_seconds
        #: Which fault dimensions to enumerate candidates for:
        #: ``exceptions`` (legacy, default), ``soft``, or ``all``.  The
        #: exception BFS always runs (it builds the graph structure); the
        #: soft pass below only attaches corruption sources when asked,
        #: so exception-only graphs are bit-for-bit unchanged.
        self.fault_dims = fault_dims

    # ---------------------------------------------------------------- building

    def build(self, observable_template_ids: Optional[Iterable[str]] = None) -> CausalGraph:
        """Run Algorithm 1 from the given observables (default: all logs)."""
        started = time.perf_counter()
        wanted = (
            set(observable_template_ids)
            if observable_template_ids is not None
            else None
        )
        graph = CausalGraph()
        queue: list[Node] = []
        for log in self.model.logs:
            if wanted is not None and log.template_id not in wanted:
                continue
            sink = location_node(
                log.file, log.line, log.function, detail=log.template_id
            )
            graph.mark_sink(log.template_id, sink)
            queue.append(sink)

        visited: set[str] = {node.node_id for node in queue}
        while queue:
            node = queue.pop()
            if node.kind in SOURCE_KINDS:
                continue
            for prior in self._causally_prior(node):
                graph.add_edge(prior, node)
                if prior.node_id not in visited:
                    visited.add(prior.node_id)
                    queue.append(prior)
        if self.fault_dims in ("soft", "all"):
            self._attach_corruption_sources(graph)
        self.timings.chaining_seconds = (
            time.perf_counter() - started - self.timings.slicing_seconds
        )
        return graph

    def _attach_corruption_sources(self, graph: CausalGraph) -> None:
        """Attach soft-fault sources (Data-Poisoning dimension).

        A corrupted return value flows into whatever the enclosing
        function computes *after* the env call, so every location or
        condition node of a function is causally posterior to the
        corruptible env calls at earlier-or-equal lines of that function.
        Interprocedural reach then comes for free: the exception BFS
        already chains those locations/conditions to the observables
        through slicing and invocation edges.
        """
        for node_id in sorted(graph.nodes):
            node = graph.nodes[node_id]
            if node.kind not in (NodeKind.LOCATION, NodeKind.CONDITION):
                continue
            if not node.function:
                continue
            for env_call in self.model.env_calls_in(node.function):
                if env_call.file != node.file or env_call.line > node.line:
                    continue
                for kind in corruption_kinds_for_op(env_call.op):
                    graph.add_edge(
                        external_corruption_node(
                            env_call.site_id, CORRUPT_PREFIX + kind
                        ),
                        node,
                    )

    # ----------------------------------------------------------- causally-prior

    def _causally_prior(self, node: Node) -> list[Node]:
        if node.kind is NodeKind.LOCATION:
            return self._location_priors(node.file, node.line, node.function)
        if node.kind is NodeKind.CONDITION:
            return self._condition_priors(node)
        if node.kind is NodeKind.INVOCATION:
            return self._invocation_priors(node)
        if node.kind is NodeKind.HANDLER:
            return self._handler_priors(node)
        if node.kind is NodeKind.INTERNAL_EXCEPTION:
            return self._internal_priors(node)
        return []

    def _location_priors(self, file: str, line: int, function: str) -> list[Node]:
        priors: list[Node] = []
        for condition in self.model.prior_conditions(file, line, function):
            priors.append(
                condition_node(condition.file, condition.line, condition.function)
            )
        handler = self.model.handler_at(file, line)
        if handler is not None:
            priors.append(self._handler_node(handler))
        if function and self.model.function(function) is not None:
            priors.append(invocation_node(function))
        return priors

    def _condition_priors(self, node: Node) -> list[Node]:
        priors = self._location_priors(node.file, node.line, node.function)
        started = time.perf_counter()
        condition = next(
            (
                cond
                for cond in self.model.conditions
                if cond.file == node.file and cond.line == node.line
            ),
            None,
        )
        if condition is not None:
            for variable in condition.variables:
                for assign in self.model.assigns_to(variable):
                    priors.append(
                        location_node(assign.file, assign.line, assign.function)
                    )
        self.timings.slicing_seconds += time.perf_counter() - started
        return priors

    def _invocation_priors(self, node: Node) -> list[Node]:
        function = self.model.function(node.detail)
        if function is None:
            return []
        return [
            location_node(call.file, call.line, call.caller)
            for call in self.model.calls_to(function.name)
        ]

    def _handler_priors(self, node: Node) -> list[Node]:
        handler = self.model.handler_by_line(node.file, node.line)
        if handler is None:
            return []
        return [
            self._point_node(point) for point in self.analysis.caught_by(handler)
        ]

    def _internal_priors(self, node: Node) -> list[Node]:
        kind, _, callee = node.detail.partition(":")
        if kind in (KIND_NEW, KIND_RERAISE):
            # Downgraded new-exception / re-raise: continue through the
            # handler the point lives in.
            handler = self.model.handler_at(node.file, node.line)
            if handler is None:
                return []
            return [self._handler_node(handler)]
        if kind == KIND_CALL:
            return [
                self._point_node(point)
                for fn in self.model.functions_named(callee)
                for point in self.analysis.escaping_points(
                    fn.qualname, exc_type=node.exception
                )
            ]
        if kind == KIND_ASYNC:
            return [
                self._point_node(point)
                for fn in self.model.functions_named(callee)
                for point in self.analysis.escaping_points(fn.qualname)
            ]
        return []

    # ------------------------------------------------------------ node factory

    def _handler_node(self, handler: HandlerFact) -> Node:
        return handler_node(
            handler.file,
            handler.line,
            handler.function,
            exception=",".join(handler.exceptions),
        )

    def _point_node(self, point: ThrowPoint) -> Node:
        if point.kind == KIND_EXTERNAL:
            return external_exception_node(point.site_id, point.exc_type)
        if point.kind == KIND_NEW:
            enclosing = self.model.handler_at(point.file, point.line)
            if enclosing is not None:
                # "if this new exception is thrown because of an external
                # exception, we downgrade it to an internal exception"
                node = internal_exception_node(
                    point.file, point.line, point.function, point.exc_type
                )
                return dataclasses.replace(node, detail=KIND_NEW)
            return new_exception_node(
                point.file, point.line, point.function, point.exc_type
            )
        node = internal_exception_node(
            point.file, point.line, point.function, point.exc_type
        )
        detail = point.kind if not point.callee else f"{point.kind}:{point.callee}"
        return dataclasses.replace(node, detail=detail)


class DistanceIndex:
    """Precomputed spatial distances L_{i,k} (the §7 optimization).

    Maps each observable template id to a {node_id: hops-to-sink} table; a
    missing entry means the fault cannot cause that observable.
    """

    def __init__(self, graph: CausalGraph) -> None:
        self.graph = graph
        self._per_sink: dict[str, dict[str, int]] = {
            template_id: graph.distances_to_sink(sink_node_id)
            for template_id, sink_node_id in graph.sinks.items()
        }

    def distance(self, source_node_id: str, template_id: str) -> Optional[int]:
        table = self._per_sink.get(template_id)
        if table is None:
            return None
        return table.get(source_node_id)

    def observables_reachable_from(self, source_node_id: str) -> dict[str, int]:
        """template id -> L for every observable this source can cause."""
        out: dict[str, int] = {}
        for template_id, table in self._per_sink.items():
            distance = table.get(source_node_id)
            if distance is not None:
                out[template_id] = distance
        return out
