"""Static analysis: the Instrumenter's causal-reasoning side (§4).

Pipeline: ``analyze_package`` extracts AST facts into a ``SystemModel``;
``ExceptionAnalysis`` computes interprocedural exception flow;
``CausalGraphBuilder`` runs Algorithm 1 from a set of observables; and
``DistanceIndex`` precomputes the spatial distances the Explorer queries
each round.
"""

from .._lazy import lazy_exports
from .ast_facts import (
    AssignFact,
    CallFact,
    ConditionFact,
    EnvCallFact,
    FunctionFact,
    HandlerFact,
    LogFact,
    ModuleFacts,
    RaiseFact,
    TryFact,
    extract_module_facts,
)
from .causal import AnalysisTimings, CausalGraphBuilder, DistanceIndex
from .exceptions import ExceptionAnalysis, ThrowPoint
from .flow import (
    CrossEdge,
    FlowAnalysis,
    PropagationGraph,
    PropagationPath,
    build_propagation_graph,
    reachability_weights,
    task_root_closure,
)
from .model import (
    CausalGraph,
    Node,
    NodeKind,
    SOURCE_KINDS,
    SourceInfo,
    external_corruption_node,
    filter_candidates_by_dims,
    graph_fault_candidates,
)
from .system_model import SystemModel, analyze_package

# The lint pass and its rule catalog load only for `repro lint`, the
# lint prior, or a caller naming them.
__getattr__ = lazy_exports(
    __name__,
    {
        ".lint": ("LintReport", "lint_package", "run_lint"),
        ".rules": ("Finding", "LintContext", "registered_rules"),
    },
    submodules=("lint", "rules"),
)

__all__ = [
    "AnalysisTimings",
    "AssignFact",
    "CallFact",
    "CausalGraph",
    "CausalGraphBuilder",
    "ConditionFact",
    "CrossEdge",
    "DistanceIndex",
    "EnvCallFact",
    "ExceptionAnalysis",
    "Finding",
    "FlowAnalysis",
    "FunctionFact",
    "HandlerFact",
    "LintContext",
    "LintReport",
    "LogFact",
    "ModuleFacts",
    "Node",
    "NodeKind",
    "PropagationGraph",
    "PropagationPath",
    "RaiseFact",
    "SOURCE_KINDS",
    "SourceInfo",
    "SystemModel",
    "ThrowPoint",
    "TryFact",
    "analyze_package",
    "build_propagation_graph",
    "external_corruption_node",
    "extract_module_facts",
    "filter_candidates_by_dims",
    "graph_fault_candidates",
    "lint_package",
    "reachability_weights",
    "registered_rules",
    "run_lint",
    "task_root_closure",
]
