"""repro — feedback-driven fault injection for reproducing failures.

A from-scratch Python reproduction of ANDURIL (SOSP 2024): given a
system, a driving workload, a production failure log, and a failure
oracle, the :class:`Explorer` searches the space of fault injections
(site x exception x occurrence) for the root-cause fault that reproduces
the failure, using static causal analysis to bound the space and a
dynamic feedback algorithm to rank it.

Quick start::

    from repro import Explorer, LogMessageOracle
    from repro.failures import get_case

    case = get_case("f17")              # the motivating HBase-25905 analog
    explorer = case.explorer()
    result = explorer.explore()
    print(result.script.to_json())      # deterministic reproduction script

See ``examples/`` for applying the tool to your own simulated system.
"""

from ._lazy import lazy_exports
from .core.explorer import ExplorationResult, Explorer
from .core.oracle import (
    AllOf,
    AnyOf,
    CrashedTaskOracle,
    LogMessageOracle,
    Oracle,
    StatePredicateOracle,
    StuckTaskOracle,
)
from .core.report import ReproductionScript
from .injection.fir import FIR, InjectionPlan
from .injection.sites import FaultCandidate, FaultInstance, SiteRef
from .sim.cluster import Cluster, RunResult, execute_workload

__version__ = "1.0.0"

__getattr__ = lazy_exports(
    __name__,
    {
        "IterativeExplorer": ".core.iterative",
        "IterativeResult": ".core.iterative",
        "TraceRecorder": ".obs.trace",
    },
)

__all__ = [
    "AllOf",
    "AnyOf",
    "Cluster",
    "CrashedTaskOracle",
    "ExplorationResult",
    "Explorer",
    "FIR",
    "FaultCandidate",
    "FaultInstance",
    "InjectionPlan",
    "IterativeExplorer",
    "IterativeResult",
    "LogMessageOracle",
    "Oracle",
    "ReproductionScript",
    "RunResult",
    "SiteRef",
    "StatePredicateOracle",
    "StuckTaskOracle",
    "TraceRecorder",
    "execute_workload",
]
