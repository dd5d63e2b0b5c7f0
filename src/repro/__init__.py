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
Every export loads its module on first use, so ``python -m repro list``
compiles none of the search stack.
"""

from ._lazy import lazy_exports

__version__ = "1.0.0"

_EXPORTS = {
    ".core.explorer": ("Explorer",),
    ".core.iterative": ("IterativeExplorer", "IterativeResult"),
    ".core.oracle": (
        "AllOf", "AnyOf", "CrashedTaskOracle", "LogMessageOracle", "Oracle",
        "StatePredicateOracle", "StuckTaskOracle",
    ),
    ".core.report": ("ReproductionScript",),
    ".core.search": ("ExplorationResult",),
    ".injection.fir": ("FIR", "InjectionPlan"),
    ".injection.sites": ("FaultCandidate", "FaultInstance", "SiteRef"),
    ".obs.trace": ("TraceRecorder",),
    ".sim.cluster": ("Cluster", "RunResult", "execute_workload"),
}
__getattr__ = lazy_exports(__name__, _EXPORTS)
__all__ = sorted(name for names in _EXPORTS.values() for name in names)
