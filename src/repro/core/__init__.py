"""ANDURIL's core: feedback-driven fault-injection search.

Public entry point: :class:`Explorer`.  Give it a workload, a failure log,
an oracle, and the system package to analyze; ``explore()`` searches the
fault space and, on success, returns a deterministic
:class:`ReproductionScript`.  Every export loads its module on first use.
"""

from .._lazy import lazy_exports

_EXPORTS = {
    ".alignment": ("TimelineMap", "temporal_distance"),
    ".explorer": ("ExplorationResult", "Explorer", "PreparedSearch", "RoundRecord"),
    ".iterative": ("IterativeExplorer", "IterativeResult"),
    ".observables": ("Observable", "ObservableSet"),
    ".oracle": (
        "AllOf", "AnyOf", "CrashedTaskOracle", "LogMessageOracle", "Not", "Oracle",
        "StatePredicateOracle", "StuckTaskOracle",
    ),
    ".priority": ("FaultPriorityPool", "WindowEntry"),
    ".report": ("ReproductionScript",),
}
__getattr__ = lazy_exports(__name__, _EXPORTS, submodules=("iterative",))
__all__ = sorted(name for names in _EXPORTS.values() for name in names)
