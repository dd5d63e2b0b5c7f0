"""ANDURIL's core: feedback-driven fault-injection search.

Public entry point: :class:`Explorer`.  Give it a workload, a failure log,
an oracle, and the system package to analyze; ``explore()`` searches the
fault space and, on success, returns a deterministic
:class:`ReproductionScript`.
"""

from .._lazy import lazy_exports
from .alignment import TimelineMap, temporal_distance
from .explorer import (
    ExplorationResult,
    Explorer,
    PreparedSearch,
    RoundRecord,
)
from .observables import Observable, ObservableSet
from .oracle import (
    AllOf,
    AnyOf,
    CrashedTaskOracle,
    LogMessageOracle,
    Not,
    Oracle,
    StatePredicateOracle,
    StuckTaskOracle,
)
from .priority import FaultPriorityPool, WindowEntry
from .report import ReproductionScript

__getattr__ = lazy_exports(
    __name__,
    {"IterativeExplorer": ".iterative", "IterativeResult": ".iterative"},
    submodules=("iterative",),
)

__all__ = [
    "AllOf",
    "AnyOf",
    "CrashedTaskOracle",
    "ExplorationResult",
    "Explorer",
    "FaultPriorityPool",
    "IterativeExplorer",
    "IterativeResult",
    "LogMessageOracle",
    "Not",
    "Observable",
    "ObservableSet",
    "Oracle",
    "PreparedSearch",
    "ReproductionScript",
    "RoundRecord",
    "StatePredicateOracle",
    "StuckTaskOracle",
    "TimelineMap",
    "WindowEntry",
    "temporal_distance",
]
