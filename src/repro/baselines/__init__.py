"""Baseline and ablation injection strategies (§8.3–§8.4)."""

from .base import SearchContext, Strategy, StrategyRunner, build_context
from .external import (
    CrashTunerStrategy,
    FateStrategy,
    RandomInjector,
    StacktraceInjector,
)
from .variants import (
    DistanceInstanceLimit,
    DistanceOnly,
    ExhaustiveInstances,
    MultiplyFeedback,
    SiteFeedback,
)

#: Factories for every non-ANDURIL strategy, keyed by display name.
ALL_STRATEGIES = {
    "exhaustive": ExhaustiveInstances,
    "fault-site-distance": DistanceOnly,
    "fault-site-distance-limit": DistanceInstanceLimit,
    "fault-site-feedback": SiteFeedback,
    "multiply-feedback": MultiplyFeedback,
    "fate": FateStrategy,
    "crashtuner": CrashTunerStrategy,
    "stacktrace": StacktraceInjector,
    "random": RandomInjector,
}

__all__ = [
    "ALL_STRATEGIES",
    "CrashTunerStrategy",
    "DistanceInstanceLimit",
    "DistanceOnly",
    "ExhaustiveInstances",
    "FateStrategy",
    "MultiplyFeedback",
    "RandomInjector",
    "SearchContext",
    "SiteFeedback",
    "StacktraceInjector",
    "Strategy",
    "StrategyRunner",
    "build_context",
]
