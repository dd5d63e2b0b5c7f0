"""``repro.obs`` — run-level tracing and metrics.

This package is imported by the simulator, the FIR, the Explorer, and
the bench harness, so it must stay dependency-free within ``repro``
(it imports nothing from sibling packages).
"""

from .._lazy import lazy_exports
from . import ledger, metrics
from .bus import (
    NULL_BUS,
    CallbackSink,
    EventBus,
    JsonlSink,
    MemorySink,
    NullBus,
    active_bus,
    read_events,
    set_active_bus,
    tail_events,
    validate_event,
)
from .coverage import (
    NULL_COVERAGE,
    CoverageSummary,
    CoverageTracker,
    NullCoverageTracker,
    RoundCoverage,
    enumerate_fault_space,
)
from .null import NULL_RECORDER, VIRTUAL, WALL, NullRecorder

# The recorder proper, the provenance builder, the HTML report and the
# watch view load on first use: most processes hold NULL_RECORDER only.
__getattr__ = lazy_exports(
    __name__,
    {
        ".trace": ("Event", "Span", "TraceRecorder"),
        ".provenance": (
            "PlanProvenance", "ProvenanceChain", "ProvenanceStep", "build_plan_provenance",
        ),
        ".report": ("render_report", "write_report"),
    },
    submodules=("provenance", "report", "trace", "watch"),
)

__all__ = [
    "CallbackSink",
    "CoverageSummary",
    "CoverageTracker",
    "Event",
    "EventBus",
    "JsonlSink",
    "MemorySink",
    "NULL_BUS",
    "NULL_COVERAGE",
    "NULL_RECORDER",
    "NullBus",
    "NullCoverageTracker",
    "NullRecorder",
    "PlanProvenance",
    "ProvenanceChain",
    "ProvenanceStep",
    "RoundCoverage",
    "Span",
    "TraceRecorder",
    "VIRTUAL",
    "WALL",
    "active_bus",
    "build_plan_provenance",
    "enumerate_fault_space",
    "ledger",
    "metrics",
    "read_events",
    "render_report",
    "set_active_bus",
    "tail_events",
    "validate_event",
    "write_report",
]
