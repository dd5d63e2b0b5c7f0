"""Fault-injection runtime: site identity, plans, and the FIR."""

from .fir import FIR, InjectionPlan, ProbeTrace, TraceEvent, is_injected
from .sites import FaultCandidate, FaultInstance, SiteRef, normalize_path

__all__ = [
    "FIR",
    "FaultCandidate",
    "FaultInstance",
    "InjectionPlan",
    "ProbeTrace",
    "SiteRef",
    "TraceEvent",
    "is_injected",
    "normalize_path",
]
