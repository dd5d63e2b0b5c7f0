"""The disabled half of :mod:`repro.obs.trace` (which re-exports it):
clock names and the no-op recorder the simulator, FIR and Explorer hold,
apart from the recording machinery a process that never traces can skip.
"""

from __future__ import annotations

#: Clock domains.  Virtual timestamps are deterministic simulator seconds;
#: wall timestamps are host seconds relative to the recorder's creation.
WALL = "wall"
VIRTUAL = "virtual"


class _NullSpan:
    """Reusable no-op context manager (one shared instance, zero alloc)."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info) -> None:
        return None


_NULL_SPAN = _NullSpan()


class NullRecorder:
    """The disabled recorder: every method is a no-op.

    One shared instance (:data:`NULL_RECORDER`) stands in wherever no
    recorder was configured, so instrumented code never branches on
    ``None`` and the off path performs no timing calls and no
    allocations beyond argument passing.
    """

    __slots__ = ()
    enabled = False

    def wall_now(self) -> float:
        return 0.0

    def rel(self, perf_counter_value: float) -> float:
        return 0.0

    def span(self, name: str, category: str = "", **args) -> _NullSpan:
        return _NULL_SPAN

    def add_span(self, *a, **k) -> None:
        return None

    def event(self, *a, **k) -> None:
        return None

    def count(self, name: str, delta: float = 1.0) -> None:
        return None

    def metrics(self) -> dict:
        return {}


NULL_RECORDER = NullRecorder()
