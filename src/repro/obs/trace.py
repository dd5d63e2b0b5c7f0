"""Structured run-level tracing: spans, events, and counters.

The Explorer steers on internal feedback state — observable priorities,
temporal distances, site rankings — that used to be invisible outside
end-of-search aggregates.  A :class:`TraceRecorder` captures that state
as it evolves:

* **spans** — timed phases.  Host-side phases (per-round ``prepare`` /
  ``run`` / ``feedback`` / ``rerank``) are measured on the **wall**
  clock; anything that happens inside the deterministic simulator (the
  per-run workload execution) is stamped with **virtual** sim time, so
  re-running the same ``(seed, plan)`` yields the same virtual spans.
* **events** — instant records: every FIR injection decision with its
  matched instance, every observable-priority adjustment with the old
  and new ``I_k``, every window re-ranking with the top-k entries and
  the ground-truth site's rank (a per-round Figure 6 trajectory).
* **counters** — monotonic totals (scheduler events executed, network
  messages delivered, FIR requests, decision seconds, virtual time).

Recording is **off by default**.  Call sites hold a recorder that is
either a real :class:`TraceRecorder` or the shared :data:`NULL_RECORDER`
singleton whose methods return immediately — the no-op path allocates
nothing and takes no timestamps, so the ``(seed, plan)`` determinism and
the cost profile of the search are unchanged when tracing is disabled.

Exports: Chrome ``trace_event``-format JSON (:meth:`TraceRecorder.to_chrome`,
loadable in ``chrome://tracing`` / Perfetto), a structured JSON document
(:meth:`to_json`), a flat metrics dict (:meth:`metrics`) that flows into
``CellOutcome`` and ``bench_summary.json``, and a human-readable text
summary (:meth:`to_text`).
"""

from __future__ import annotations

import dataclasses
import json
import time
from typing import Any, Optional

from .null import (  # noqa: F401  (public names of this module)
    NULL_RECORDER,
    VIRTUAL,
    WALL,
    NullRecorder,
)

#: Chrome trace "process" lanes, one per clock domain.
_PID_BY_CLOCK = {WALL: 1, VIRTUAL: 2}
_LANE_NAMES = {1: "host (wall clock)", 2: "simulator (virtual clock)"}


@dataclasses.dataclass(frozen=True)
class Span:
    """A timed phase on one clock."""

    name: str
    category: str
    clock: str        # WALL or VIRTUAL
    start: float      # seconds on its clock
    duration: float   # seconds
    args: dict


@dataclasses.dataclass(frozen=True)
class Event:
    """An instant record on one clock."""

    name: str
    category: str
    clock: str
    time: float       # seconds on its clock
    args: dict


class _SpanContext:
    """Context manager that records a wall-clock span on exit."""

    __slots__ = ("_recorder", "_name", "_category", "_args", "_started")

    def __init__(self, recorder: "TraceRecorder", name: str, category: str,
                 args: dict) -> None:
        self._recorder = recorder
        self._name = name
        self._category = category
        self._args = args

    def __enter__(self) -> "_SpanContext":
        self._started = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        recorder = self._recorder
        recorder.add_span(
            self._name,
            self._category,
            clock=WALL,
            start=self._started - recorder._origin,
            duration=time.perf_counter() - self._started,
            **self._args,
        )


class TraceRecorder:
    """Collects spans, events, and counters for one run or search."""

    enabled = True

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.events: list[Event] = []
        self.counters: dict[str, float] = {}
        #: Wall timestamps are relative to this perf_counter origin.
        self._origin = time.perf_counter()

    # ----------------------------------------------------------------- clocks

    def wall_now(self) -> float:
        """Seconds of wall time since the recorder was created."""
        return time.perf_counter() - self._origin

    def rel(self, perf_counter_value: float) -> float:
        """Convert an already-sampled ``time.perf_counter()`` value.

        Instrumented code that times a phase anyway can reuse its own
        samples instead of paying extra clock reads.
        """
        return perf_counter_value - self._origin

    # -------------------------------------------------------------- recording

    def span(self, name: str, category: str = "", **args) -> _SpanContext:
        """Context manager recording a wall-clock span around a block."""
        return _SpanContext(self, name, category, args)

    def add_span(
        self,
        name: str,
        category: str = "",
        *,
        clock: str = WALL,
        start: float = 0.0,
        duration: float = 0.0,
        **args,
    ) -> None:
        self.spans.append(Span(name, category, clock, start, duration, args))

    def event(
        self,
        name: str,
        category: str = "",
        *,
        clock: str = WALL,
        ts: Optional[float] = None,
        **args,
    ) -> None:
        if ts is None:
            ts = self.wall_now() if clock == WALL else 0.0
        self.events.append(Event(name, category, clock, ts, args))

    def count(self, name: str, delta: float = 1.0) -> None:
        self.counters[name] = self.counters.get(name, 0.0) + delta

    # -------------------------------------------------------------- reporting

    def metrics(self) -> dict:
        """Flat metrics dict: counters plus per-span-name aggregates."""
        out: dict[str, float] = dict(self.counters)
        totals: dict[str, float] = {}
        counts: dict[str, int] = {}
        for span in self.spans:
            totals[span.name] = totals.get(span.name, 0.0) + span.duration
            counts[span.name] = counts.get(span.name, 0) + 1
        for name in sorted(totals):
            out[f"span.{name}.seconds"] = totals[name]
            out[f"span.{name}.count"] = counts[name]
        out["event_count"] = len(self.events)
        return out

    # --------------------------------------------------------------- exports

    def to_chrome(self) -> dict:
        """The Chrome ``trace_event`` JSON object format.

        Wall-clock records land in pid 1 ("host"), virtual-clock records
        in pid 2 ("simulator"); both lanes' timestamps are microseconds
        on their own clock.
        """
        trace_events: list[dict] = [
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "tid": 0,
                "args": {"name": label},
            }
            for pid, label in sorted(_LANE_NAMES.items())
        ]
        for span in self.spans:
            trace_events.append(
                {
                    "name": span.name,
                    "cat": span.category or "default",
                    "ph": "X",
                    "ts": span.start * 1e6,
                    "dur": span.duration * 1e6,
                    "pid": _PID_BY_CLOCK.get(span.clock, 1),
                    "tid": 0,
                    "args": _jsonable(span.args),
                }
            )
        for event in self.events:
            trace_events.append(
                {
                    "name": event.name,
                    "cat": event.category or "default",
                    "ph": "i",
                    "s": "p",
                    "ts": event.time * 1e6,
                    "pid": _PID_BY_CLOCK.get(event.clock, 1),
                    "tid": 0,
                    "args": _jsonable(event.args),
                }
            )
        trace_events.append(
            {
                "name": "metrics",
                "cat": "summary",
                "ph": "i",
                "s": "g",
                "ts": self.wall_now() * 1e6,
                "pid": 1,
                "tid": 0,
                "args": _jsonable(self.metrics()),
            }
        )
        return {"traceEvents": trace_events, "displayTimeUnit": "ms"}

    def to_json(self) -> dict:
        """A structured document: spans, events, and the metrics dict."""
        return {
            "schema": 1,
            "spans": [dataclasses.asdict(span) for span in self.spans],
            "events": [dataclasses.asdict(event) for event in self.events],
            "metrics": self.metrics(),
        }

    def to_text(self) -> str:
        """Human-readable summary: counters, span totals, key events."""
        lines = ["== counters =="]
        for name, value in sorted(self.counters.items()):
            lines.append(f"  {name} = {value:g}")
        lines.append("== spans (total seconds by name) ==")
        metrics = self.metrics()
        for key in sorted(metrics):
            if key.startswith("span.") and key.endswith(".seconds"):
                name = key[len("span."):-len(".seconds")]
                count = int(metrics[f"span.{name}.count"])
                lines.append(f"  {name}: {metrics[key]:.6f}s over {count} span(s)")
        lines.append(f"== events ({len(self.events)}) ==")
        for event in self.events:
            args = json.dumps(_jsonable(event.args), sort_keys=True)
            lines.append(
                f"  [{event.clock} {event.time:.6f}s] {event.name} {args}"
            )
        return "\n".join(lines)


def _jsonable(value: Any) -> Any:
    """Best-effort conversion of arg values to JSON-serializable shapes."""
    if isinstance(value, dict):
        return {str(key): _jsonable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)
