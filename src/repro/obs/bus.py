"""The live campaign event bus: a schema-versioned structured event stream.

Where the trace layer (``repro.obs.trace``) records *after the fact* and
the ledger (``repro.obs.ledger``) keeps one line per finished campaign
cell, the bus streams typed progress events *while a campaign runs*:

* lifecycle — ``campaign.start`` / ``case.start`` / ``round.begin`` /
  ``round.end`` / ``plan.fired`` / ``case.done`` / ``campaign.done``;
* ``heartbeat`` — periodic operational stats (cache hit rate, worker
  liveness, and streaming latency histograms from
  :mod:`repro.obs.metrics`).

Events are plain dicts stamped with ``schema`` (the versioning rules of
DESIGN.md §7.2 apply: writers stamp :data:`SCHEMA_VERSION`, readers skip
blank/malformed/newer lines with one aggregate warning, fields are only
ever added within a version) and dispatched to pluggable sinks.  The
:class:`JsonlSink` appends one line per event with a flush after each
write, so a concurrent reader — ``python -m repro watch --follow`` via
:func:`tail_events` — never sees a torn line.

Like the trace recorder, the bus is zero-cost when off: the
:data:`NULL_BUS` singleton answers ``enabled = False`` and every emit is
a no-op, and emission sites guard field construction behind
``bus.enabled``.  Turning the bus on must not perturb exploration —
``ExplorationResult.signature()`` stays byte-identical (enforced by
``tests/core/test_bus_equivalence.py`` and the CI ``event-stream`` job).

Like the rest of ``repro.obs``, this module imports nothing from sibling
``repro`` packages; emitters pass plain values.
"""

from __future__ import annotations

import json
import os
import time
import warnings
from typing import Callable, Iterator, Optional

from . import metrics
from .ledger import parse_jsonl_line, read_jsonl

SCHEMA_VERSION = 1

#: Default event-stream location, next to the ledger.
_REPO_ROOT = os.path.abspath(
    os.path.join(os.path.dirname(__file__), "..", "..", "..")
)
DEFAULT_PATH = os.path.join(_REPO_ROOT, "benchmarks", "out", "events.jsonl")

#: Required fields per event type (beyond the common ``schema``/``t``/
#: ``type``).  ``validate_event`` checks presence, not values — fields
#: are only ever added within a schema version, so extra keys are fine.
EVENT_FIELDS: dict[str, tuple[str, ...]] = {
    "campaign.start": ("cases", "strategies", "jobs", "cells"),
    "case.start": ("case_id", "strategy"),
    "round.begin": ("case_id", "strategy", "round"),
    "round.end": (
        "case_id",
        "strategy",
        "round",
        "injected",
        "satisfied",
        "rank",
        "window_size",
    ),
    "plan.fired": (
        "case_id",
        "strategy",
        "round",
        "site",
        "spec",
        "occurrence",
        "satisfied",
    ),
    "case.done": ("case_id", "strategy", "success", "rounds", "seconds"),
    "campaign.done": ("cells", "successes", "seconds"),
    "heartbeat": ("source",),
}


class EventBus:
    """In-process dispatcher of typed progress events.

    Events are built once (``schema``/``t`` stamped here) and handed to
    every sink.  A sink that raises is dropped with one warning — a bad
    disk must never take down the campaign it is observing.
    """

    enabled = True

    def __init__(self, sinks=(), heartbeat_interval: float = 1.0):
        self._sinks: list = list(sinks)
        self.heartbeat_interval = float(heartbeat_interval)

    def subscribe(self, sink) -> None:
        self._sinks.append(sink)

    def emit(self, type: str, **fields) -> dict:
        """Build, stamp, and dispatch one event; returns the event dict."""
        event = {"schema": SCHEMA_VERSION, "t": time.time(), "type": type}
        event.update(fields)
        self.forward(event)
        return event

    def forward(self, event: dict) -> None:
        """Dispatch a pre-built event without restamping.

        This is how worker-captured events reach the parent's sinks with
        their original timestamps intact.
        """
        for sink in list(self._sinks):
            try:
                sink.write(event)
            except Exception as exc:  # pragma: no cover - defensive
                self._sinks.remove(sink)
                warnings.warn(
                    f"event sink {sink!r} failed ({exc}); dropping it",
                    RuntimeWarning,
                    stacklevel=2,
                )

    def close(self) -> None:
        for sink in self._sinks:
            close = getattr(sink, "close", None)
            if close is not None:
                try:
                    close()
                except OSError:  # pragma: no cover - defensive
                    pass
        self._sinks = []


class NullBus:
    """Disabled bus: every operation is a no-op (``NULL_RECORDER`` twin).

    Emission sites check ``bus.enabled`` before building event fields,
    so a disabled bus costs one attribute read per site.
    """

    __slots__ = ()
    enabled = False
    heartbeat_interval = float("inf")

    def subscribe(self, sink) -> None:
        pass

    def emit(self, type: str, **fields) -> dict:
        return {}

    def forward(self, event: dict) -> None:
        pass

    def close(self) -> None:
        pass


NULL_BUS = NullBus()

_ACTIVE_BUS = NULL_BUS


def active_bus():
    """The process-wide bus every emission site reads.

    One active bus per process, installed with :func:`set_active_bus`:
    by the CLI in the parent, by the pool initializer and task setup in
    campaign workers, and by tests that capture a search's events.
    """
    return _ACTIVE_BUS


def set_active_bus(bus):
    """Install ``bus`` (``None`` → :data:`NULL_BUS`); returns the old one."""
    global _ACTIVE_BUS
    previous = _ACTIVE_BUS
    _ACTIVE_BUS = NULL_BUS if bus is None else bus
    return previous


class JsonlSink:
    """Crash-safe append-only JSONL sink.

    One ``sort_keys`` JSON line per event, flushed immediately: a crash
    loses at most the event being written, and a concurrent tail reader
    only ever sees whole lines (plus possibly one unterminated partial,
    which :func:`tail_events` buffers until its newline arrives).
    """

    def __init__(self, path: str, append: bool = True):
        self.path = path
        directory = os.path.dirname(os.path.abspath(path))
        if directory:
            os.makedirs(directory, exist_ok=True)
        self._handle = open(path, "a" if append else "w", encoding="utf-8")

    def write(self, event: dict) -> None:
        self._handle.write(json.dumps(event, sort_keys=True) + "\n")
        self._handle.flush()

    def close(self) -> None:
        if not self._handle.closed:
            self._handle.close()


class MemorySink:
    """Collects events in a list — used by tests and campaign workers."""

    def __init__(self):
        self.events: list[dict] = []

    def write(self, event: dict) -> None:
        self.events.append(event)

    def close(self) -> None:
        pass


class CallbackSink:
    """Adapts a plain callable into a sink."""

    def __init__(self, callback: Callable[[dict], None]):
        self._callback = callback

    def write(self, event: dict) -> None:
        self._callback(event)


def read_events(path: Optional[str] = None) -> list[dict]:
    """Load an event stream tolerantly, by the ledger's reader rules
    (:func:`~repro.obs.ledger.read_jsonl`)."""
    return read_jsonl(
        DEFAULT_PATH if path is None else path, SCHEMA_VERSION, "event"
    )


def tail_events(
    path: str,
    follow: bool = False,
    poll_interval: float = 0.1,
    timeout: Optional[float] = None,
) -> Iterator[dict]:
    """Stream events from ``path``, optionally following a live writer.

    Unreadable lines are skipped silently (the live view must not stall
    on one bad line).  Only newline-terminated lines are yielded: a
    partially written last line is buffered until the writer finishes
    it, so concurrent appends never produce torn events.  In follow
    mode the stream ends when a ``campaign.done`` event arrives (or
    ``timeout`` seconds pass with a campaign still unfinished); without
    ``follow`` it ends at EOF.
    """
    buffer = ""
    deadline = None if timeout is None else time.monotonic() + timeout
    handle = None
    try:
        while True:
            if handle is None:
                try:
                    handle = open(path, encoding="utf-8")
                except OSError:
                    if not follow:
                        return
                    if deadline is not None and time.monotonic() > deadline:
                        return
                    time.sleep(poll_interval)
                    continue
            chunk = handle.read()
            if chunk:
                buffer += chunk
                while "\n" in buffer:
                    line, buffer = buffer.split("\n", 1)
                    event = parse_jsonl_line(line, SCHEMA_VERSION)
                    if event is None:
                        continue
                    yield event
                    if follow and event.get("type") == "campaign.done":
                        return
            else:
                if not follow:
                    return
                if deadline is not None and time.monotonic() > deadline:
                    return
                time.sleep(poll_interval)
    finally:
        if handle is not None:
            handle.close()


def validate_event(event) -> list[str]:
    """Schema-check one event; returns a list of problems (empty = valid)."""
    problems: list[str] = []
    if not isinstance(event, dict):
        return [f"not an object: {type(event).__name__}"]
    for field in ("schema", "t", "type"):
        if field not in event:
            problems.append(f"missing common field {field!r}")
    schema = event.get("schema")
    if schema is not None and not isinstance(schema, int):
        problems.append(f"schema tag is not an integer: {schema!r}")
    event_type = event.get("type")
    if not isinstance(event_type, str):
        problems.append(f"event type is not a string: {event_type!r}")
        return problems
    required = EVENT_FIELDS.get(event_type)
    if required is None:
        problems.append(f"unknown event type {event_type!r}")
        return problems
    for field in required:
        if field not in event:
            problems.append(f"{event_type}: missing field {field!r}")
    return problems


def heartbeat_stats() -> dict:
    """Operational stats for a ``heartbeat`` event: the registry's
    runner sections (:func:`repro.obs.metrics.runner_stats`) plus the
    latency histogram snapshot.  The campaign pool adds ``workers``."""
    stats = metrics.runner_stats()
    latency = metrics.histograms_snapshot()
    if latency:
        stats["latency"] = latency
    return stats


def campaign_start(bus, cells: list[tuple[str, str]], jobs: int) -> None:
    """Announce a campaign of ``(case_id, strategy)`` cells, in order."""
    bus.emit(
        "campaign.start",
        cases=list(dict.fromkeys(case_id for case_id, _ in cells)),
        strategies=list(dict.fromkeys(strategy for _, strategy in cells)),
        jobs=jobs,
        cells=len(cells),
    )


def campaign_done(bus, cells: int, successes: int, seconds: float) -> None:
    bus.emit(
        "campaign.done",
        cells=cells,
        successes=successes,
        seconds=round(seconds, 6),
    )


class RoundReporter:
    """One campaign cell's voice on the bus.

    Owns what every search loop used to hand-copy: the lifecycle events'
    field layout, the per-round latency observes, and the throttled
    heartbeat.  Built per search, so the first finished round always
    heartbeats.  ``bus=None`` means the process-active bus.
    """

    def __init__(self, bus, case_id: str, strategy: str) -> None:
        self.bus = active_bus() if bus is None else bus
        self._cell = {"case_id": case_id, "strategy": strategy}
        self._source = "explorer" if strategy == "anduril" else "baseline"
        self._next_heartbeat = 0.0

    def start(self) -> None:
        self.bus.emit("case.start", **self._cell)

    def begin(self, round_number: int) -> None:
        """A round that will run; every ``begin`` is closed by an ``end``."""
        if self.bus.enabled:
            self.bus.emit("round.begin", round=round_number, **self._cell)

    def end(
        self,
        round_number: int,
        injected,
        satisfied: bool,
        rank: Optional[int],
        window_size: int,
        run_seconds: float,
        feedback_seconds: float,
        round_seconds: float,
    ) -> None:
        """Close a round: latencies, ``plan.fired`` when something fired,
        ``round.end``, and a heartbeat when one is due."""
        metrics.observe("latency.run_seconds", run_seconds)
        metrics.observe("latency.feedback_seconds", feedback_seconds)
        metrics.observe("latency.round_seconds", round_seconds)
        bus = self.bus
        if not bus.enabled:
            return
        if injected is not None:
            bus.emit(
                "plan.fired",
                round=round_number,
                site=injected.site_id,
                spec=injected.spec,
                occurrence=injected.occurrence,
                satisfied=satisfied,
                **self._cell,
            )
        bus.emit(
            "round.end",
            round=round_number,
            injected=str(injected) if injected is not None else None,
            satisfied=satisfied,
            rank=rank,
            window_size=window_size,
            **self._cell,
        )
        now = time.monotonic()
        if now >= self._next_heartbeat:
            self._next_heartbeat = now + bus.heartbeat_interval
            bus.emit(
                "heartbeat",
                source=self._source,
                round=round_number,
                **self._cell,
                **heartbeat_stats(),
            )

    def done(self, success: bool, rounds: int, seconds: float) -> None:
        self.bus.emit(
            "case.done",
            success=bool(success),
            rounds=int(rounds),
            seconds=round(float(seconds), 6),
            **self._cell,
        )
