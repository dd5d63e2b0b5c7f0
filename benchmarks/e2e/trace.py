"""Span tracing for the e2e benchmark, applied from outside the program.

``install`` rebinds the public entry points of each layer to span
wrappers: a plain function is rebound in every loaded ``repro`` module
that imported it by name, a method on its class.  Spans live in memory
as ``[name, layer, start, end, parent, cell, value]`` rows and are
reduced to per-layer self time when the leg ends; a layer's self time is
its spans' duration minus the interval their child spans cover.  Nothing
under ``src/`` knows this file exists.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import statistics
import sys
import time

NAME, LAYER, START, END, PARENT, CELL, VALUE = range(7)

LAYERS = (
    "sim", "checkpoint", "injection", "logs", "core", "analysis",
    "baselines", "cache", "parallel", "obs", "cli",
)

#: (module, attribute path, span name, layer).  The layer is the one the
#: cost is booked to, which for ``build_context`` is ``analysis`` (it is
#: the per-cell causal-graph rebuild) although the function sits in
#: ``baselines/base.py``.
TARGETS = (
    ("repro.sim.cluster", "execute_workload", "sim.run", "sim"),
    ("repro.sim.checkpoint", "CheckpointPool.__init__", "checkpoint.pool", "checkpoint"),
    ("repro.sim.checkpoint", "CheckpointPool.runner", "checkpoint.runner", "checkpoint"),
    ("repro.sim.checkpoint", "CheckpointPool.close", "checkpoint.close", "checkpoint"),
    ("repro.sim.checkpoint", "Checkpoint.__init__", "checkpoint.open", "checkpoint"),
    ("repro.sim.checkpoint", "Checkpoint.run", "checkpoint.fork", "checkpoint"),
    ("repro.logs.parser", "LogParser.parse_text", "logs.parse", "logs"),
    ("repro.logs.diff", "LogComparator.compare", "logs.diff", "logs"),
    ("repro.logs.diff", "PreparedComparator.compare", "logs.diff", "logs"),
    ("repro.core.explorer", "Explorer.prepare", "core.prepare", "core"),
    ("repro.core.explorer", "Explorer.explore", "core.explore", "core"),
    ("repro.core.priority", "FaultPriorityPool.window", "core.window", "core"),
    ("repro.core.priority", "FaultPriorityPool.rank_of_site", "core.rank", "core"),
    ("repro.core.observables", "ObservableSet.apply_feedback", "core.feedback", "core"),
    ("repro.analysis.system_model", "analyze_package", "analysis.model", "analysis"),
    ("repro.analysis.causal", "CausalGraphBuilder.build", "analysis.graph", "analysis"),
    ("repro.baselines.base", "build_context", "analysis.context", "analysis"),
    ("repro.cache.flowcache", "cached_propagation_graph", "analysis.flow", "analysis"),
    ("repro.baselines.base", "StrategyRunner.run", "baselines.run", "baselines"),
    ("repro.cache.runcache", "RunCache.execute", "cache.execute", "cache"),
    ("repro.cache.runcache", "RunCache.put", "cache.put", "cache"),
    ("repro.bench.parallel", "run_tasks", "parallel.run_tasks", "parallel"),
    ("repro.bench.parallel", "execute_task", "parallel.cell", "parallel"),
    ("repro.obs.bus", "EventBus.emit", "obs.emit", "obs"),
    ("repro.obs.bus", "EventBus.forward", "obs.forward", "obs"),
    ("repro.obs.ledger", "append_entries", "obs.ledger", "obs"),
)


class Tracer:
    """In-memory span recorder; one per leg process."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.enabled = False
        self.cell = 0
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, layer: str):
        """Record the enclosed block as one span (the leg's root span)."""
        row = self._open(name, layer)
        try:
            yield
        finally:
            self._close(row)

    def _open(self, name: str, layer: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        row = [name, layer, time.perf_counter(), 0.0, parent, self.cell, 0.0]
        self._stack.append(len(self.spans))
        self.spans.append(row)
        return row

    def _close(self, row: list) -> None:
        row[END] = time.perf_counter()
        self._stack.pop()

    def wrap(self, function, name: str, layer: str):
        """``function`` with a span around every call while enabled."""
        new_cell = name == "parallel.cell"
        counts_requests = name == "sim.run"

        @functools.wraps(function)
        def traced(*args, **kwargs):
            if not self.enabled:
                return function(*args, **kwargs)
            if new_cell:
                self.cell += 1
            row = self._open(name, layer)
            try:
                result = function(*args, **kwargs)
                if counts_requests:
                    row[VALUE] = result.injection_requests
                return result
            finally:
                self._close(row)

        return traced


def install(tracer: Tracer) -> None:
    """Rebind every entry in :data:`TARGETS` to a span wrapper."""
    for module_name, path, name, layer in TARGETS:
        module = importlib.import_module(module_name)
        owner_name, _, attribute = path.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name)
            setattr(owner, attribute, tracer.wrap(getattr(owner, attribute), name, layer))
            continue
        original = getattr(module, attribute)
        wrapper = tracer.wrap(original, name, layer)
        for loaded_name, loaded in list(sys.modules.items()):
            if loaded is None or not loaded_name.startswith(("repro", "bench_cases")):
                continue
            for key, value in list(vars(loaded).items()):
                if value is original:
                    setattr(loaded, key, wrapper)


def percentile(values, q: float) -> float:
    """Nearest-rank percentile; 0.0 for no samples (layer did no work)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def reduce_spans(spans: list[list]) -> dict:
    """Per-layer figures of one traced leg, from its raw spans.

    Durations are seconds here; the caller scales to each metric's unit.
    """
    children = [0.0] * len(spans)
    has_child = [False] * len(spans)
    for row in spans:
        if row[PARENT] >= 0:
            children[row[PARENT]] += row[END] - row[START]
            has_child[row[PARENT]] = True
    busy = dict.fromkeys(LAYERS, 0.0)
    durations: dict[str, list[float]] = {}
    self_times: dict[str, list[tuple[float, bool]]] = {}
    requests = 0.0
    for index, row in enumerate(spans):
        duration = row[END] - row[START]
        own = duration - children[index]
        busy[row[LAYER]] += own
        durations.setdefault(row[NAME], []).append(duration)
        self_times.setdefault(row[NAME], []).append((own, has_child[index]))
        requests += row[VALUE]

    def p50(name: str) -> float:
        return percentile(durations.get(name, []), 0.5)

    def total(name: str) -> float:
        return sum(durations.get(name, []))

    runs = durations.get("sim.run", [])
    lookups = self_times.get("cache.execute", [])
    # A cache lookup that ran a child missed and paid the store; one
    # without a child was served, so its self time is the read path.
    served = [own for own, missed in lookups if not missed]
    stored = [own for own, missed in lookups if missed]
    # prepare() is memoized per Explorer; only the call that did the work
    # has children.
    prepares = [
        spans[index][END] - spans[index][START]
        for index, row in enumerate(spans)
        if row[NAME] == "core.prepare" and has_child[index]
    ]
    return {
        "busy": busy,
        "attributed": sum(busy.values()),
        "sim.runs": len(runs),
        "sim.run_p50": percentile(runs, 0.5),
        "sim.run_p99": percentile(runs, 0.99),
        "sim.requests_per_s": requests / sum(runs) if runs else 0.0,
        "checkpoint.open_p50": p50("checkpoint.open"),
        "checkpoint.fork_p50": p50("checkpoint.fork"),
        "logs.diff_p50": p50("logs.diff"),
        "core.prepare_p50": statistics.median(prepares) if prepares else 0.0,
        "core.rerank_p50": p50("core.window"),
        "core.feedback_p50": p50("core.feedback"),
        "core.rounds": len(durations.get("core.window", [])),
        "analysis.graph_p50": p50("analysis.graph"),
        "analysis.context": total("analysis.context"),
        "analysis.flow": total("analysis.flow"),
        "cache.get_p50": percentile(served, 0.5),
        "cache.put_p50": percentile(stored, 0.5),
        "parallel.run_tasks_self": sum(
            own for own, _ in self_times.get("parallel.run_tasks", [])
        ),
        "obs.events": len(durations.get("obs.forward", [])),
        "obs.ledger": total("obs.ledger"),
    }
