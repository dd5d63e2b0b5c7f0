"""Machine-readable campaign summaries.

Every :func:`repro.bench.harness.run_anduril` outcome (serial or via the
parallel campaign runner) is recorded here; the benchmark session writes
the collected summary to ``benchmarks/out/bench_summary.json``, which
``repro report`` renders, and ``compare --summary-out`` writes the same
document for ``tools/check_summary_equivalence.py``.
"""

from __future__ import annotations

import json
import os
import statistics
from typing import Optional

from ..obs import metrics as obs_metrics
from .tables import OUT_DIR

SCHEMA_VERSION = 2

_OUTCOMES: dict[str, dict] = {}
#: Per-(strategy, case) baseline records — coverage-focused, so the
#: summary can show ANDURIL-vs-baseline fault-space coverage side by side.
_STRATEGY_OUTCOMES: dict[tuple[str, str], dict] = {}


def record_outcome(outcome) -> None:
    """Record one cell's outcome — ANDURIL (``strategy == "anduril"``, or
    no ``strategy`` attribute) per case, a baseline strategy per
    (strategy, case); latest write wins."""
    entry = {
        "success": bool(outcome.success),
        "rounds": int(outcome.rounds),
        "seconds": round(float(outcome.seconds), 6),
    }
    # Profiled campaigns carry the flat repro.obs metrics dict; persist
    # it alongside the outcome fields.
    case_metrics = getattr(outcome, "metrics", None)
    if case_metrics:
        entry["metrics"] = {
            key: round(value, 9) if isinstance(value, float) else value
            for key, value in sorted(case_metrics.items())
        }
    case_coverage = getattr(outcome, "coverage", None)
    if case_coverage:
        entry["coverage"] = case_coverage
    # The cell's runner sections: each present only when its knob moved
    # a counter, and stripped by the equivalence checker, so knob on/off
    # summaries compare.
    telemetry = getattr(outcome, "telemetry", None) or {}
    entry.update(obs_metrics.runner_stats(telemetry.get("counters", {})))
    strategy = getattr(outcome, "strategy", "anduril")
    if strategy == "anduril":
        _OUTCOMES[outcome.case_id] = entry
    else:
        _STRATEGY_OUTCOMES[(strategy, outcome.case_id)] = entry


def clear() -> None:
    _OUTCOMES.clear()
    _STRATEGY_OUTCOMES.clear()


def collected_case_count() -> int:
    return len(_OUTCOMES)


def summarize(
    outcomes: Optional[dict[str, dict]] = None, since: Optional[dict] = None
) -> dict:
    """Aggregate per-case records into the bench-summary document; its
    counters and latency are the registry's movement after ``since``
    (an earlier :func:`~repro.obs.metrics.capture`; default: all)."""
    outcomes = _OUTCOMES if outcomes is None else outcomes
    ordered = dict(
        sorted(outcomes.items(), key=lambda item: (len(item[0]), item[0]))
    )
    seconds = [entry["seconds"] for entry in ordered.values()]
    rounds = [entry["rounds"] for entry in ordered.values()]
    document = {
        "schema": SCHEMA_VERSION,
        "cases": ordered,
        "case_count": len(ordered),
        "successes": sum(1 for entry in ordered.values() if entry["success"]),
        "median_seconds": round(statistics.median(seconds), 6) if seconds else 0.0,
        "median_rounds": statistics.median(rounds) if rounds else 0,
        "total_seconds": round(sum(seconds), 6),
    }
    moved = obs_metrics.capture(since)
    counters = dict(sorted(moved["counters"].items()))
    # Operational counters (e.g. campaign.inline_fallbacks) for post-hoc
    # inspection.  The runner knobs' counters get their own sections
    # (this process plus merged workers), each absent when its knob never
    # moved one, so that summaries with those knobs on and off stay
    # identical outside of them.
    runner_prefixes = tuple(obs_metrics.RUNNER_SECTIONS.values())
    plain = {
        key: value
        for key, value in counters.items()
        if not key.startswith(runner_prefixes)
    }
    if plain:
        document["counters"] = plain
    document.update(obs_metrics.runner_stats(counters))
    coverage = coverage_section(ordered)
    if coverage:
        document["coverage"] = coverage
    # Round/run/feedback latency quantiles: wall-clock, so the
    # equivalence checker strips them.
    latency = obs_metrics.histograms_snapshot(moved["histograms"])
    if latency:
        document["latency"] = latency
    return document


def coverage_section(anduril_cases: Optional[dict[str, dict]] = None) -> dict:
    """ANDURIL-vs-baseline fault-space coverage, keyed by strategy then case.

    Shape: ``{"anduril": {case_id: coverage_dict}, "random": {...}, ...}``.
    Strategies and cases appear only when their runs carried coverage
    accounting, so an unprofiled campaign emits nothing here.
    """
    anduril_cases = _OUTCOMES if anduril_cases is None else anduril_cases
    section: dict[str, dict] = {}
    anduril = {
        case_id: entry["coverage"]
        for case_id, entry in sorted(
            anduril_cases.items(), key=lambda item: (len(item[0]), item[0])
        )
        if entry.get("coverage")
    }
    if anduril:
        section["anduril"] = anduril
    for (strategy, case_id), entry in sorted(
        _STRATEGY_OUTCOMES.items(),
        key=lambda item: (item[0][0], len(item[0][1]), item[0][1]),
    ):
        if entry.get("coverage"):
            section.setdefault(strategy, {})[case_id] = entry["coverage"]
    return section


def _is_plain_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _compactable(node) -> bool:
    """Integer-only arrays, and matrices of integer-only rows."""
    if not isinstance(node, list) or not node:
        return False
    if all(_is_plain_int(item) for item in node):
        return True
    return all(
        isinstance(item, list) and all(_is_plain_int(cell) for cell in item)
        for item in node
    )


def _compact_dumps(document) -> str:
    # Pretty-printed JSON puts every array element on its own line, which
    # explodes the coverage rounds series (hundreds of 5-int records per
    # case x strategy) into tens of thousands of lines in the tracked
    # artifact.  Collapse integer-only arrays — and matrices of them —
    # onto one line, structurally: compactable nodes are swapped for
    # unique marker strings before the indented dump, and the quoted
    # markers are then replaced with their compact serialization.
    # Genuine string values are never rewritten, whatever they contain —
    # the marker is grown until its escaped form appears nowhere in the
    # serialized document.
    raw = json.dumps(document)
    marker = "\x00compact\x00"
    while json.dumps(marker)[1:-1] in raw:
        marker += "\x00"
    compacted: list[str] = []

    def mark(node):
        if isinstance(node, dict):
            return {key: mark(value) for key, value in node.items()}
        if isinstance(node, list):
            if _compactable(node):
                compacted.append(json.dumps(node))
                return f"{marker}{len(compacted) - 1}"
            return [mark(item) for item in node]
        return node

    text = json.dumps(mark(document), indent=2)
    for index, replacement in enumerate(compacted):
        text = text.replace(json.dumps(f"{marker}{index}"), replacement)
    return text + "\n"


def write_bench_summary(
    path: Optional[str] = None, since: Optional[dict] = None
) -> str:
    """Write the summary JSON (:func:`summarize`'s, ``since`` as there)
    under ``benchmarks/out/`` and return its path."""
    if path is None:
        path = os.path.join(OUT_DIR, "bench_summary.json")
    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(_compact_dumps(summarize(since=since)))
    return path
