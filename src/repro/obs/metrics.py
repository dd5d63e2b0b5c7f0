"""Process-wide operational counters and streaming histograms.

A tiny metrics registry for infrastructure-level signals that do not
belong to any single run's :class:`~repro.obs.trace.TraceRecorder` —
e.g. how often the campaign process pool degraded to inline execution.
Bumps are cheap enough to do unconditionally.  The registry is
process-local, but not process-lost: a campaign worker :func:`capture`\\ s
each cell's movement (counters, histogram buckets, and the bus events
it collected) as one picklable envelope that rides back on the result,
and the parent :func:`merge`\\ s it — so campaign-level totals survive the
process boundary.  :func:`runner_stats` is the one reducer every report
of the runner knobs' bookkeeping reads.

:func:`observe` feeds streaming histograms of latency distributions
(round latency, run latency, feedback seconds).  They use fixed
logarithmic buckets — ~15 % relative resolution, a few dozen buckets
over the microsecond-to-hour range — so quantiles
(:func:`histograms_snapshot`) are computed without retaining samples,
and worker histograms merge exactly (bucket-wise addition).
"""

from __future__ import annotations

import math
from typing import Callable, Optional

_counters: dict[str, float] = {}

#: Log-bucket base: consecutive bucket boundaries differ by ~15 %, which
#: bounds quantile error to the same ratio — plenty for p50/p90/p99 of
#: wall-clock latencies.
_BUCKET_BASE = 1.15
_LOG_BASE = math.log(_BUCKET_BASE)
_MIN_VALUE = 1e-6

#: name -> {"count": int, "sum": float, "buckets": {index: count}}
_histograms: dict[str, dict] = {}


def increment(name: str, delta: float = 1.0) -> float:
    """Add ``delta`` to counter ``name`` and return the new value."""
    value = _counters.get(name, 0.0) + delta
    _counters[name] = value
    return value


def get(name: str) -> float:
    return _counters.get(name, 0.0)


def snapshot() -> dict[str, float]:
    """A copy of all counters (for summaries and tests)."""
    return dict(_counters)


def _number(value: float):
    """A counter value as it is reported: an ``int`` when it is one."""
    rounded = round(float(value), 6)
    return int(rounded) if rounded.is_integer() else rounded


#: The runner knobs' bookkeeping: report section -> counter prefix.  A
#: new knob's counters become a section everywhere — per-cell stats,
#: summaries, heartbeats, the CLI's stderr lines, the HTML report — by
#: adding its prefix here.
RUNNER_SECTIONS = {
    "cache": "cache.",
}


def runner_stats(counters: Optional[dict[str, float]] = None) -> dict:
    """Reduce counters (default: this registry) to the runner sections.

    ``{"cache": {...}}`` with the
    prefix stripped, keys in the order given, integral values as
    ``int`` and the rest rounded to microseconds.  A section whose knob
    never moved a counter is omitted, so on/off documents differ only
    by whole sections.  ``cache`` also carries the derived ``hit_rate``.
    """
    if counters is None:
        counters = _counters
    stats: dict[str, dict] = {}
    for section, prefix in RUNNER_SECTIONS.items():
        values = {
            name[len(prefix):]: _number(value)
            for name, value in counters.items()
            if name.startswith(prefix)
        }
        if values:
            stats[section] = values
    cache = stats.get("cache")
    if cache:
        hits = cache.get("hits", 0)
        lookups = hits + cache.get("misses", 0)
        cache["hit_rate"] = round(hits / lookups, 6) if lookups else 0.0
    return stats


def _bucket_index(value: float) -> int:
    return int(math.floor(math.log(max(value, _MIN_VALUE)) / _LOG_BASE))


def _bucket_upper(index: int) -> float:
    """Upper boundary of bucket ``index`` — the quantile estimate."""
    return _BUCKET_BASE ** (index + 1)


def _histogram(name: str) -> dict:
    histogram = _histograms.get(name)
    if histogram is None:
        histogram = {"count": 0, "sum": 0.0, "buckets": {}}
        _histograms[name] = histogram
    return histogram


def observe(name: str, value: float) -> None:
    """Record one sample into the streaming histogram ``name``."""
    histogram = _histogram(name)
    index = _bucket_index(value)
    histogram["count"] += 1
    histogram["sum"] += value
    histogram["buckets"][index] = histogram["buckets"].get(index, 0) + 1


def _quantile(buckets: dict[int, int], count: int, q: float) -> float:
    """Quantile estimate by cumulative walk over the log buckets."""
    target = q * count
    seen = 0
    for index in sorted(buckets):
        seen += buckets[index]
        if seen >= target:
            return _bucket_upper(index)
    return _bucket_upper(max(buckets)) if buckets else 0.0


def histograms_snapshot(histograms: Optional[dict] = None) -> dict[str, dict]:
    """Quantile summaries of every histogram (for heartbeats/summaries):
    this registry's, or the raw ``histograms`` of a :func:`capture`.

    Returns ``{name: {count, mean, p50, p90, p99}}`` with quantiles
    rounded to the bucket resolution.
    """
    if histograms is None:
        histograms = _histograms
    summary: dict[str, dict] = {}
    for name, histogram in sorted(histograms.items()):
        count = histogram["count"]
        if not count:
            continue
        buckets = histogram["buckets"]
        summary[name] = {
            "count": count,
            "mean": round(histogram["sum"] / count, 6),
            "p50": round(_quantile(buckets, count, 0.50), 6),
            "p90": round(_quantile(buckets, count, 0.90), 6),
            "p99": round(_quantile(buckets, count, 0.99), 6),
        }
    return summary


_NO_HISTOGRAM = {"count": 0, "sum": 0.0, "buckets": {}}


def capture(since: Optional[dict] = None, events=()) -> dict:
    """This registry as one picklable envelope — the worker→parent form.

    ``{"counters", "histograms", "events"}``: counter values, raw
    histogram buckets, and the bus ``events`` the caller collected
    alongside.  With ``since`` (an earlier capture) only the movement
    after it is kept and unmoved names are omitted, so a worker that
    runs many cells ships exactly each cell's contribution and the
    parent's :func:`merge` never double counts.
    """
    base_counters = since["counters"] if since else {}
    base_histograms = since["histograms"] if since else {}
    counters = {}
    for name, value in _counters.items():
        moved = value - base_counters.get(name, 0.0)
        if moved:
            counters[name] = moved
    histograms = {}
    for name, histogram in _histograms.items():
        base = base_histograms.get(name, _NO_HISTOGRAM)
        base_buckets = base["buckets"]
        buckets = {
            index: count - base_buckets.get(index, 0)
            for index, count in histogram["buckets"].items()
            if count != base_buckets.get(index, 0)
        }
        if buckets:
            histograms[name] = {
                "count": histogram["count"] - base["count"],
                "sum": histogram["sum"] - base["sum"],
                "buckets": buckets,
            }
    return {
        "counters": counters,
        "histograms": histograms,
        "events": list(events),
    }


def merge(envelope: dict, forward: Optional[Callable[[dict], None]] = None) -> None:
    """Fold a :func:`capture` envelope into this process.

    Counters add; log buckets add bucket-wise, which loses nothing, so
    campaign-level quantiles equal what one process would have seen;
    the captured events go to ``forward`` (the parent bus's) in the
    order they were emitted.
    """
    for name, value in envelope["counters"].items():
        _counters[name] = _counters.get(name, 0.0) + value
    for name, incoming in envelope["histograms"].items():
        histogram = _histogram(name)
        histogram["count"] += incoming["count"]
        histogram["sum"] += incoming["sum"]
        buckets = histogram["buckets"]
        for index, count in incoming["buckets"].items():
            buckets[index] = buckets.get(index, 0) + count
    if forward is not None:
        for event in envelope["events"]:
            forward(event)


def reset() -> None:
    _counters.clear()
    _histograms.clear()
