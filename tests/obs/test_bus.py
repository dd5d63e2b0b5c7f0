"""The campaign event bus: typed emission, sinks, the tolerant reader,
schema validation, the active-bus switch, and the streaming histograms
that feed heartbeats and ``bench_summary.json``."""

import json
import math
import os
import warnings

import pytest

from repro.obs import bus as bus_mod
from repro.obs import metrics
from repro.obs.bus import (
    NULL_BUS,
    CallbackSink,
    EventBus,
    JsonlSink,
    MemorySink,
    NullBus,
    RoundReporter,
    active_bus,
    heartbeat_stats,
    read_events,
    set_active_bus,
    validate_event,
)


@pytest.fixture(autouse=True)
def clean_state():
    metrics.reset()
    yield
    metrics.reset()
    set_active_bus(None)


# ------------------------------------------------------------------ null bus


def test_null_bus_is_disabled_and_inert():
    assert NULL_BUS.enabled is False
    assert isinstance(NULL_BUS, NullBus)
    assert math.isinf(NULL_BUS.heartbeat_interval)
    # Every operation is a no-op that never raises.
    NULL_BUS.emit("round.end", case_id="f1", strategy="anduril", round=1,
                  injected=None, satisfied=False, rank=None, window_size=0)
    NULL_BUS.forward({"type": "heartbeat"})
    NULL_BUS.close()


def test_active_bus_defaults_to_null_and_swaps():
    assert active_bus() is NULL_BUS
    capture = MemorySink()
    bus = EventBus([capture])
    previous = set_active_bus(bus)
    try:
        assert previous is NULL_BUS
        assert active_bus() is bus
    finally:
        set_active_bus(None)
    assert active_bus() is NULL_BUS


# ---------------------------------------------------------------- emit/sinks


def test_emit_stamps_envelope_and_dispatches():
    capture = MemorySink()
    bus = EventBus([capture])
    bus.emit("case.start", case_id="f1", strategy="anduril")
    assert len(capture.events) == 1
    event = capture.events[0]
    assert event["type"] == "case.start"
    assert event["schema"] == bus_mod.SCHEMA_VERSION
    assert isinstance(event["t"], float)
    assert event["case_id"] == "f1"
    assert validate_event(event) == []


def test_forward_dispatches_prebuilt_events_without_restamping():
    capture = MemorySink()
    bus = EventBus([capture])
    original = {"schema": 1, "t": 123.0, "type": "heartbeat", "source": "x"}
    bus.forward(dict(original))
    assert capture.events == [original]


def test_callback_sink_and_subscribe():
    seen = []
    bus = EventBus([CallbackSink(seen.append)])
    subscribed = []
    bus.subscribe(CallbackSink(subscribed.append))
    bus.emit("campaign.done", cells=1, successes=1, seconds=0.1)
    assert len(seen) == 1 and len(subscribed) == 1
    assert seen[0]["type"] == "campaign.done"


def test_failing_sink_is_dropped_with_one_warning():
    class Exploding:
        def __call__(self, event):
            raise RuntimeError("sink died")

    capture = MemorySink()
    bus = EventBus([CallbackSink(Exploding()), capture])
    with pytest.warns(RuntimeWarning, match="dropping it"):
        bus.emit("heartbeat", source="test")
    # The survivor still receives; the dead sink never raises again.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        bus.emit("heartbeat", source="test")
    assert len(capture.events) == 2


# ------------------------------------------------------------ jsonl round-trip


def test_jsonl_sink_round_trips_through_reader(tmp_path):
    path = str(tmp_path / "events.jsonl")
    bus = EventBus([JsonlSink(path, append=False)])
    bus.emit("campaign.start", cases=["f1"], strategies=["anduril"],
             jobs=1, cells=1)
    bus.emit("case.start", case_id="f1", strategy="anduril")
    bus.emit("case.done", case_id="f1", strategy="anduril", success=True,
             rounds=3, seconds=0.5)
    bus.close()
    events = read_events(path)
    assert [e["type"] for e in events] == [
        "campaign.start", "case.start", "case.done"
    ]
    assert all(validate_event(e) == [] for e in events)


def test_reader_skips_junk_with_one_warning(tmp_path):
    path = tmp_path / "events.jsonl"
    good = {"schema": bus_mod.SCHEMA_VERSION, "t": 1.0,
            "type": "heartbeat", "source": "test"}
    newer = dict(good, schema=bus_mod.SCHEMA_VERSION + 1)
    path.write_text(
        "\n".join([
            json.dumps(good),
            "",                      # blank
            "{not json",             # malformed
            '"a string"',            # non-dict
            json.dumps(newer),       # newer schema
            json.dumps(good),
        ]) + "\n",
        encoding="utf-8",
    )
    with pytest.warns(RuntimeWarning) as caught:
        events = read_events(str(path))
    assert len(events) == 2
    assert len(caught) == 1
    assert "skipped 3" in str(caught[0].message)


def test_reader_missing_file_is_empty(tmp_path):
    assert read_events(str(tmp_path / "missing.jsonl")) == []


# -------------------------------------------------------------- validation


def test_validate_event_flags_missing_fields():
    assert validate_event({"schema": 1, "t": 1.0, "type": "case.start",
                           "case_id": "f1", "strategy": "anduril"}) == []
    problems = validate_event({"schema": 1, "t": 1.0, "type": "case.start"})
    assert problems and any("case_id" in p for p in problems)
    assert validate_event({"t": 1.0, "type": "heartbeat", "source": "x"})
    assert validate_event({"schema": 1, "t": 1.0, "type": "no.such"})
    assert validate_event("not a dict")
    assert validate_event({"schema": "one", "t": 1.0, "type": "heartbeat",
                           "source": "x"})


# ------------------------------------------------------------- heartbeat stats


def test_heartbeat_stats_reflects_counters_and_histograms():
    # Nothing moved: no runner section, no latency.
    assert heartbeat_stats() == {}
    metrics.increment("cache.hits", 3)
    metrics.increment("cache.misses", 1)
    metrics.increment("sim.checkpoint.forks", 5)
    metrics.observe("latency.round_seconds", 0.01)
    stats = heartbeat_stats()
    # Counts are ints, exactly as summaries report them.
    assert stats["cache"] == {"hits": 3, "misses": 1, "hit_rate": 0.75}
    assert isinstance(stats["cache"]["hits"], int)
    assert stats["checkpoint"] == {"forks": 5}
    assert "verdict" not in stats
    assert stats["latency"]["latency.round_seconds"]["count"] == 1


def test_a_round_heartbeat_carries_exactly_the_heartbeat_stats_sections():
    metrics.increment("cache.hits", 3)
    metrics.increment("cache.misses", 1)
    capture = MemorySink()
    reporter = RoundReporter(
        EventBus([capture], heartbeat_interval=0.0), "f1", "anduril"
    )
    timings = dict(run_seconds=0.01, feedback_seconds=0.0, round_seconds=0.01)
    reporter.end(1, None, False, None, 4, **timings)
    (beat,) = [e for e in capture.events if e["type"] == "heartbeat"]
    stats = heartbeat_stats()
    assert set(stats) == {"cache", "latency"}
    envelope = {"schema", "t", "type", "source", "round", "case_id", "strategy"}
    assert set(beat) - envelope == set(stats)
    assert {section: beat[section] for section in stats} == stats
    # A search has no engine whose stats could ride along.
    with pytest.raises(TypeError):
        reporter.end(2, None, False, None, 4, engine=object(), **timings)


# ----------------------------------------------------------------- histograms


def test_histogram_quantiles_are_monotone_and_close():
    for value in range(1, 101):
        metrics.observe("latency.round_seconds", value / 100.0)
    snap = metrics.histograms_snapshot()["latency.round_seconds"]
    assert snap["count"] == 100
    assert snap["mean"] == pytest.approx(0.505, rel=0.01)
    assert snap["p50"] <= snap["p90"] <= snap["p99"]
    # Log buckets with base 1.15 are within ~15% of the true quantile.
    assert snap["p50"] == pytest.approx(0.50, rel=0.20)
    assert snap["p90"] == pytest.approx(0.90, rel=0.20)


def test_histogram_delta_and_merge_round_trip():
    metrics.observe("latency.run_seconds", 0.1)
    baseline = metrics.capture()
    metrics.observe("latency.run_seconds", 0.2)
    metrics.observe("latency.feedback_seconds", 0.05)
    delta = metrics.capture(since=baseline)["histograms"]
    # The delta carries only what happened after the baseline.
    assert sum(delta["latency.run_seconds"]["buckets"].values()) == 1
    assert sum(delta["latency.feedback_seconds"]["buckets"].values()) == 1

    metrics.reset()
    metrics.observe("latency.run_seconds", 0.1)
    metrics.merge({"counters": {}, "histograms": delta, "events": []})
    snap = metrics.histograms_snapshot()
    assert snap["latency.run_seconds"]["count"] == 2
    assert snap["latency.feedback_seconds"]["count"] == 1


def test_reset_clears_histograms():
    metrics.observe("latency.round_seconds", 0.01)
    metrics.reset()
    assert metrics.histograms_snapshot() == {}


# ------------------------------------------------------------- default path


def test_default_path_lives_under_bench_out():
    assert bus_mod.DEFAULT_PATH.endswith(
        os.path.join("benchmarks", "out", "events.jsonl")
    )
