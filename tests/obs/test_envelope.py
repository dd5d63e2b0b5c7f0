"""The worker→parent telemetry envelope (``metrics.capture``/``merge``).

One property — cutting a stream of registry operations into per-"cell"
envelopes and merging them anywhere, in any order, loses nothing — and
its end-to-end form: a campaign's registry and event stream are the
same at ``jobs=1`` (nothing shipped) and ``jobs=2`` (everything
shipped)."""

import collections
import json
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.parallel import CampaignTask, run_tasks
from repro.obs import metrics
from repro.obs.bus import EventBus, MemorySink, set_active_bus, validate_event


@pytest.fixture(autouse=True)
def clean_registry():
    metrics.reset()
    yield
    metrics.reset()
    set_active_bus(None)


def registry_state() -> dict:
    """Everything the registry holds, sections in a canonical order."""
    state = metrics.capture()
    return {
        "counters": dict(sorted(state["counters"].items())),
        "histograms": {
            name: dict(histogram, buckets=dict(sorted(histogram["buckets"].items())))
            for name, histogram in sorted(state["histograms"].items())
        },
    }


#: Dyadic values: sums of them are exact in floating point, so "exactly"
#: below means ``==`` even for the float-valued counters and sums.
_VALUES = st.integers(min_value=1, max_value=4096).map(lambda n: n / 64)
_NAMES = st.sampled_from(["a", "b", "cache.hits", "sim.checkpoint.fork_seconds"])
_OPERATIONS = st.one_of(
    st.tuples(st.just("increment"), _NAMES, _VALUES),
    st.tuples(st.just("observe"), _NAMES, _VALUES),
    st.tuples(st.just("emit"), _NAMES, _VALUES),
)


def apply(operation, events: list) -> None:
    kind, name, value = operation
    if kind == "increment":
        metrics.increment(name, value)
    elif kind == "observe":
        metrics.observe(name, value)
    else:
        events.append({"type": name, "value": value})


@settings(max_examples=60, deadline=None)
@given(
    operations=st.lists(_OPERATIONS, max_size=40),
    cuts=st.lists(st.integers(min_value=0, max_value=40), max_size=6),
    order=st.randoms(use_true_random=False),
)
def test_any_partition_merged_in_any_order_reproduces_the_registry(
    operations, cuts, order
):
    # One process sees everything.
    metrics.reset()
    everything: list = []
    for operation in operations:
        apply(operation, everything)
    expected = registry_state()

    # One worker runs the same operations as consecutive cells, shipping
    # each cell's movement (the registry is never reset in between).
    metrics.reset()
    bounds = sorted({0, len(operations), *(min(c, len(operations)) for c in cuts)})
    envelopes = []
    for start, stop in zip(bounds, bounds[1:]):
        before = metrics.capture()
        cell_events: list = []
        for operation in operations[start:stop]:
            apply(operation, cell_events)
        envelopes.append(
            pickle.loads(
                pickle.dumps(metrics.capture(since=before, events=cell_events))
            )
        )

    # A parent merges them in whatever order the cells complete.
    metrics.reset()
    order.shuffle(envelopes)
    forwarded: list = []
    for envelope in envelopes:
        metrics.merge(envelope, forwarded.append)
    assert registry_state() == expected
    # Each cell's events arrive contiguously and in emission order.
    assert forwarded == [
        event for envelope in envelopes for event in envelope["events"]
    ]
    assert sorted(map(json.dumps, forwarded)) == sorted(map(json.dumps, everything))


def test_unmoved_names_are_omitted_and_a_full_capture_is_a_delta_from_zero():
    metrics.increment("a", 2)
    metrics.observe("latency.round_seconds", 0.5)
    before = metrics.capture()
    assert before["counters"] == {"a": 2}
    metrics.increment("b")
    delta = metrics.capture(since=before)
    assert delta == {"counters": {"b": 1}, "histograms": {}, "events": []}


# --------------------------------------------------- jobs=1 vs jobs=2 legs

def _campaign_leg(jobs: int):
    metrics.reset()
    capture = MemorySink()
    set_active_bus(EventBus([capture]))
    try:
        run_tasks(
            [
                CampaignTask.anduril("f1", max_rounds=50),
                CampaignTask.baseline("exhaustive", "f1", max_rounds=50),
                CampaignTask.anduril("f3", max_rounds=50),
            ],
            jobs=jobs,
        )
    finally:
        set_active_bus(None)
    stats = {
        section: {
            key: value for key, value in values.items()
            if not key.endswith("_seconds")  # wall clock: equal on no two legs
        }
        for section, values in metrics.runner_stats().items()
    }
    counts = {
        name: histogram["count"]
        for name, histogram in metrics.capture()["histograms"].items()
    }
    # Heartbeats sample the emitting process's registry on a timer.
    lifecycle = [e for e in capture.events if e["type"] != "heartbeat"]
    # The stream is well formed: every event validates, the campaign
    # brackets it, each cell that opens closes, and rounds report.
    for event in lifecycle:
        assert validate_event(event) == [], event
    types = [event["type"] for event in lifecycle]
    assert types[0] == "campaign.start" and types[-1] == "campaign.done"
    assert types.count("case.start") == types.count("case.done") == 3
    assert "round.end" in types and "plan.fired" in types
    events = collections.Counter(
        json.dumps(
            {k: v for k, v in event.items() if k not in ("t", "seconds", "jobs")},
            sort_keys=True,
        )
        for event in lifecycle
    )
    per_cell_order = collections.defaultdict(list)
    for event in lifecycle:
        if "round" in event:
            per_cell_order[(event["case_id"], event["strategy"])].append(
                (event["round"], event["type"])
            )
    return stats, counts, events, dict(per_cell_order)


def test_shipped_and_inline_campaigns_tell_the_same_story():
    inline = _campaign_leg(jobs=1)
    shipped = _campaign_leg(jobs=2)
    assert shipped[0] == inline[0]  # runner_stats, modulo timing
    assert shipped[1] == inline[1]  # histogram sample counts
    assert shipped[2] == inline[2]  # the event multiset
    assert shipped[3] == inline[3]  # per-cell round-event order
