"""The event bus is purely observational: ``explore()`` with a bus
active must produce the same search as ``explore()`` without one.

The bus emits round lifecycle events and heartbeats, but it never feeds
back into the pool, the plans, or the simulator — turning it on (or
leaving the default :data:`NULL_BUS`) leaves
``ExplorationResult.signature()`` byte-identical.  This is the tentpole
invariant the CI ``event-stream`` job re-checks end to end over full
campaign summaries."""

import pytest

from repro.baselines import ALL_STRATEGIES, StrategyRunner
from repro.failures import get_case
from repro.obs.bus import EventBus, MemorySink, set_active_bus

CASE_IDS = ["f1", "f17", "f20"]


@pytest.fixture(autouse=True)
def reset_active_bus():
    yield
    set_active_bus(None)


def capture_events(**bus_options) -> MemorySink:
    """Make a bus over a fresh memory sink the process-active one."""
    capture = MemorySink()
    set_active_bus(EventBus([capture], **bus_options))
    return capture


@pytest.mark.parametrize("case_id", CASE_IDS)
def test_explore_with_bus_matches_busless(case_id):
    case = get_case(case_id)
    plain = case.explorer(max_rounds=120).explore()
    # Built before the bus is installed: the search reads the active bus
    # when it runs, as in a campaign worker.
    explorer = case.explorer(max_rounds=120)
    capture = capture_events(heartbeat_interval=0.0)
    busy = explorer.explore()
    assert busy.signature() == plain.signature()
    assert busy.success == plain.success
    assert busy.rounds == plain.rounds
    assert busy.rank_trajectory == plain.rank_trajectory
    assert busy.script == plain.script
    assert busy.injected == plain.injected
    # And it actually streamed: one begin/end pair per round.
    begins = [e for e in capture.events if e["type"] == "round.begin"]
    ends = [e for e in capture.events if e["type"] == "round.end"]
    assert len(begins) == busy.rounds
    assert len(ends) == busy.rounds
    assert any(e["type"] == "round.end" for e in capture.events)


def test_active_bus_is_as_invisible_as_an_explicit_one():
    case = get_case("f17")
    plain = case.explorer(max_rounds=120).explore()
    capture = capture_events(heartbeat_interval=0.0)
    try:
        busy = case.explorer(max_rounds=120).explore()
    finally:
        set_active_bus(None)
    assert busy.signature() == plain.signature()
    assert any(e["type"] == "round.end" for e in capture.events)


def test_round_end_events_carry_the_rank_trajectory():
    case = get_case("f17")
    capture = capture_events(heartbeat_interval=0.0)
    result = case.explorer(max_rounds=120).explore()
    assert result.success
    ends = [e for e in capture.events if e["type"] == "round.end"]
    trajectory = [
        (e["round"], e["rank"]) for e in ends if e["rank"] is not None
    ]
    assert trajectory == result.rank_trajectory
    # The reproducing round reports its fired plan.
    fired = [e for e in capture.events if e["type"] == "plan.fired"]
    assert fired and fired[-1]["satisfied"] is True
    assert fired[-1]["site"] == result.injected.site_id
    assert fired[-1]["spec"] == result.injected.spec


def _open_rounds(events) -> list:
    """``(case, strategy, round)`` of every begin no end closed."""
    opened = []
    for event in events:
        key = (event.get("case_id"), event.get("strategy"), event.get("round"))
        if event["type"] == "round.begin":
            opened.append(key)
        elif event["type"] == "round.end":
            opened.remove(key)
    return opened


@pytest.mark.parametrize(
    "budget",
    [
        dict(max_seconds=0.0),  # out of time before round 1
        dict(max_rounds=3),  # round budget
        dict(max_rounds=400),  # reproduced
    ],
    ids=["no-time", "round-budget", "reproduced"],
)
def test_every_round_begin_is_closed_by_a_round_end(budget):
    """A search that stops between rounds — time budget, exhausted
    window — must not announce a round it will never run, or the live
    view shows one round more than the result."""
    case = get_case("f1")
    capture = capture_events()
    anduril = case.explorer(**budget).explore()
    baseline = StrategyRunner(**budget).run(
        ALL_STRATEGIES["exhaustive"](), case
    )
    assert _open_rounds(capture.events) == []
    begins = [e for e in capture.events if e["type"] == "round.begin"]
    assert len(begins) == anduril.rounds + baseline.rounds
    if budget.get("max_seconds") == 0.0:
        assert anduril.rounds == baseline.rounds == 0 and not begins
