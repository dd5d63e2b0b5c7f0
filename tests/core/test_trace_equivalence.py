"""Tracing is purely observational: ``explore()`` with a recorder attached
must produce the same search as ``explore()`` without one.

The recorder samples wall clocks and allocates events, but it never feeds
back into the pool, the plans, or the simulator — same rounds, same
injections, same rank trajectory, same reproduction script.  Checked on
one multi-round case per mini system tier (plus a single-round case).
"""

import pytest

from repro.failures import get_case
from repro.obs import TraceRecorder

CASE_IDS = ["f1", "f17", "f20"]


@pytest.mark.parametrize("case_id", CASE_IDS)
def test_explore_with_tracing_matches_untraced(case_id):
    case = get_case(case_id)
    plain = case.explorer(max_rounds=120).explore()
    recorder = TraceRecorder()
    traced = case.explorer(max_rounds=120, recorder=recorder).explore()
    assert traced.signature() == plain.signature()
    assert traced.success == plain.success
    assert traced.rounds == plain.rounds
    assert traced.rank_trajectory == plain.rank_trajectory
    assert traced.script == plain.script
    assert traced.injected == plain.injected


def test_cases_span_systems():
    systems = {get_case(cid).system for cid in CASE_IDS}
    assert len(systems) >= 2


def test_traced_search_captures_round_structure():
    case = get_case("f17")
    recorder = TraceRecorder()
    result = case.explorer(max_rounds=120, recorder=recorder).explore()
    assert result.success
    span_names = {span.name for span in recorder.spans}
    assert {"round.prepare", "round.run", "round.feedback",
            "round.rerank", "workload.run"} <= span_names
    reranks = [e for e in recorder.events if e.name == "explorer.rerank"]
    assert len(reranks) == result.rounds
    # The rerank trajectory embeds the ground-truth site's rank per round
    # (Figure 6); it must match the result's own trajectory.
    trajectory = [
        (event.args["round"], event.args["rank"]) for event in reranks
    ]
    assert trajectory == result.rank_trajectory
    injects = [e for e in recorder.events if e.name == "fir.inject"]
    assert injects, "committed rounds must record injection decisions"
    assert all(e.clock == "virtual" for e in injects)


def test_recorder_counters_cover_scheduler_and_network():
    case = get_case("f1")
    recorder = TraceRecorder()
    case.explorer(max_rounds=40, recorder=recorder).explore()
    counters = recorder.metrics()
    assert counters["runs"] >= 1
    assert counters["sim.events_executed"] > 0
    assert counters["net.messages_delivered"] > 0
    assert counters["fir.requests"] > 0
    assert counters["fir.decision_seconds"] >= 0.0
