"""The ``repro watch`` reducer and renderer: folding a bus event stream
into per-cell progress, rank movement, heartbeat stats, and the
ledger-history ETA."""

import pytest

from repro.obs import watch
from repro.obs.watch import DONE, PENDING, RUNNING, CellState, WatchState


def _event(event_type, t=1.0, **fields):
    return {"schema": 1, "t": t, "type": event_type, **fields}


def _campaign_stream():
    """A complete two-cell campaign, in emission order."""
    return [
        _event("campaign.start", t=10.0, cases=["f1", "f2"],
               strategies=["anduril"], jobs=2, cells=2),
        _event("case.start", t=10.1, case_id="f1", strategy="anduril"),
        _event("case.start", t=10.1, case_id="f2", strategy="anduril"),
        _event("round.begin", t=10.2, case_id="f1", strategy="anduril",
               round=1),
        _event("round.end", t=10.4, case_id="f1", strategy="anduril",
               round=1, injected=None, satisfied=False, rank=7,
               window_size=4),
        _event("plan.fired", t=10.6, case_id="f1", strategy="anduril",
               round=2, site="s", spec="OSError", occurrence=0,
               satisfied=True),
        _event("round.end", t=10.6, case_id="f1", strategy="anduril",
               round=2, injected="s!OSError@0", satisfied=True, rank=1,
               window_size=4),
        _event("heartbeat", t=10.7, source="explorer",
               cache={"hits": 3, "misses": 1, "hit_rate": 0.75},
               checkpoint={"forks": 4},
               # A section only older builds' streams carry: not rendered.
               speculation={"hits": 3, "misses": 2, "hit_rate": 0.6},
               workers={"jobs": 2},
               latency={"latency.round_seconds":
                        {"count": 2, "mean": 0.2, "p50": 0.2, "p90": 0.3,
                         "p99": 0.3}}),
        _event("case.done", t=10.8, case_id="f1", strategy="anduril",
               success=True, rounds=2, seconds=0.6),
        _event("case.done", t=11.0, case_id="f2", strategy="anduril",
               success=False, rounds=5, seconds=0.9),
        _event("campaign.done", t=11.0, cells=2, successes=1, seconds=1.0),
    ]


# ----------------------------------------------------------------- reducer


def test_reducer_tracks_cell_lifecycle_and_ranks():
    state = WatchState()
    events = _campaign_stream()
    for event in events[:3]:
        state.apply(event)
    f1 = state.cells[("f1", "anduril")]
    assert f1.status == RUNNING
    for event in events[3:8]:
        state.apply(event)
    assert f1.rounds == 2
    assert f1.first_rank == 7 and f1.last_rank == 1
    assert f1.rank_cell == "7->1"
    assert f1.last_injected == "s!OSError@0"
    assert state.heartbeats["explorer"]["cache"]["hit_rate"] == 0.75
    for event in events[8:]:
        state.apply(event)
    assert f1.status == DONE and f1.success is True
    assert f1.result_cell == "ok 2r/0.6s"
    f2 = state.cells[("f2", "anduril")]
    assert f2.result_cell == "fail 5r"
    assert state.campaign_done is not None
    assert state.rounds_seen == 2


def test_new_campaign_start_resets_the_board():
    state = WatchState()
    for event in _campaign_stream():
        state.apply(event)
    assert len(state.cells) == 2
    state.apply(_event("campaign.start", t=20.0, cases=["f9"],
                       strategies=["anduril"], jobs=1, cells=1))
    assert state.cells == {}
    assert state.campaign_done is None
    assert state.started_at == 20.0


def test_events_before_case_start_still_create_cells():
    state = WatchState()
    state.apply(_event("round.end", case_id="f3", strategy="random",
                       round=1, injected=None, satisfied=False, rank=None,
                       window_size=0))
    cell = state.cells[("f3", "random")]
    assert cell.status == RUNNING and cell.rounds == 1
    assert cell.rank_cell == "-"


def test_reducer_ignores_malformed_events():
    state = WatchState()
    state.apply("not a dict")
    state.apply({"type": "round.end"})            # no case/strategy
    state.apply({"type": "case.start", "case_id": 7, "strategy": None})
    assert state.cells == {}


# --------------------------------------------------------------------- eta


def _history(case_id, seconds, n=3):
    return [
        {"case_id": case_id, "strategy": "anduril", "seconds": s}
        for s in [seconds] * n
    ]


def test_eta_uses_per_cell_median_divided_by_jobs():
    state = WatchState()
    state.apply(_event("campaign.start", cases=["f1", "f2"],
                       strategies=["anduril"], jobs=2, cells=2))
    state.apply(_event("case.start", case_id="f1", strategy="anduril"))
    state.apply(_event("case.start", case_id="f2", strategy="anduril"))
    history = _history("f1", 4.0) + _history("f2", 8.0)
    assert state.eta_seconds(history) == pytest.approx((4.0 + 8.0) / 2)
    # A finished cell stops costing.
    state.apply(_event("case.done", case_id="f1", strategy="anduril",
                       success=True, rounds=2, seconds=1.0))
    assert state.eta_seconds(history) == pytest.approx(8.0 / 2)


def test_eta_falls_back_to_campaign_median_for_unseen_cells():
    state = WatchState()
    state.apply(_event("campaign.start", cases=["f9"],
                       strategies=["anduril"], jobs=1, cells=1))
    state.apply(_event("case.start", case_id="f9", strategy="anduril"))
    assert state.eta_seconds(_history("f1", 6.0)) == pytest.approx(6.0)


def test_eta_counts_announced_but_unstarted_cells():
    state = WatchState()
    state.apply(_event("campaign.start", cases=["f1", "f2", "f3"],
                       strategies=["anduril"], jobs=1, cells=3))
    state.apply(_event("case.start", case_id="f1", strategy="anduril"))
    assert state.eta_seconds(_history("f1", 2.0)) == pytest.approx(6.0)


def test_eta_none_without_history_and_zero_when_done():
    state = WatchState()
    state.apply(_event("case.start", case_id="f1", strategy="anduril"))
    assert state.eta_seconds([]) is None
    state.apply(_event("case.done", case_id="f1", strategy="anduril",
                       success=True, rounds=1, seconds=0.1))
    assert state.eta_seconds([]) == 0.0


# ------------------------------------------------------------------ render


def test_render_full_campaign():
    state = WatchState()
    for event in _campaign_stream():
        state.apply(event)
    text = watch.render(state, history=[])
    assert "2 case(s) x 1 strategy(ies)" in text
    assert "done (1/2 reproduced)" in text
    assert "f1/anduril" in text and "7->1" in text
    assert "ok 2r/0.6s" in text and "fail 5r" in text
    assert "cache 75% hit" in text
    assert "checkpoint forks 4" in text
    assert "speculation" not in text
    assert "workers 2" in text
    assert "round p50 200ms p90 300ms" in text


def test_render_empty_state():
    text = watch.render(WatchState(), history=[])
    assert "(no cells yet)" in text


def test_render_shows_eta_while_running():
    state = WatchState()
    state.apply(_event("campaign.start", t=5.0, cases=["f1"],
                       strategies=["anduril"], jobs=1, cells=1))
    state.apply(_event("case.start", t=5.5, case_id="f1",
                       strategy="anduril"))
    text = watch.render(state, history=_history("f1", 12.0))
    assert "eta ~12s" in text
    assert "elapsed 0.5s" in text


def test_anduril_rows_sort_first():
    state = WatchState()
    state.apply(_event("case.start", case_id="f1", strategy="random"))
    state.apply(_event("case.start", case_id="f1", strategy="anduril"))
    text = watch.render(state, history=[])
    assert text.index("f1/anduril") < text.index("f1/random")


def test_cell_state_defaults():
    cell = CellState("f1", "anduril")
    assert cell.status == PENDING
    assert cell.rank_cell == "-" and cell.result_cell == "-"
