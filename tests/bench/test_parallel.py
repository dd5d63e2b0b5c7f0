"""Tests for the campaign-level parallel runner and the bench summary."""

import concurrent.futures
import inspect
import json
import os

import pytest

from repro.baselines import ALL_STRATEGIES
from repro.bench import cell, summary
from repro.bench.harness import run_anduril, run_baseline
from repro.bench.parallel import INLINE_FALLBACK_COUNTER, inline_fallback_count
from repro.obs import metrics as obs_metrics
from repro.bench.parallel import (
    CampaignTask,
    execute_task,
    resolve_jobs,
    run_anduril_many,
    run_compare_campaign,
    run_tasks,
)
from repro.failures import all_cases, get_case


def campaign_signature(outcomes):
    return [(o.case_id, o.success, o.rounds) for o in outcomes]


class TestResolveJobs:
    def test_explicit_value_passes_through(self):
        assert resolve_jobs(3) == 3
        assert resolve_jobs(1) == 1

    def test_none_and_zero_mean_cpu_count(self):
        assert resolve_jobs(None) >= 1
        assert resolve_jobs(0) >= 1

    def test_the_default_counts_usable_cores_not_installed_ones(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        monkeypatch.setattr(
            os, "sched_getaffinity", lambda pid: {0, 3}, raising=False
        )
        assert resolve_jobs(None) == 2
        monkeypatch.delattr(os, "sched_getaffinity")
        assert resolve_jobs(None) == 8


class TestCampaignTask:
    def test_anduril_task_roundtrip(self):
        task = CampaignTask.anduril("f1", max_rounds=50)
        outcome = execute_task(task)
        assert outcome.case_id == "f1"
        assert outcome.success

    def test_baseline_task_roundtrip(self):
        task = CampaignTask.baseline("stacktrace", "f1", max_rounds=50)
        outcome = execute_task(task)
        assert outcome.strategy == "stacktrace"
        assert outcome.case_id == "f1"

    def test_tasks_are_hashable_and_picklable(self):
        import pickle

        task = CampaignTask.anduril("f3", max_rounds=10, max_seconds=2.0)
        assert pickle.loads(pickle.dumps(task)) == task
        assert hash(task) == hash(CampaignTask.anduril(
            "f3", max_rounds=10, max_seconds=2.0
        ))


class TestCellModule:
    """The leaf module a served campaign loads holds the runners'
    defaults and the strategy names; these say it agrees with them."""

    @staticmethod
    def defaults(run) -> dict:
        return {
            name: parameter.default
            for name, parameter in inspect.signature(run).parameters.items()
            if parameter.default is not parameter.empty
        }

    def test_it_holds_the_runners_defaults(self):
        assert cell.ANDURIL_DEFAULTS == self.defaults(run_anduril)
        assert cell.BASELINE_DEFAULTS == self.defaults(run_baseline)

    def test_it_names_every_strategy_in_table_order(self):
        assert list(cell.STRATEGIES) == list(ALL_STRATEGIES)


class TestRunTasksOrdering:
    CASES = [get_case(cid) for cid in ("f1", "f3", "f13")]

    def test_serial_results_follow_task_order(self):
        outcomes = run_anduril_many(self.CASES, jobs=1, max_rounds=50)
        assert [o.case_id for o in outcomes] == ["f1", "f3", "f13"]

    def test_parallel_results_identical_to_serial(self):
        serial = run_anduril_many(self.CASES, jobs=1, max_rounds=50)
        fanned = run_anduril_many(self.CASES, jobs=2, max_rounds=50)
        assert campaign_signature(fanned) == campaign_signature(serial)

    def test_deterministic_cells_are_wall_clock_free(self):
        serial = run_anduril_many(self.CASES, jobs=1, max_rounds=50)
        fanned = run_anduril_many(self.CASES, jobs=2, max_rounds=50)
        assert [o.deterministic_cell for o in fanned] == [
            o.deterministic_cell for o in serial
        ]

    def test_worker_failure_falls_back_inline(self, monkeypatch):
        class ExplodingPool:
            def __init__(self, *args, **kwargs):
                raise OSError("no subprocesses here")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", ExplodingPool)
        with pytest.warns(RuntimeWarning, match="process pool unavailable"):
            outcomes = run_anduril_many(self.CASES, jobs=4, max_rounds=50)
        assert campaign_signature(outcomes) == [
            ("f1", True, 1),
            ("f3", True, 1),
            ("f13", True, 1),
        ]

    def test_worker_failure_is_not_silent(self, monkeypatch):
        """A dying worker warns (naming the task and error) and counts."""

        class DoomedFuture:
            def result(self):
                raise RuntimeError("worker exploded")

        class DoomedPool:
            def __init__(self, *args, **kwargs):
                pass

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                return False

            def submit(self, fn, task):
                return DoomedFuture()

        def fake_wait(pending, return_when=None):
            return set(pending), set()

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", DoomedPool)
        monkeypatch.setattr(concurrent.futures, "wait", fake_wait)
        obs_metrics.reset()
        try:
            with pytest.warns(RuntimeWarning) as warned:
                outcomes = run_anduril_many(self.CASES, jobs=4, max_rounds=50)
            # Every cell fell back inline, and still produced its result.
            assert campaign_signature(outcomes) == [
                ("f1", True, 1),
                ("f3", True, 1),
                ("f13", True, 1),
            ]
            assert inline_fallback_count() == len(self.CASES)
            messages = [str(w.message) for w in warned]
            per_task = [m for m in messages if "worker failed" in m]
            assert len(per_task) == len(self.CASES)
            assert any("f3" in m for m in per_task)
            assert all("RuntimeError: worker exploded" in m for m in per_task)
        finally:
            obs_metrics.reset()

    def test_fallback_counter_absent_on_clean_runs(self):
        obs_metrics.reset()
        try:
            run_anduril_many(self.CASES[:1], jobs=1, max_rounds=50)
            assert inline_fallback_count() == 0
            assert INLINE_FALLBACK_COUNTER not in obs_metrics.snapshot()
        finally:
            obs_metrics.reset()


class TestCompareCampaign:
    def test_grid_is_fully_populated(self):
        cases = [get_case("f1"), get_case("f2")]
        strategies = ["stacktrace", "random"]
        anduril, cells = run_compare_campaign(
            cases,
            strategies,
            jobs=1,
            anduril_options=dict(max_rounds=50),
            strategy_options=dict(max_rounds=50, max_seconds=5.0),
        )
        assert set(anduril) == {"f1", "f2"}
        assert set(cells) == {
            (name, case.case_id) for name in strategies for case in cases
        }


class TestBenchSummary:
    def test_record_and_summarize(self):
        summary.clear()
        try:
            outcome = execute_task(CampaignTask.anduril("f1", max_rounds=50))
            summary.record_outcome(outcome)
            document = summary.summarize()
            assert document["case_count"] == 1
            assert document["successes"] == 1
            assert document["cases"]["f1"]["rounds"] == outcome.rounds
            assert document["median_rounds"] == outcome.rounds
        finally:
            summary.clear()

    def test_write_bench_summary_roundtrip(self, tmp_path):
        summary.clear()
        try:
            outcome = execute_task(CampaignTask.anduril("f2", max_rounds=50))
            summary.record_outcome(outcome)
            path = summary.write_bench_summary(str(tmp_path / "summary.json"))
            with open(path, encoding="utf-8") as handle:
                document = json.load(handle)
            assert document["schema"] == summary.SCHEMA_VERSION
            assert document["cases"]["f2"]["success"] is True
            assert document["median_seconds"] >= 0.0
        finally:
            summary.clear()

    def test_cases_sorted_numerically(self):
        summary.clear()
        try:
            for cid in ("f10", "f2", "f1"):
                summary.record_outcome(
                    type("O", (), {
                        "case_id": cid, "success": True,
                        "rounds": 1, "seconds": 0.1,
                    })()
                )
            document = summary.summarize()
            assert list(document["cases"]) == ["f1", "f2", "f10"]
        finally:
            summary.clear()


class TestEventForwarding:
    """Campaign workers capture bus events and ship them to the parent's
    sinks; the campaign stream is complete regardless of jobs."""

    CASES = [get_case(cid) for cid in ("f1", "f3")]

    def _run_with_bus(self, jobs):
        from repro.obs.bus import EventBus, MemorySink, set_active_bus

        capture = MemorySink()
        set_active_bus(EventBus([capture], heartbeat_interval=0.0))
        try:
            outcomes = run_anduril_many(self.CASES, jobs=jobs, max_rounds=50)
        finally:
            set_active_bus(None)
        return outcomes, capture.events

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_stream_is_complete_serial_and_parallel(self, jobs):
        outcomes, events = self._run_with_bus(jobs)
        types = [e["type"] for e in events]
        assert types[0] == "campaign.start"
        assert types[-1] == "campaign.done"
        assert types.count("case.start") == len(self.CASES)
        assert types.count("case.done") == len(self.CASES)
        # Worker-side round events made it back to the parent's sink.
        round_cases = {
            e["case_id"] for e in events if e["type"] == "round.end"
        }
        assert round_cases == {"f1", "f3"}
        assert campaign_signature(outcomes) == [
            ("f1", True, 1), ("f3", True, 1),
        ]

    def test_bus_off_leaves_outcomes_identical(self):
        plain = run_anduril_many(self.CASES, jobs=2, max_rounds=50)
        with_bus, events = self._run_with_bus(2)
        assert events
        assert [o.deterministic_cell for o in with_bus] == [
            o.deterministic_cell for o in plain
        ]

    def test_worker_histograms_merge_into_parent(self):
        obs_metrics.reset()
        try:
            self._run_with_bus(2)
            snap = obs_metrics.histograms_snapshot()
            assert "latency.round_seconds" in snap
            assert snap["latency.round_seconds"]["count"] >= 2
        finally:
            obs_metrics.reset()
