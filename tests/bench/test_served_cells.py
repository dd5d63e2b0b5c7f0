"""Campaign cells served whole from the run cache's ``cells`` tier.

A cell is a pure function of its task and the code (DESIGN §8.1), so
with a disk tier ``execute_task`` stores each finished cell and
``run_tasks`` serves it back, before computing anything, to the next
campaign that asks for the same task.
"""

import concurrent.futures
import dataclasses
import os
import shutil

import pytest

from repro.__main__ import main
from repro.bench.parallel import (
    CELLS_SERVED_COUNTER,
    CampaignTask,
    _cell_name,
    execute_task,
    run_tasks,
)
from repro.cache import runcache
from repro.failures import CATALOG, get_case
from repro.obs import ledger
from repro.obs import metrics as obs_metrics
from repro.obs.bus import EventBus, MemorySink, set_active_bus
from repro.obs.watch import WatchState

TASKS = [
    CampaignTask.anduril("f1", max_rounds=120, profile=False),
    CampaignTask.baseline("stacktrace", "f1", max_rounds=50, max_seconds=60.0),
    CampaignTask.anduril("f24", max_rounds=120, fault_dims="all"),
]

#: What a served cell reports as stored, where a fresh computation
#: measures again; ``telemetry`` is this process's bookkeeping.
WALL_CLOCK = dict(
    seconds=0.0, median_init_ms=0.0, median_workload_ms=0.0,
    prepare_seconds=0.0, telemetry={},
)


def without_wall_clock(outcome):
    return dataclasses.replace(outcome, **WALL_CLOCK)


def serve(task):
    """``task``'s cell through the campaign engine: served when the
    ``cells`` tier holds it, else computed and stored."""
    (outcome,) = run_tasks([task], jobs=1)
    return outcome


def served_since(before) -> int:
    moved = obs_metrics.capture(since=before)["counters"]
    return int(moved.get(CELLS_SERVED_COUNTER, 0))


def cell_files(directory) -> list:
    cells = os.path.join(directory, "cells")
    return os.listdir(cells) if os.path.isdir(cells) else []


@pytest.fixture
def cold(tmp_path):
    """Every task computed once under a disk tier at ``tmp_path``, then
    a fresh cache over the same directory, as the next process sees it."""
    runcache.configure(disk_dir=str(tmp_path))
    outcomes = [execute_task(task) for task in TASKS]
    runcache.configure(disk_dir=str(tmp_path))
    return outcomes


class TestServedCells:
    def test_a_served_cell_is_the_stored_cell(self, cold, cache_counters):
        cache_counters.mark()
        before = obs_metrics.capture()
        served = run_tasks(TASKS, jobs=1)
        assert served_since(before) == len(TASKS)
        assert all(cell.served for cell in served)
        assert not any(cell.served for cell in cold)
        # Nothing was looked up, let alone run.
        assert cache_counters["hits"] == cache_counters["misses"] == 0
        for got, stored in zip(served, cold):
            assert dataclasses.replace(got, telemetry={}) == dataclasses.replace(
                stored, telemetry={}
            )
            assert got.telemetry["counters"] == {CELLS_SERVED_COUNTER: 1}

    def test_a_served_cell_equals_a_fresh_computation(self, cold):
        served = run_tasks(TASKS, jobs=1)
        runcache.reset()
        fresh = [execute_task(task) for task in TASKS]
        assert [without_wall_clock(cell) for cell in served] == [
            without_wall_clock(cell) for cell in fresh
        ]

    def test_a_torn_cell_record_is_counted_and_recomputed(
        self, cold, tmp_path, cache_counters
    ):
        (segment,) = cell_files(tmp_path)
        path = tmp_path / "cells" / segment
        data = bytearray(path.read_bytes())
        data[-1] ^= 0xFF  # the last record's payload: the f24 cell
        path.write_bytes(bytes(data))
        cache_counters.mark()
        before = obs_metrics.capture()
        with pytest.warns(RuntimeWarning, match="cells-cache"):
            outcome = serve(TASKS[-1])
        assert cache_counters["disk_errors"] == 1
        assert served_since(before) == 0
        assert cache_counters["hits"] > 0  # the search ran, off the run tier
        assert without_wall_clock(outcome) == without_wall_clock(cold[-1])
        # The recomputed record supersedes the torn one.
        runcache.configure(disk_dir=str(tmp_path))
        before = obs_metrics.capture()
        serve(TASKS[-1])
        assert served_since(before) == 1

    def test_any_source_edit_misses_every_cell(self, cold, tmp_path, monkeypatch):
        copy = tmp_path / "repro"
        shutil.copytree(
            runcache._PACKAGE, copy, ignore=shutil.ignore_patterns("__pycache__")
        )
        monkeypatch.setattr(runcache, "_PACKAGE", str(copy))
        monkeypatch.setattr(runcache, "_DIGESTS", {})
        # An untouched copy names the cells as the package does.
        before = obs_metrics.capture()
        run_tasks(TASKS, jobs=1)
        assert served_since(before) == len(TASKS)
        sources = sorted(copy.rglob("*.py"))
        assert len(sources) > 100
        names = {task: _cell_name(task) for task in TASKS}
        for source in sources:
            original = source.read_bytes()
            source.write_bytes(original + b"\n# edited\n")
            runcache._DIGESTS.clear()
            assert all(_cell_name(task) != names[task] for task in TASKS), source
            source.write_bytes(original)
        # And an edit really recomputes.
        sources[0].write_bytes(sources[0].read_bytes() + b"\n# edited\n")
        runcache._DIGESTS.clear()
        before = obs_metrics.capture()
        serve(TASKS[0])
        assert served_since(before) == 0


class TestOneSearchOneCell:
    def test_every_spelling_of_one_search_names_one_cell(self, tmp_path):
        runcache.configure(disk_dir=str(tmp_path))
        anduril = [
            CampaignTask.anduril("f1", max_rounds=400),
            CampaignTask.anduril("f1", max_rounds=400, profile=False),
            CampaignTask.anduril(
                "f1", max_rounds=400, max_seconds=60, prune="static",
                initial_window=10, fault_dims=None,
            ),
            # The frozen benchmark's spelling: two ignored keywords.
            CampaignTask.anduril(
                "f1", max_rounds=400, checkpoint=False, early_verdict=False
            ),
        ]
        baseline = [
            CampaignTask.baseline("stacktrace", "f1"),
            CampaignTask.baseline(
                "stacktrace", "f1", max_rounds=300, max_seconds=8.0,
                fault_dims=None, checkpoint=False,
            ),
        ]
        for spellings, changed in (
            (anduril, CampaignTask.anduril("f1", max_rounds=400, initial_window=3)),
            (baseline, CampaignTask.baseline("stacktrace", "f1", fault_dims="all")),
        ):
            names = {_cell_name(task) for task in spellings}
            assert len(names) == 1 and None not in names
            assert _cell_name(changed) not in names


class TestWhatBypassesTheTier:
    def computed_twice(self, task, tmp_path) -> list:
        runcache.configure(disk_dir=str(tmp_path))
        before = obs_metrics.capture()
        outcomes = [serve(task), serve(task)]
        assert served_since(before) == 0
        assert cell_files(tmp_path) == []
        return outcomes

    def test_a_cell_that_ran_out_of_time(self, tmp_path):
        task = CampaignTask.anduril("f1", max_rounds=120, max_seconds=0.0)
        outcomes = self.computed_twice(task, tmp_path)
        assert {cell.message for cell in outcomes} == {"time budget exhausted"}

    def test_a_profiled_cell(self, tmp_path):
        task = CampaignTask.anduril("f1", max_rounds=120, profile=True)
        outcomes = self.computed_twice(task, tmp_path)
        assert all(cell.metrics for cell in outcomes)

    def test_a_case_outside_the_catalog_index(self, tmp_path, monkeypatch):
        extra = dataclasses.replace(get_case("f1"), case_id="f99")
        monkeypatch.setitem(CATALOG, "f99", extra)
        outcomes = self.computed_twice(
            CampaignTask.anduril("f99", max_rounds=120), tmp_path
        )
        assert all(cell.success for cell in outcomes)

    def test_no_disk_tier(self, tmp_path):
        runcache.configure(disk_dir=None)
        before = obs_metrics.capture()
        serve(TASKS[0])
        serve(TASKS[0])
        assert served_since(before) == 0

    def test_no_cache_writes_no_cells_directory(self, tmp_path, capsys):
        argv = ["compare", "f1", "--max-rounds", "20", "--jobs", "1",
                "--no-ledger", "--no-events", "--cache-dir", str(tmp_path)]
        assert main([*argv, "--no-cache"]) == 0
        assert not os.path.exists(tmp_path / "cells")
        assert not os.path.exists(runcache.default_disk_dir())
        assert main(argv) == 0
        assert cell_files(tmp_path)
        capsys.readouterr()
        assert main(argv) == 0
        assert capsys.readouterr().err.splitlines()[1:] == [
            "[cache: 0 hit(s), 0 miss(es), hit rate 0.0%]",
            "[cells: 10 served from the cache]",
        ]


@pytest.fixture
def pools(monkeypatch):
    """Every process pool ``run_tasks`` builds, each a real one that
    records its worker count and the tasks submitted to it."""
    built = []

    class RecordingPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, *args, max_workers, **kwargs):
            super().__init__(*args, max_workers=max_workers, **kwargs)
            self.workers = max_workers
            self.tasks = []
            built.append(self)

        def submit(self, fn, task):
            self.tasks.append(task)
            return super().submit(fn, task)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    return built


def campaign_record(tasks, jobs) -> dict:
    """What a campaign of ``tasks`` counts and reports, wall clock aside."""
    sink = MemorySink()
    set_active_bus(EventBus([sink]))
    before = obs_metrics.capture()
    try:
        outcomes = run_tasks(tasks, jobs=jobs)
    finally:
        set_active_bus(None)
    return {
        "counters": obs_metrics.capture(since=before)["counters"],
        "cases": sorted(
            (event["type"], event["case_id"], event["strategy"],
             event.get("success"), event.get("rounds"))
            for event in sink.events
            if event["type"] in ("case.start", "case.done")
        ),
        "served": [outcome.served for outcome in outcomes],
        "outcomes": [without_wall_clock(outcome) for outcome in outcomes],
    }


class TestServedCellsInAPool:
    def test_served_cells_merge_like_computed_ones(self, tmp_path, pools):
        tasks = TASKS * 2  # a task repeated within one campaign
        runcache.configure(disk_dir=str(tmp_path))
        computed = run_tasks(tasks, jobs=2)
        runcache.configure(disk_dir=str(tmp_path))
        before = obs_metrics.capture()
        served = run_tasks(tasks, jobs=2)
        assert served_since(before) == len(tasks)
        assert len(pools) == 1  # the cold campaign's: serving forks nothing
        # Which of a repeated task's two records is served depends on
        # which worker wrote last.
        assert [without_wall_clock(cell) for cell in served] == [
            without_wall_clock(cell) for cell in computed
        ]
        assert all(
            cell.telemetry["counters"] == {CELLS_SERVED_COUNTER: 1}
            for cell in served
        )
        # Partly served: only the first task's cell is stored.  The pool
        # forks for the two misses alone, and the campaign counts and
        # reports what the same campaign does at --jobs 1.
        partial = tmp_path / "partial"
        runcache.configure(disk_dir=str(partial))
        run_tasks(TASKS[:1], jobs=1)
        records = {}
        for jobs in (1, 2):
            shutil.copytree(partial, tmp_path / f"j{jobs}")
            runcache.configure(disk_dir=str(tmp_path / f"j{jobs}"))
            records[jobs] = campaign_record(TASKS, jobs)
        assert [(pool.workers, pool.tasks) for pool in pools[1:]] == [
            (2, TASKS[1:])
        ]
        assert records[2]["served"] == [True, False, False]
        assert records[2] == records[1]

    def test_a_campaign_served_whole_starts_no_pool(self, cold, monkeypatch):
        class NoPool:
            def __init__(self, *args, **kwargs):
                raise AssertionError("a served campaign built a process pool")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", NoPool)
        before = obs_metrics.capture()
        served = run_tasks(TASKS * 2, jobs=2)
        assert served_since(before) == 2 * len(TASKS)
        assert [without_wall_clock(cell) for cell in served] == [
            without_wall_clock(cell) for cell in cold * 2
        ]


class TestServedLedgerEntries:
    def test_a_warm_campaign_marks_its_entries_served(self, tmp_path, capsys):
        path = tmp_path / "ledger.jsonl"
        argv = ["compare", "f21", "--jobs", "1", "--no-events",
                "--cache-dir", str(tmp_path / "cache"), "--ledger", str(path)]
        assert main(argv) == 0
        cold = ledger.read_entries(str(path))
        assert main(argv) == 0
        warm = ledger.read_entries(str(path))[len(cold):]
        capsys.readouterr()
        assert len(cold) == len(warm) == 10
        assert not any("served" in entry for entry in cold)
        assert [entry.get("served") for entry in warm] == [True] * 10

        def unstamped(entry):
            return {
                key: value for key, value in entry.items()
                if key not in ("recorded_at", "served")
            }

        assert [unstamped(entry) for entry in warm] == [
            unstamped(entry) for entry in cold
        ]
        assert [ledger.entry_key(entry) for entry in warm] == [
            ledger.entry_key(entry) for entry in cold
        ]
        # watch's ETA reads only what a cell cost when it was computed.
        state = WatchState()
        state.apply({
            "schema": 1, "t": 1.0, "type": "campaign.start", "cases": ["f21"],
            "strategies": [entry["strategy"] for entry in cold], "jobs": 1,
            "cells": 10,
        })
        assert state.eta_seconds(cold + warm) == state.eta_seconds(cold) > 0
        assert state.eta_seconds(warm) is None
