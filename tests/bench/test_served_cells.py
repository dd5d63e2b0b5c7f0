"""Campaign cells served whole from the run cache's ``cells`` tier.

A cell is a pure function of its task and the code (DESIGN §8.1), so
with a disk tier ``execute_task`` stores each finished cell and serves
it back to the next campaign that asks for the same task.
"""

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
from repro.obs import metrics as obs_metrics

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
        served = [execute_task(task) for task in TASKS]
        assert served_since(before) == len(TASKS)
        # Nothing was looked up, let alone run.
        assert cache_counters["hits"] == cache_counters["misses"] == 0
        for got, stored in zip(served, cold):
            assert dataclasses.replace(got, telemetry={}) == dataclasses.replace(
                stored, telemetry={}
            )
            assert got.telemetry["counters"] == {CELLS_SERVED_COUNTER: 1}

    def test_a_served_cell_equals_a_fresh_computation(self, cold):
        served = [execute_task(task) for task in TASKS]
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
            outcome = execute_task(TASKS[-1])
        assert cache_counters["disk_errors"] == 1
        assert served_since(before) == 0
        assert cache_counters["hits"] > 0  # the search ran, off the run tier
        assert without_wall_clock(outcome) == without_wall_clock(cold[-1])
        # The recomputed record supersedes the torn one.
        runcache.configure(disk_dir=str(tmp_path))
        before = obs_metrics.capture()
        execute_task(TASKS[-1])
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
        for task in TASKS:
            execute_task(task)
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
        execute_task(TASKS[0])
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
        outcomes = [execute_task(task), execute_task(task)]
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
        execute_task(TASKS[0])
        execute_task(TASKS[0])
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


class TestServedCellsInAPool:
    def test_served_cells_merge_like_computed_ones(self, tmp_path):
        tasks = TASKS * 2  # a task repeated within one campaign
        runcache.configure(disk_dir=str(tmp_path))
        computed = run_tasks(tasks, jobs=2)
        runcache.configure(disk_dir=str(tmp_path))
        before = obs_metrics.capture()
        served = run_tasks(tasks, jobs=2)
        assert served_since(before) == len(tasks)
        # Which of a repeated task's two records is served depends on
        # which worker wrote last.
        assert [without_wall_clock(cell) for cell in served] == [
            without_wall_clock(cell) for cell in computed
        ]
        assert all(
            cell.telemetry["counters"] == {CELLS_SERVED_COUNTER: 1}
            for cell in served
        )
