"""Tests for tools/merge_e2e.py — the CI perf gate's per-side merge.

Runs the tool as a subprocess, as CI does, over synthetic result sets
shaped like ``benchmarks/e2e/run.py --out``'s."""

import json
import os
import subprocess
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))
TOOL = os.path.join(REPO_ROOT, "tools", "merge_e2e.py")


def result_set(wall_values, attempted, failed):
    return {
        "reps": 1,
        "host": {"cores": 2},
        "workloads": {
            "campaign-bare": {
                "attempted": attempted,
                "failed": failed,
                "failed_share": failed / attempted,
                "metrics": {
                    "wall_s": {
                        "values": list(wall_values),
                        "n": len(wall_values),
                        "median": wall_values[0],
                        "min": wall_values[0],
                        "max": wall_values[0],
                        "unit": "s",
                    },
                },
            },
        },
    }


def write_side(out, side, sets):
    for number, doc in enumerate(sets, start=1):
        with open(os.path.join(out, f"{side}-{number}.json"), "w") as handle:
            json.dump(doc, handle)


def run_tool(out):
    return subprocess.run(
        [sys.executable, TOOL, str(out)],
        capture_output=True, text=True, timeout=60,
    )


def test_each_side_pools_its_three_result_sets(tmp_path):
    write_side(tmp_path, "parent", [
        result_set([3.0], 5, 0), result_set([1.0], 5, 1), result_set([2.0], 5, 0),
    ])
    write_side(tmp_path, "head", [
        result_set([4.0, 6.0], 4, 0), result_set([5.0], 4, 2), result_set([9.0], 4, 0),
    ])
    process = run_tool(tmp_path)
    assert process.returncode == 0, process.stderr
    with open(tmp_path / "parent.json") as handle:
        parent = json.load(handle)
    with open(tmp_path / "head.json") as handle:
        head = json.load(handle)

    assert parent["reps"] == head["reps"] == 3
    assert parent["host"] == {"cores": 2}
    workload = parent["workloads"]["campaign-bare"]
    wall = workload["metrics"]["wall_s"]
    # Values concatenate in result-set order; the statistics follow them.
    assert wall["values"] == [3.0, 1.0, 2.0]
    assert (wall["n"], wall["median"], wall["min"], wall["max"]) == (3, 2.0, 1.0, 3.0)
    assert wall["unit"] == "s"
    assert (workload["attempted"], workload["failed"]) == (15, 1)
    assert workload["failed_share"] == 1 / 15

    workload = head["workloads"]["campaign-bare"]
    wall = workload["metrics"]["wall_s"]
    assert wall["values"] == [4.0, 6.0, 5.0, 9.0]
    assert (wall["n"], wall["median"], wall["min"], wall["max"]) == (4, 5.5, 4.0, 9.0)
    assert (workload["attempted"], workload["failed"]) == (12, 2)
    assert workload["failed_share"] == 2 / 12


def test_a_side_short_of_three_result_sets_fails(tmp_path):
    write_side(tmp_path, "parent", [result_set([1.0], 5, 0)] * 3)
    write_side(tmp_path, "head", [result_set([1.0], 5, 0)] * 2)
    process = run_tool(tmp_path)
    assert process.returncode != 0
    assert "head: 2 of 3 result sets" in process.stderr
    assert not (tmp_path / "head.json").exists()
