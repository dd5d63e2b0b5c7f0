"""Golden behaviour of the simulation kernel on the whole failure catalog.

``kernel_golden.json`` holds a fingerprint of the no-fault run and of
the ground-truth replay of every catalog case — plain, and under the
early-verdict monitor where the case's oracle compiles to one.  It was
generated at the commit *before* the kernel hot path was rewritten
(``python tests/sim/test_kernel_golden.py`` regenerates it), so a green
run proves a kernel change moved nothing a run can observe: log text,
trace rows, end state, stuck and crashed task names, end time, and the
run counters ``events_executed``, ``events_pending`` and
``injection_requests``.

The signature baselines cannot see most of these (a crash record
attributed to thread ``main`` instead of the crashing task changes no
search signature); this is their tier-1 counterpart.
"""

from __future__ import annotations

import hashlib
import json
import pathlib

import pytest

from repro.core.verdict import compile_cutoff
from repro.failures import all_cases, get_case
from repro.injection.fir import InjectionPlan
from repro.sim.checkpoint import snapshot_fingerprint
from repro.sim.cluster import Cluster

GOLDEN = pathlib.Path(__file__).with_name("kernel_golden.json")


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:24]


def fingerprint(case, leg: str, monitored: bool) -> dict:
    plan, seed = None, case.seed
    if leg == "ground-truth":
        plan = InjectionPlan.single(case.ground_truth_instance())
        if case.failure_seed is not None:
            seed = case.failure_seed
    cluster = Cluster(seed=seed)
    cluster.fir.set_plan(plan)
    monitor = None
    if monitored:
        monitor = compile_cutoff(case.oracle).factory()
        monitor.attach(cluster)
    case.workload(cluster)
    result = cluster.run(case.horizon, monitor=monitor)
    return {
        "log": _digest(result.log.to_text()),
        "records": len(result.log),
        "trace": _digest(
            repr(
                [
                    (event.site_id, event.occurrence, event.time, event.log_index)
                    for event in result.trace
                ]
            )
        ),
        "state": snapshot_fingerprint({"state": result.state}),
        "stuck": [task.name for task in result.stuck],
        "crashed": [task.name for task in result.crashed],
        "injected": result.injected,
        "end_time": result.end_time,
        "truncated_at": result.truncated_at,
        "events_executed": cluster.sim.events_executed,
        # What ``verdict.events_saved`` reports at a cutoff: entries still
        # queued, cancelled ones included.
        "events_pending": cluster.sim.pending_events(),
        "injection_requests": result.injection_requests,
    }


def legs() -> list[tuple[str, str, bool]]:
    rows = []
    for case in all_cases():
        eligible = compile_cutoff(case.oracle) is not None
        for leg in ("no-fault", "ground-truth"):
            rows.append((case.case_id, leg, False))
            if eligible:
                rows.append((case.case_id, leg, True))
    return rows


def _key(case_id: str, leg: str, monitored: bool) -> str:
    return f"{case_id}/{leg}/{'monitored' if monitored else 'plain'}"


def test_golden_covers_the_whole_catalog():
    golden = json.loads(GOLDEN.read_text())
    assert sorted(golden) == sorted(_key(*row) for row in legs())
    assert len({key.split("/")[0] for key in golden}) == 27


@pytest.mark.parametrize(
    "case_id,leg,monitored", legs(), ids=[_key(*row) for row in legs()]
)
def test_run_matches_golden(case_id, leg, monitored):
    golden = json.loads(GOLDEN.read_text())
    assert fingerprint(get_case(case_id), leg, monitored) == golden[
        _key(case_id, leg, monitored)
    ]


if __name__ == "__main__":
    GOLDEN.write_text(
        json.dumps(
            {
                _key(*row): fingerprint(get_case(row[0]), row[1], row[2])
                for row in legs()
            },
            indent=1,
            sort_keys=True,
        )
        + "\n"
    )
    print(f"wrote {GOLDEN}")
