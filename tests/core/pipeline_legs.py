"""Fresh-interpreter legs for ``test_pipeline.py``; prints one JSON line.

Run as a script so that what is asserted — no child process left behind,
a worker configured by nothing but its pickled ``RunConfig`` — cannot be
helped or hidden by whatever else the test process has running.

* ``leak-explorer`` / ``leak-strategy`` — raise out of the round loop
  while a checkpoint holder is parked, then look for surviving children.
  On a late-failing ``-xl`` case: the pool's cost model parks no holder
  for the millisecond runs of the catalog.
* ``worker-config DIR`` — a two-cell campaign over *spawn*-started pool
  workers, which share nothing with this process but their arguments.
"""

import dataclasses
import json
import multiprocessing
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", ".."))

from repro.baselines import ALL_STRATEGIES, StrategyRunner
from repro.bench.parallel import CampaignTask, inline_fallback_count, run_tasks
from repro.core.oracle import Oracle
from repro.core.pipeline import RunConfig
from repro.obs import metrics
from repro.obs.bus import EventBus, MemorySink, set_active_bus
from tests.bench_xl import xl_case


class Boom(Exception):
    pass


class ExplodesOnceForked(Oracle):
    """Unsatisfied until a checkpoint holder exists, then raises."""

    description = "raises mid-search"

    def __init__(self) -> None:
        self.before = metrics.get("sim.checkpoint.opens")

    def satisfied(self, result) -> bool:
        if metrics.get("sim.checkpoint.opens") > self.before:
            raise Boom
        return False


def surviving_children() -> bool:
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return False
    return True


def leak(search) -> dict:
    case = xl_case("f1-xl")
    case.failure_log()  # generated (and cached per id) under the real oracle
    oracle = ExplodesOnceForked()
    try:
        search(case, oracle)
    except Boom:
        pass
    opened = metrics.get("sim.checkpoint.opens") - oracle.before
    return {"holders_opened": opened, "children": surviving_children()}


def leak_explorer(case, oracle) -> None:
    case.explorer(oracle=oracle, checkpoint=True, max_rounds=20).explore()


def leak_strategy(case, oracle) -> None:
    StrategyRunner(max_rounds=20, checkpoint=True).run(
        ALL_STRATEGIES["multiply-feedback"](),
        dataclasses.replace(case, oracle=oracle),
    )


def worker_config(cache_dir: str) -> dict:
    multiprocessing.set_start_method("spawn")
    RunConfig(cache=True, cache_dir=cache_dir, events=True).install()
    capture = MemorySink()
    set_active_bus(EventBus([capture]))
    try:
        outcomes = run_tasks(
            [
                CampaignTask.anduril("f1", max_rounds=50),
                CampaignTask.anduril("f3", max_rounds=50),
            ],
            jobs=2,
        )
    finally:
        set_active_bus(None)
    return {
        "reproduced": [outcome.success for outcome in outcomes],
        "inline_fallbacks": inline_fallback_count(),
        "cache_entries": len(os.listdir(cache_dir)),
        "round_events_from": sorted(
            {e["case_id"] for e in capture.events if e["type"] == "round.end"}
        ),
    }


if __name__ == "__main__":
    leg = sys.argv[1]
    if leg == "worker-config":
        document = worker_config(sys.argv[2])
    else:
        document = leak({"leak-explorer": leak_explorer,
                         "leak-strategy": leak_strategy}[leg])
    print(json.dumps(document))
