"""One benchmark leg in a fresh interpreter; the last stdout line is JSON.

``run.py`` starts every timed region in its own process so allocator and
GC aging in one pass cannot tax the next (the reason ``ckpt_sweep.py``
is a script).  Untraced CLI passes run ``python -m repro`` directly;
this file serves the rest:

* ``cli``     — a traced CLI pass: install the span wrappers, then call
  ``repro.__main__.main``;
* ``search``  — the ``search-deep`` pass (in-process ANDURIL searches
  under the ``reproduce`` command's runner defaults);
* ``replay``  — the ``replay-xl`` pass (inline and fork-served replays);
* ``micro``   — micro-drives of public functions for the layer metrics
  no span can give;
* ``expected`` — regenerate ``expected.json`` on the all-off path.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import resource
import statistics
import subprocess
import sys
import time

BOOTED_AT = time.time()
STARTED = time.perf_counter()

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "benchmarks"), HERE]

#: The campaign case list: one cheap case per mini system, a soft-fault
#: case among them, with one-round cells and budget-exhausting "-" cells.
CAMPAIGN_CASES = ("f1", "f11", "f14", "f24", "f21")
#: ``case+offset[@max_rounds]``: the case cloned with ``seed + offset``
#: while its production log keeps the original seed.
SEARCH_ITEMS = ("f6+2", "f7+2", "f23+2", "f12+2@24")
REPLAY_CASES = ("f1-xl", "f5-xl", "f16-xl", "f18-xl", "f21-xl")
INLINE_REPLAYS = 3
FORK_REPLAYS = 8
#: ``python -m repro reproduce``'s default round budget.
REPRODUCE_MAX_ROUNDS = 800
COMPARE_MAX_ROUNDS = 400


def boot_seconds() -> float:
    """Interpreter start to this module's first line, from the spawn stamp."""
    spawned = os.environ.get("E2E_SPAWNED_AT")
    return max(BOOTED_AT - float(spawned), 0.0) if spawned else 0.0


def cpu_now() -> float:
    """User + system CPU seconds of this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    reaped = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + reaped.ru_utime + reaped.ru_stime


class Timed:
    """Accumulates wall and CPU seconds over the blocks it encloses."""

    def __init__(self) -> None:
        self.wall = 0.0
        self.cpu = 0.0
        self.last = 0.0

    def __enter__(self) -> "Timed":
        self._cpu = cpu_now()
        self._wall = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        self.last = time.perf_counter() - self._wall
        self.wall += self.last
        self.cpu += cpu_now() - self._cpu


def start_tracer(trace_out):
    """Install the span wrappers when this leg is a traced one."""
    if not trace_out:
        return None
    import trace as spans

    tracer = spans.Tracer()
    spans.install(tracer)
    return tracer


def finish_tracer(tracer, trace_out, wall: float, extra_cli: float = 0.0) -> dict:
    """Reduce the spans, write them out raw, and return the layer figures."""
    if tracer is None:
        return {}
    import trace as spans

    from repro.obs import metrics as obs_metrics

    started = time.perf_counter()
    reduced = spans.reduce_spans(tracer.spans)
    reduced["busy"]["cli"] += extra_cli
    reduced["attributed"] += extra_cli
    reduced["wall"] = wall
    reduced["counters"] = obs_metrics.snapshot()
    with open(trace_out, "w", encoding="utf-8") as handle:
        json.dump(
            {
                "columns": ["name", "layer", "start", "end", "parent", "cell", "value"],
                "spans": tracer.spans,
            },
            handle,
        )
    # Reducing and writing the spans is the benchmark's work, not the
    # program's; a cli leg's wall, taken from outside, has it deducted.
    reduced["post_s"] = time.perf_counter() - started
    return reduced


# ------------------------------------------------------------------------ cli


def leg_cli(args) -> dict:
    boot = boot_seconds()
    import repro.__main__ as cli

    imported = time.perf_counter() - STARTED
    tracer = start_tracer(args.trace_out)
    tracer.enabled = True
    with tracer.span("cli.main", "cli"):
        code = cli.main(args.argv)
    tracer.enabled = False
    sys.stdout.flush()
    # run.py times this leg from outside, as it times an untraced one.
    return {
        "exit": code,
        "trace": finish_tracer(tracer, args.trace_out, 0.0, boot + imported),
    }


# --------------------------------------------------------------------- search


def search_case(item: str):
    """``(case, max_rounds)`` for one ``SEARCH_ITEMS`` entry."""
    from repro.failures import get_case

    spec, _, budget = item.partition("@")
    case_id, _, offset = spec.partition("+")
    base = get_case(case_id)
    case = dataclasses.replace(
        base,
        seed=base.seed + int(offset),
        failure_seed=base.seed if base.failure_seed is None else base.failure_seed,
    )
    return case, int(budget) if budget else REPRODUCE_MAX_ROUNDS


def script_reproduces(case, result) -> bool:
    """The emitted script, replayed bare, satisfies the case oracle."""
    if not result.success:
        return True
    return bool(case.oracle.satisfied(result.script.replay(case.workload)))


def leg_search(args) -> dict:
    from repro import cache as runcache
    from repro.obs import bus as event_bus

    tracer = start_tracer(args.trace_out)
    # The runner configuration of `python -m repro reproduce` with its
    # files relocated: disk cache, checkpoint, early verdict, coverage
    # accounting and the event stream on, one job.
    runcache.configure(enabled=True, disk_dir=os.path.join(args.tmp, "cache"))
    bus = event_bus.EventBus(
        [event_bus.JsonlSink(os.path.join(args.tmp, "events.jsonl"), append=False)]
    )
    event_bus.set_active_bus(bus)
    searches = []
    timed = Timed()
    try:
        prepared = [search_case(item) for item in args.items]
        for case, _ in prepared:
            case.failure_log()
        setup = boot_seconds() + time.perf_counter() - STARTED
        results = []
        for case, max_rounds in prepared:
            if tracer is not None:
                tracer.cell += 1
                tracer.enabled = True
            with timed:
                explorer = case.explorer(
                    max_rounds=max_rounds,
                    jobs=1,
                    track_coverage=True,
                    prune="static",
                    checkpoint=True,
                    early_verdict=True,
                )
                results.append(explorer.explore())
            if tracer is not None:
                tracer.enabled = False
        for item, (case, _), result in zip(args.items, prepared, results):
            searches.append(
                {
                    "id": item,
                    "success": result.success,
                    "rounds": result.rounds,
                    "script_ok": script_reproduces(case, result),
                }
            )
    finally:
        event_bus.set_active_bus(None)
        bus.close()
    return {
        "setup_s": setup,
        "wall_s": timed.wall,
        "cpu_s": timed.cpu,
        "searches": searches,
        "trace": finish_tracer(tracer, args.trace_out, timed.wall),
    }


# --------------------------------------------------------------------- replay


def result_digest(result) -> str:
    from repro.sim.checkpoint import snapshot_fingerprint

    return snapshot_fingerprint(
        {
            "log": result.log.to_text(),
            "state": result.state,
            "injected": result.injected,
            "stuck": sorted(task.name for task in result.stuck),
            "crashed": sorted(task.name for task in result.crashed),
            "end_time": result.end_time,
        }
    )


def observation(case, result) -> list:
    """What ``run.py`` judges one replay by: its digest and the oracle."""
    return [result_digest(result), bool(case.oracle.satisfied(result))]


def xl_cases() -> dict:
    from bench_cases import bench_cases

    return {case.case_id: case for case in bench_cases()}


def leg_replay(args) -> dict:
    # Before the imports below, so they bind the wrapped callables.
    tracer = start_tracer(args.trace_out)
    from repro.injection.fir import InjectionPlan
    from repro.sim.checkpoint import CheckpointPool
    from repro.sim.cluster import execute_workload

    catalog = xl_cases()
    prepared = []
    for case_id in args.items:
        case = catalog[case_id]
        plan = InjectionPlan.single(case.ground_truth_instance())
        probe = execute_workload(case.workload, horizon=case.horizon, seed=case.seed)
        prepared.append((case, plan, probe))
    setup = boot_seconds() + time.perf_counter() - STARTED

    inline, fork = Timed(), Timed()
    inline_ms, fork_ms, cases = [], [], []
    for case, plan, probe in prepared:
        run = dict(horizon=case.horizon, seed=case.seed, plan=plan)
        replays = []
        if tracer is not None:
            tracer.cell += 1
            tracer.enabled = True
        for _ in range(INLINE_REPLAYS):
            with inline:
                result = execute_workload(case.workload, **run)
            inline_ms.append(inline.last * 1e3)
            replays.append(observation(case, result))
        with fork:
            pool = CheckpointPool(case.workload, case.horizon, case.seed, probe.trace)
        try:
            for _ in range(FORK_REPLAYS):
                with fork:
                    result = pool.runner(case.workload, **run)
                fork_ms.append(fork.last * 1e3)
                replays.append(observation(case, result))
        finally:
            with fork:
                pool.close()
        if tracer is not None:
            tracer.enabled = False
        cases.append(
            {
                "id": case.case_id,
                "probe_requests": probe.injection_requests,
                "probe_records": len(probe.log),
                "replays": replays,
            }
        )
    wall = inline.wall + fork.wall
    return {
        "setup_s": setup,
        "wall_s": wall,
        "cpu_s": inline.cpu + fork.cpu,
        "replay_inline_s": inline.wall,
        "replay_fork_s": fork.wall,
        "inline_ms": inline_ms,
        "fork_ms": fork_ms,
        "cases": cases,
        "trace": finish_tracer(tracer, args.trace_out, wall),
    }


# ---------------------------------------------------------------------- micro


def median_seconds(function, repeats: int = 3) -> float:
    """Median wall seconds of ``function()`` over ``repeats`` calls."""
    samples = []
    for _ in range(repeats):
        started = time.perf_counter()
        function()
        samples.append(time.perf_counter() - started)
    return statistics.median(samples)


def micro_sim(metrics: dict) -> None:
    from repro.failures import get_case
    from repro.sim.cluster import Cluster

    def build(case):
        cluster = Cluster(seed=case.seed)
        cluster.fir.set_plan(None)
        case.workload(cluster)
        return cluster

    metrics["sim.boot_ms"] = 1e3 * statistics.median(
        median_seconds(lambda: build(get_case(case_id))) for case_id in CAMPAIGN_CASES
    )
    events = seconds = 0.0
    for case in xl_cases().values():
        cluster = build(case)
        started = time.perf_counter()
        cluster.run(case.horizon)
        seconds += time.perf_counter() - started
        events += cluster.sim.events_executed
    metrics["sim.events_per_s"] = events / seconds


def micro_injection(metrics: dict) -> None:
    from repro.injection.fir import FIR, InjectionPlan, dedupe_instances
    from repro.injection.sites import FaultInstance, SiteRef
    from repro.sim.cluster import execute_workload

    case = xl_cases()["f1-xl"]
    trace = execute_workload(case.workload, horizon=case.horizon, seed=case.seed).trace
    refs = {}
    for event in trace:
        if event.site_id not in refs:
            file, line, function, op = event.site_id.rsplit(":", 3)
            refs[event.site_id] = SiteRef(file, int(line), function, op)
    sequence = [refs[event.site_id] for event in trace]
    # A window-sized plan whose occurrences lie past the end of the run,
    # so every request pays the full match path and none fires.
    window = [
        FaultInstance(site_id, "IOException", len(trace) + index)
        for index, site_id in enumerate(list(refs)[:10])
    ]

    def decide():
        fir = FIR()
        fir.set_plan(InjectionPlan.of(window))
        for site in sequence:
            fir.on_site(site)

    metrics["injection.decide_us"] = 1e6 * median_seconds(decide) / len(sequence)
    builds = 2000

    def build_plans():
        for _ in range(builds):
            InjectionPlan.of(dedupe_instances(window))

    metrics["injection.plan_build_us"] = 1e6 * median_seconds(build_plans) / builds


def micro_logs(metrics: dict) -> None:
    from repro.logs.parser import LOG4J_FORMAT, LogParser

    case = xl_cases()["f21-xl"]
    log = case.run_with_ground_truth().log
    text = log.to_text(style=case.log_style)
    parser = LogParser([LOG4J_FORMAT])
    metrics["logs.parse_records_per_s"] = len(log) / median_seconds(
        lambda: parser.parse_text(text)
    )


def micro_analysis(metrics: dict) -> None:
    from repro.analysis.system_model import analyze_package, clear_facts_cache
    from repro.failures import all_cases

    packages = sorted({case.package for case in all_cases()})

    def analyze_all():
        clear_facts_cache()
        for package in packages:
            analyze_package(package)

    metrics["analysis.model_ms"] = 1e3 * median_seconds(analyze_all)


def micro_parallel(metrics: dict) -> None:
    from repro.bench.parallel import CampaignTask, run_tasks

    cell = CampaignTask.baseline("stacktrace", "f21", max_rounds=1, max_seconds=60.0)
    cells = 12
    run_tasks([cell], jobs=1)  # model and failure log warm, as in a campaign
    inline = median_seconds(lambda: run_tasks([cell] * cells, jobs=1)) / cells
    pair = median_seconds(lambda: run_tasks([cell] * 2, jobs=2))
    fanned = median_seconds(lambda: run_tasks([cell] * cells, jobs=2))
    # Two cells on two workers should cost one inline cell; the rest is
    # pool spin-up, pickling and shipping.  Past the first pair, every
    # further cell should cost half an inline cell.
    metrics["parallel.startup_ms"] = 1e3 * (pair - inline)
    metrics["parallel.dispatch_ms_per_cell"] = 1e3 * (
        (fanned - pair) / (cells - 2) - inline / 2
    )


def micro_obs(metrics: dict, tmp: str) -> None:
    from repro.obs import bus as event_bus

    events = 2000
    bus = event_bus.EventBus(
        [event_bus.JsonlSink(os.path.join(tmp, "micro-events.jsonl"), append=False)]
    )

    def emit():
        for index in range(events):
            bus.emit("round.begin", case_id="f1", strategy="anduril", round=index)

    try:
        metrics["obs.emit_us"] = 1e6 * median_seconds(emit) / events
    finally:
        bus.close()


def micro_cli(metrics: dict) -> None:
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))

    def python(*argv):
        subprocess.run(
            [sys.executable, *argv], env=env, cwd=ROOT, check=True,
            stdout=subprocess.DEVNULL,
        )

    metrics["cli.import_ms"] = 1e3 * median_seconds(
        lambda: python("-c", "import repro.__main__")
    )
    metrics["cli.startup_ms"] = 1e3 * median_seconds(lambda: python("-m", "repro", "list"))


def leg_micro(args) -> dict:
    metrics: dict = {}
    micro_sim(metrics)
    micro_injection(metrics)
    micro_logs(metrics)
    micro_analysis(metrics)
    micro_parallel(metrics)
    micro_obs(metrics, args.tmp)
    micro_cli(metrics)
    return {"metrics": metrics}


# ------------------------------------------------------------------- expected


def leg_expected(args) -> dict:
    """The reference outcomes, computed with every accelerator off."""
    from repro import cache as runcache
    from repro.baselines import ALL_STRATEGIES
    from repro.bench import run_compare_campaign
    from repro.failures import get_case
    from repro.sim.cluster import execute_workload

    runcache.configure(enabled=False)
    strategies = list(ALL_STRATEGIES)
    budget = dict(checkpoint=False, early_verdict=False, max_rounds=COMPARE_MAX_ROUNDS)
    anduril, cells = run_compare_campaign(
        [get_case(case_id) for case_id in CAMPAIGN_CASES],
        strategies,
        jobs=1,
        anduril_options=dict(budget, profile=False),
        strategy_options=dict(budget, max_seconds=60.0),
    )
    campaign = {}
    for case_id in CAMPAIGN_CASES:
        outcomes = [anduril[case_id]] + [cells[(name, case_id)] for name in strategies]
        campaign[case_id] = [[outcome.success, outcome.rounds] for outcome in outcomes]
    search = {}
    for item in SEARCH_ITEMS:
        case, max_rounds = search_case(item)
        result = case.explorer(
            max_rounds=max_rounds, jobs=1, checkpoint=False, early_verdict=False
        ).explore()
        if not script_reproduces(case, result):
            raise SystemExit(f"{item}: script does not reproduce")
        search[item] = [result.success, result.rounds]
    replay = {}
    for case_id, case in xl_cases().items():
        probe = execute_workload(case.workload, horizon=case.horizon, seed=case.seed)
        result = case.run_with_ground_truth()
        if not case.oracle.satisfied(result):
            raise SystemExit(f"{case_id}: ground truth does not satisfy the oracle")
        replay[case_id] = {
            "digest": result_digest(result),
            "probe_requests": probe.injection_requests,
            "probe_records": len(probe.log),
        }
    return {
        "strategies": ["anduril", *strategies],
        "campaign": campaign,
        "search": search,
        "replay": replay,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("kind", choices=("cli", "search", "replay", "micro", "expected"))
    parser.add_argument("--tmp", help="scratch directory of this pass")
    parser.add_argument("--items", type=lambda text: text.split(","), default=[])
    parser.add_argument("--trace-out", help="write raw spans here (traced leg)")
    # Everything after "--" is the repro command line of a cli leg.
    own = sys.argv[1:]
    cli_argv = []
    if "--" in own:
        cli_argv = own[own.index("--") + 1:]
        own = own[: own.index("--")]
    args = parser.parse_args(own)
    args.argv = cli_argv
    leg = {
        "cli": leg_cli,
        "search": leg_search,
        "replay": leg_replay,
        "micro": leg_micro,
        "expected": leg_expected,
    }[args.kind]
    document = leg(args)
    if args.kind == "expected":
        # One line per case, so a changed outcome is a one-line diff.
        sections = []
        for section, value in sorted(document.items()):
            if isinstance(value, dict):
                rows = ",\n".join(
                    f"  {json.dumps(key)}: {json.dumps(value[key], sort_keys=True)}"
                    for key in sorted(value)
                )
                sections.append(f" {json.dumps(section)}: {{\n{rows}\n }}")
            else:
                sections.append(f" {json.dumps(section)}: {json.dumps(value)}")
        print("{\n" + ",\n".join(sections) + "\n}")
    else:
        print(json.dumps(document))
    return 0


if __name__ == "__main__":
    sys.exit(main())
