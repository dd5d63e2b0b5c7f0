"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``list`` — show the failure dataset (the catalog index alone).
* ``reproduce <case_id>`` — run the feedback-driven search on one case
  and print the reproduction script.
* ``replay <case_id> <script.json>`` — replay a saved reproduction script.
* ``compare <case_id>|all`` — run every strategy on one case (Table-2
  row) or the whole dataset, fanned out over ``--jobs`` worker processes.
* ``watch [EVENTS.jsonl]`` — render a campaign's live event stream
  (``repro.obs.bus``): per-cell status and rounds, ground-truth rank
  movement, cache/checkpoint/worker rates, and an ETA from the run
  ledger.  ``--follow`` tails a concurrently running campaign until its
  ``campaign.done`` event; ``--format jsonl`` re-emits validated events.
* ``inspect <case_id>`` — show the prepared search state (observables,
  causal graph, top candidates) without searching.
* ``trace <case_id>`` — run the search with the ``repro.obs`` recorder
  attached and export the trace (Chrome ``trace_event`` JSON, structured
  JSON, or a text summary).
* ``explain <case_id>`` — reproduce the case with tracing on and print
  the provenance chain (evidence → I_k adjustments → rank movement →
  plan inclusion → injection) for every injected instance of the plan.
* ``report`` — render the self-contained HTML campaign dashboard from
  the artifacts under ``benchmarks/out/``.
* ``lint <package>`` — run the fault-handling defect detector over an
  importable package and print the findings (text or JSON).
* ``analyze <case_id>|all`` — run the interprocedural fault-propagation
  analysis for one or more cases: committed exploration with static
  fault-space pruning on, reporting the propagation-graph shape, the
  pruned space, and any dynamic contradictions (a fired triple the
  analysis had called unreachable exits 1).

``reproduce``, ``compare``, ``inspect``, and ``analyze`` accept
``--fault-dims exceptions|soft|all`` to override which fault dimensions
the search enumerates (raised exceptions, corrupted return values, or
both; default: each case's own setting).  ``reproduce`` and ``compare``
accept ``--profile`` to sample run-level metrics (FIR decision latency,
scheduler counters) without changing the search outcome.  Both append one entry per (strategy, case) cell to the
run ledger (``benchmarks/out/ledger.jsonl``) unless ``--no-ledger``,
and both memoize deterministic runs through :mod:`repro.cache` unless
``--no-cache`` (``--cache-dir`` relocates the shared disk tier).  Round
runs fork off a parked prefix snapshot (:mod:`repro.sim.checkpoint`)
unless ``--no-checkpoint`` — outcome-invariant either way, and a no-op
where ``os.fork`` is unavailable.  Round runs stop the moment the
oracle's verdict is decided (:mod:`repro.core.verdict`) unless
``--no-early-verdict`` — also outcome-invariant: only satisfied runs can
truncate, so feedback always sees full logs and exploration signatures
are byte-identical either way.  Both stream live progress events to
``benchmarks/out/events.jsonl`` for ``repro watch`` unless
``--no-events`` (``--events-out`` relocates the stream); the bus is
outcome-invariant — signatures are byte-identical with events on or
off.  ``compare`` also takes a comma-separated case-id list and
``--summary-out PATH`` for the machine-readable campaign summary.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import dataclasses
import json
import os
import sys
import time

# Each command imports what it executes, where it executes it: every
# process compiles its imports from source, and `list` or `--help` need
# none of the search stack.  Building the parser imports nothing either
# (see _LazyHelp).


def _write_text(path: str, payload: str, what: str = "output") -> bool:
    """Write ``payload`` to ``path``, creating missing parent directories.

    Returns ``False`` (after a clear stderr message) instead of raising
    when the path is unwritable, so commands can exit nonzero cleanly.
    """
    try:
        directory = os.path.dirname(os.path.abspath(path))
        if directory:
            os.makedirs(directory, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(payload)
    except OSError as error:
        print(f"error: cannot write {what} to {path}: {error}", file=sys.stderr)
        return False
    return True


def _append_ledger(entries: list, args) -> None:
    """Append run-ledger entries, honoring ``--no-ledger``/``--ledger``."""
    if getattr(args, "no_ledger", False):
        return
    from .obs import ledger

    try:
        path = ledger.append_entries(
            entries, path=getattr(args, "ledger", None)
        )
    except OSError as error:
        print(f"warning: could not append run ledger: {error}", file=sys.stderr)
        return
    print(f"[ledger: {len(entries)} entr(ies) -> {path}]", file=sys.stderr)


def _run_config(args, jobs: int = 1):
    """This invocation's one :class:`~repro.core.pipeline.RunConfig`, from
    its flags (a command without a knob's flag runs with that knob off).
    Nothing is exported to the environment: worker processes receive the
    config as their pool initializer's argument (DESIGN §5.3)."""
    from . import cache as runcache
    from .core.pipeline import RunConfig

    cache = getattr(args, "cache", False)
    cache_dir = getattr(args, "cache_dir", None) or runcache.default_disk_dir()
    return RunConfig(
        cache=cache,
        cache_dir=cache_dir if cache else None,
        checkpoint=getattr(args, "checkpoint", False),
        early_verdict=getattr(args, "early_verdict", False),
        events=getattr(args, "events", False),
        jobs=jobs,
    )


@contextlib.contextmanager
def _event_stream(config, args):
    """The live event bus per ``--events``/``--events-out``, for a block.

    Yields the installed :class:`~repro.obs.bus.EventBus` (or ``None``
    when events are off or the stream path is unwritable).  Campaign pool
    workers capture-and-ship their events exactly when this process has
    a bus to forward them to (see :mod:`repro.bench.parallel`).  The
    stream file is truncated per campaign so ``repro watch`` always
    tails the run in progress.
    """
    from .obs import bus as event_bus

    bus = None
    if config.events:
        path = getattr(args, "events_out", None) or event_bus.DEFAULT_PATH
        try:
            bus = event_bus.EventBus([event_bus.JsonlSink(path, append=False)])
        except OSError as error:
            print(
                f"warning: cannot open event stream {path}: {error}",
                file=sys.stderr,
            )
        else:
            event_bus.set_active_bus(bus)
            print(f"[events -> {path}]", file=sys.stderr)
    try:
        yield bus
    finally:
        if bus is not None:
            event_bus.set_active_bus(None)
            bus.close()


#: One stderr line per runner section that moved; missing keys render
#: as 0.
_STATS_LINES = {
    "cache": "[cache: {hits} hit(s), {alias_hits} alias(es), "
    "{misses} miss(es), hit rate {hit_rate:.1%}]",
    "checkpoint": "[checkpoint: {opens} snapshot(s), {forks} fork(s), "
    "{declined} run(s) kept inline by the cost model, "
    "{requests_saved} prefix request(s) skipped]",
    "verdict": "[early-verdict: {cutoffs} cutoff(s), "
    "{virtual_seconds_saved} virtual second(s) and "
    "{events_saved} event(s) saved]",
}

#: What the end-of-run ``[degraded: ...]`` line lists: (counter, label).
_DEGRADED = (
    ("campaign.inline_fallbacks", "cell(s) re-run inline after worker failures"),
    ("sim.checkpoint.fallbacks", "failed checkpoint fork(s) re-run inline"),
    ("cache.disk_errors", "cache disk error(s)"),
)


def _print_runner_stats() -> None:
    """The run's bookkeeping on stderr, from the one reducer: a line per
    runner section that moved, then one ``[degraded: ...]`` line naming
    every fallback the run took (silent when clean)."""
    from .obs import metrics as obs_metrics

    for section, values in obs_metrics.runner_stats().items():
        print(
            _STATS_LINES[section].format_map(collections.defaultdict(int, values)),
            file=sys.stderr,
        )
    degraded = [
        f"{int(obs_metrics.get(counter))} {label}"
        for counter, label in _DEGRADED
        if obs_metrics.get(counter)
    ]
    if degraded:
        print(f"[degraded: {', '.join(degraded)}]", file=sys.stderr)


def cmd_list(_args) -> int:
    from .bench.tables import format_table
    from .failures import INDEX

    rows = [(case_id, *row) for case_id, row in INDEX.items()]
    print(format_table(["id", "issue", "system", "title"], rows))
    return 0


def _print_profile(recorder) -> None:
    """Render the flat metrics dict of a profiled run to stderr."""
    metrics = recorder.metrics()
    if not metrics:
        print("[profile: no metrics recorded]", file=sys.stderr)
        return
    print("[profile]", file=sys.stderr)
    for key in sorted(metrics):
        value = metrics[key]
        rendered = f"{value:.6f}" if isinstance(value, float) else str(value)
        print(f"  {key} = {rendered}", file=sys.stderr)


def cmd_reproduce(args) -> int:
    config = _run_config(args)
    config.install()
    with _event_stream(config, args):
        return _cmd_reproduce_body(args, config)


def _cmd_reproduce_body(args, config) -> int:
    from .failures import get_case
    from .obs import bus as event_bus
    from .obs import ledger

    case = _with_fault_dims(args, get_case(args.case_id))
    print(f"{case.issue}: {case.title}")
    print(f"oracle: {case.oracle.description}")
    recorder = None
    if args.profile:
        from .obs import TraceRecorder

        recorder = TraceRecorder()
    explorer = case.explorer(
        max_rounds=args.max_rounds,
        recorder=recorder,
        track_coverage=True,
        prune=args.prune,
        checkpoint=config.checkpoint,
        early_verdict=config.early_verdict,
    )
    # A single reproduce is a one-cell campaign to the event stream, so
    # the same watch view covers both commands.
    bus = event_bus.active_bus()
    reporter = event_bus.RoundReporter(bus, case.case_id, "anduril")
    event_bus.campaign_start(bus, [(case.case_id, "anduril")], config.jobs)
    reporter.start()
    result = explorer.explore()
    reporter.done(result.success, result.rounds, result.elapsed_seconds)
    event_bus.campaign_done(
        bus, 1, int(result.success), result.elapsed_seconds
    )
    if recorder is not None:
        _print_profile(recorder)
    coverage = result.coverage.to_dict() if result.coverage else None
    if result.coverage is not None:
        pruned = ""
        if result.coverage.pruned_space_size is not None:
            dropped = (
                result.coverage.space_size - result.coverage.pruned_space_size
            )
            pruned = (
                f", statically pruned {dropped} "
                f"({len(result.coverage.contradictions)} contradiction(s))"
            )
        print(
            f"[coverage: planned {result.coverage.planned}/"
            f"{result.coverage.space_size} "
            f"({result.coverage.planned_fraction:.1%}), "
            f"fired {result.coverage.fired}{pruned}]",
            file=sys.stderr,
        )
    _append_ledger(
        [
            ledger.make_entry(
                case_id=case.case_id,
                strategy="anduril",
                success=result.success,
                rounds=result.rounds,
                seconds=result.elapsed_seconds,
                seed=case.seed,
                jobs=config.jobs,
                coverage=coverage,
                metrics=recorder.metrics() if recorder is not None else None,
            )
        ],
        args,
    )
    _print_runner_stats()
    if not result.success:
        print(f"NOT reproduced: {result.message} ({result.rounds} rounds)")
        return 1
    print(
        f"reproduced in {result.rounds} rounds "
        f"({result.elapsed_seconds:.1f}s): {result.injected}"
    )
    script_json = result.script.to_json()
    print(script_json)
    if args.output:
        if not _write_text(args.output, script_json + "\n", what="script"):
            return 2
        print(f"script written to {args.output}")
    return 0


def cmd_replay(args) -> int:
    from .core.pipeline import RunPipeline
    from .core.report import ReproductionScript
    from .failures import get_case

    case = get_case(args.case_id)
    with open(args.script, encoding="utf-8") as handle:
        script = ReproductionScript.from_json(handle.read())
    pipeline = RunPipeline(
        case.workload, script.horizon, script.seed, case.oracle,
        _run_config(args),
    )
    result = script.replay(case.workload, monitor=pipeline.monitor())
    # A truncated replay is oracle-equivalent to the full run: cutoff
    # fires only once the verdict is decided TRUE independent of the
    # remainder, so the post-hoc check below reads the same either way.
    satisfied = case.oracle.satisfied(result)
    print(f"injected: {result.injected}  oracle satisfied: {satisfied}")
    return 0 if satisfied else 1


def _resolve_compare_cases(spec: str) -> list:
    """``all``, one case id, or a comma-separated id list (order kept).
    Every id is checked against the catalog index before the first case
    module loads."""
    from .failures import all_cases, check_case_ids, get_case

    if spec == "all":
        return all_cases()
    case_ids = [case_id.strip() for case_id in spec.split(",") if case_id.strip()]
    check_case_ids(case_ids)
    return [get_case(case_id) for case_id in case_ids]


def cmd_compare(args) -> int:
    cases = _resolve_compare_cases(args.case_id)
    if not cases:
        print(f"error: no case ids in {args.case_id!r}", file=sys.stderr)
        return 2
    # What a cell executes is loaded before --jobs forks the pool, or
    # each worker would compile it again: the case modules are in now,
    # bench.parallel brings the harness, baselines, pipeline and cache,
    # and the Explorer is the rest.
    from .bench.parallel import resolve_jobs
    from .core import explorer  # noqa: F401

    config = _run_config(args, resolve_jobs(args.jobs))
    config.install()
    # The campaign engine (repro.bench.parallel.run_tasks) emits the
    # campaign/case lifecycle events and forwards worker-captured round
    # events through the active bus installed here.
    with _event_stream(config, args):
        return _cmd_compare_body(args, config, cases)


def _cmd_compare_body(args, config, cases: list) -> int:
    from .baselines import ALL_STRATEGIES
    from .bench.parallel import run_compare_campaign
    from .bench.tables import format_table
    from .obs import ledger

    jobs = config.jobs
    # Cells address cases by id, so every per-cell setting — the runner
    # knobs and a --fault-dims override alike — rides in the task options.
    cell_options = dict(
        max_rounds=args.max_rounds,
        checkpoint=config.checkpoint,
        early_verdict=config.early_verdict,
    )
    if args.fault_dims:
        cell_options["fault_dims"] = args.fault_dims
    strategies = list(ALL_STRATEGIES)
    started = time.perf_counter()
    anduril_by_case, cells = run_compare_campaign(
        cases,
        strategies,
        jobs=jobs,
        anduril_options=dict(cell_options, profile=args.profile),
        strategy_options=dict(cell_options, max_seconds=60.0),
    )
    elapsed = time.perf_counter() - started
    if len(cases) == 1:
        case = cases[0]
        rows = [("anduril", anduril_by_case[case.case_id].cell)]
        rows.extend(
            (name, cells[(name, case.case_id)].cell) for name in strategies
        )
        print(format_table(["strategy", "rounds/time"], rows,
                           title=f"{case.case_id} ({case.issue})"))
    else:
        # Campaign table cells show rounds only (no wall clock) so the
        # stdout table is byte-identical regardless of --jobs; timing goes
        # to stderr.
        headers = ["case", "anduril", *strategies]
        rows = [
            [
                f"{case.case_id} ({case.issue})",
                anduril_by_case[case.case_id].deterministic_cell,
                *(
                    cells[(name, case.case_id)].deterministic_cell
                    for name in strategies
                ),
            ]
            for case in cases
        ]
        print(format_table(
            headers, rows,
            title="strategy comparison (rounds to reproduce; '-' = failed)",
        ))
    print(
        f"[campaign: {len(cases)} case(s) x {1 + len(strategies)} strategies, "
        f"jobs={jobs}, {elapsed:.1f}s]",
        file=sys.stderr,
    )
    entries = [
        ledger.entry_from_outcome(
            anduril_by_case[case.case_id],
            strategy="anduril",
            seed=case.seed,
            jobs=jobs,
        )
        for case in cases
    ]
    entries.extend(
        ledger.entry_from_outcome(
            cells[(name, case.case_id)],
            strategy=name,
            seed=case.seed,
            jobs=jobs,
        )
        for name in strategies
        for case in cases
    )
    _append_ledger(entries, args)
    _print_runner_stats()
    if args.summary_out:
        from .bench import summary as bench_summary

        bench_summary.clear()
        for outcome in (*anduril_by_case.values(), *cells.values()):
            bench_summary.record_outcome(outcome)
        try:
            path = bench_summary.write_bench_summary(args.summary_out)
        except OSError as error:
            print(
                f"error: cannot write summary to {args.summary_out}: {error}",
                file=sys.stderr,
            )
            return 2
        print(f"[summary -> {path}]", file=sys.stderr)
    if args.profile:
        for case in cases:
            outcome = anduril_by_case[case.case_id]
            decision = outcome.mean_decision_us
            print(
                f"[profile {case.case_id}: mean FIR decision "
                f"{decision:.1f}us, {len(outcome.metrics)} metric(s)]",
                file=sys.stderr,
            )
    return 0


def cmd_trace(args) -> int:
    from .failures import get_case
    from .obs import TraceRecorder

    case = get_case(args.case_id)
    recorder = TraceRecorder()
    explorer = case.explorer(max_rounds=args.max_rounds, recorder=recorder)
    result = explorer.explore()
    if args.format == "chrome":
        payload = json.dumps(recorder.to_chrome(), indent=2) + "\n"
    elif args.format == "json":
        payload = json.dumps(recorder.to_json(), indent=2) + "\n"
    else:
        payload = recorder.to_text() + "\n"
    if args.out:
        if not _write_text(args.out, payload, what="trace"):
            return 2
        print(f"trace written to {args.out}", file=sys.stderr)
    else:
        sys.stdout.write(payload)
    status = "reproduced" if result.success else "not reproduced"
    print(
        f"[trace {case.case_id}: {status} in {result.rounds} round(s), "
        f"{len(recorder.spans)} span(s), {len(recorder.events)} event(s)]",
        file=sys.stderr,
    )
    return 0


def cmd_explain(args) -> int:
    from .failures import get_case
    from .obs import TraceRecorder, build_plan_provenance

    case = get_case(args.case_id)
    recorder = TraceRecorder()
    explorer = case.explorer(
        max_rounds=args.max_rounds, recorder=recorder, track_coverage=True
    )
    result = explorer.explore()
    if not result.success:
        print(
            f"error: {case.case_id} not reproduced within {result.rounds} "
            f"round(s) ({result.message}); nothing to explain",
            file=sys.stderr,
        )
        return 1
    provenance = build_plan_provenance(recorder, result)
    if args.format == "json":
        print(provenance.to_json())
    else:
        print(result.script.describe())
        print()
        print(provenance.to_text())
        if result.coverage is not None:
            print(
                f"\nsearch touched {result.coverage.planned} of "
                f"{result.coverage.space_size} injectable instances "
                f"({result.coverage.planned_fraction:.1%}) over "
                f"{result.rounds} round(s)"
            )
    return 0


def _write_frame(output: str, is_tty: bool) -> None:
    if is_tty:
        # Clear and home between frames so the table redraws in place.
        sys.stdout.write("\x1b[2J\x1b[H" + output + "\n")
    else:
        sys.stdout.write(output + "\n\n")
    sys.stdout.flush()


def cmd_watch(args) -> int:
    from .obs import bus as event_bus
    from .obs import ledger
    from .obs import watch as watch_view

    path = args.path or event_bus.DEFAULT_PATH
    if not args.follow and not os.path.exists(path):
        print(f"error: no event stream at {path}", file=sys.stderr)
        return 2
    poll = max(min(args.interval, 0.2), 0.01)
    if args.format == "jsonl":
        invalid = 0
        try:
            for event in event_bus.tail_events(
                path,
                follow=args.follow,
                poll_interval=poll,
                timeout=args.timeout,
            ):
                if event_bus.validate_event(event):
                    invalid += 1
                    continue
                print(json.dumps(event, sort_keys=True), flush=args.follow)
        except BrokenPipeError:
            # Downstream (head, a closed pager) stopped reading; that is
            # a normal way to end a stream view, not an error.
            sys.stderr.close()
            return 0
        if invalid:
            print(
                f"warning: skipped {invalid} schema-invalid event(s)",
                file=sys.stderr,
            )
        return 0
    state = watch_view.WatchState()
    history = ledger.read_entries(getattr(args, "ledger", None))
    if not args.follow:
        for event in event_bus.read_events(path):
            state.apply(event)
        print(watch_view.render(state, history))
        return 0
    is_tty = sys.stdout.isatty()
    last_render = 0.0
    for event in event_bus.tail_events(
        path, follow=True, poll_interval=poll, timeout=args.timeout
    ):
        state.apply(event)
        now = time.monotonic()
        if now - last_render >= args.interval:
            last_render = now
            _write_frame(watch_view.render(state, history), is_tty)
    # Final frame: the stream ended (campaign.done or timeout).
    _write_frame(watch_view.render(state, history), is_tty)
    return 0


def cmd_report(args) -> int:
    from .failures import INDEX
    from .obs import write_report

    systems = {case_id: system for case_id, (_, system, _) in INDEX.items()}
    try:
        path = write_report(
            path=args.out, out_dir=args.dir, systems=systems
        )
    except OSError as error:
        target = args.out or "benchmarks/out/report.html"
        print(f"error: cannot write report to {target}: {error}", file=sys.stderr)
        return 2
    print(f"report written to {path}")
    return 0


def cmd_inspect(args) -> int:
    from .failures import get_case

    case = _with_fault_dims(args, get_case(args.case_id))
    prepared = case.explorer().prepare()
    print(f"{case.issue}: {case.title}")
    print(f"failure log lines: {len(case.failure_log())}")
    print(f"relevant observables: {sorted(prepared.observables.keys())}")
    print(
        f"causal graph: {prepared.graph.node_count} nodes / "
        f"{prepared.graph.edge_count} edges"
    )
    print(f"candidates: {prepared.pool.candidate_count} "
          f"({prepared.pool.remaining_instances()} instances)")
    for entry in prepared.pool.window(args.top):
        print(f"  F={entry.site_priority:<4} T={entry.temporal:<8.1f} "
              f"{entry.instance}")
    return 0


def cmd_lint(args) -> int:
    from .analysis import lint_package

    rules = None
    if args.rules:
        rules = [rule_id.strip() for rule_id in args.rules.split(",") if rule_id.strip()]
    try:
        report = lint_package(args.package, rules=rules)
    except ImportError as error:
        print(f"error: cannot import {args.package!r}: {error}", file=sys.stderr)
        return 2
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if args.min_severity:
        report = report.min_severity(args.min_severity)
    payload = (
        report.to_json() if args.format == "json" else report.to_text()
    ) + "\n"
    if args.out:
        if not _write_text(args.out, payload, what="lint report"):
            return 2
        print(f"lint report written to {args.out}", file=sys.stderr)
    else:
        sys.stdout.write(payload)
    if args.strict and any(
        finding.severity == "error" for finding in report.findings
    ):
        return 1
    return 0


def cmd_analyze(args) -> int:
    from .bench.tables import format_table

    cases = [
        _with_fault_dims(args, case)
        for case in _resolve_compare_cases(args.case_id)
    ]
    if not cases:
        print(f"error: no case ids in {args.case_id!r}", file=sys.stderr)
        return 2
    _run_config(args).install()
    radius = _default_radius() if args.radius is None else args.radius
    case_docs: dict[str, dict] = {}
    total_contradictions = 0
    for case in cases:
        explorer = case.explorer(
            max_rounds=args.max_rounds,
            track_coverage=True,
            prune="static",
            prune_radius=radius,
        )
        result = explorer.explore()
        prepared = explorer.prepare()
        coverage = result.coverage.to_dict() if result.coverage else {}
        contradictions = coverage.get("contradictions", 0)
        total_contradictions += contradictions
        case_docs[case.case_id] = {
            "system": case.system,
            "issue": case.issue,
            "reproduced": result.success,
            "rounds": result.rounds,
            "coverage": coverage,
            "graph": (
                prepared.flow_graph.summary()
                if prepared.flow_graph is not None
                else {}
            ),
        }
    document = {
        "radius": radius,
        "case_count": len(case_docs),
        "contradictions": total_contradictions,
        "cases": case_docs,
    }
    if args.format == "json":
        payload = json.dumps(document, indent=2) + "\n"
    else:
        rows = []
        for case_id, doc in case_docs.items():
            coverage = doc["coverage"]
            space = coverage.get("space", 0)
            pruned = coverage.get("pruned", 0)
            rows.append(
                (
                    f"{case_id} ({doc['issue']})",
                    doc["system"],
                    str(space),
                    str(pruned),
                    f"{coverage.get('pruned_fraction', 0.0):.1%}",
                    str(coverage.get("contradictions", 0)),
                    str(doc["rounds"]) if doc["reproduced"] else "-",
                )
            )
        payload = (
            format_table(
                ["case", "system", "space", "pruned", "pruned%",
                 "contradictions", "rounds"],
                rows,
                title="static fault-space pruning "
                f"(propagation radius {radius:g})",
            )
            + "\n"
        )
    if args.out:
        if not _write_text(args.out, payload, what="analysis"):
            return 2
        print(f"analysis written to {args.out}", file=sys.stderr)
    else:
        sys.stdout.write(payload)
    _print_runner_stats()
    if total_contradictions:
        print(
            f"error: {total_contradictions} dynamic contradiction(s) — the "
            f"static analysis pruned triples that fired",
            file=sys.stderr,
        )
        return 1
    return 0


def _add_fault_dims_option(subparser) -> None:
    subparser.add_argument(
        "--fault-dims",
        choices=("exceptions", "soft", "all"),
        default=None,
        help="fault dimensions to enumerate: exceptions = raise at env "
        "ops (legacy), soft = corrupt values env ops return, all = both "
        "(default: each case's own setting)",
    )


def _with_fault_dims(args, case):
    """``case`` under this run's ``--fault-dims`` override, if any.

    The override is a parameter of this search, so it goes on a copy;
    the catalog's case keeps its own setting.
    """
    dims = getattr(args, "fault_dims", None)
    return dataclasses.replace(case, fault_dims=dims) if dims else case


class _LazyHelp(str):
    """Help text whose ``%(name)s`` fields are computed only when argparse
    renders it (``lint --help``, ``analyze --help``): building the parser
    loads neither the rule catalog nor the search stack."""

    def __new__(cls, text: str, **fields):
        help_text = super().__new__(cls, text)
        help_text.fields = fields
        return help_text

    def __mod__(self, params):
        computed = {name: field() for name, field in self.fields.items()}
        return str.__mod__(self, dict(params, **computed))


def _rule_ids() -> str:
    from .analysis import registered_rules

    return ", ".join(sorted(registered_rules()))


def _default_radius() -> float:
    from .core.pruning import DEFAULT_RADIUS

    return DEFAULT_RADIUS


def _add_cache_options(subparser) -> None:
    subparser.add_argument(
        "--cache",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="memoize deterministic runs (default on; --no-cache disables)",
    )
    subparser.add_argument(
        "--cache-dir",
        help="on-disk cache tier (default benchmarks/out/runcache)",
    )


def _add_checkpoint_options(subparser) -> None:
    subparser.add_argument(
        "--checkpoint",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="fork round runs off a parked prefix snapshot (default on; "
        "--no-checkpoint replays every run from t=0; outcome-invariant)",
    )


def _add_early_verdict_options(subparser) -> None:
    subparser.add_argument(
        "--early-verdict",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="stop round runs the moment the oracle's verdict is decided "
        "(default on; --no-early-verdict runs every round to the horizon; "
        "outcome-invariant)",
    )


def _add_events_options(subparser) -> None:
    subparser.add_argument(
        "--events",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="stream live progress events to a JSONL file for "
        "'repro watch' (default on; --no-events disables; "
        "outcome-invariant either way)",
    )
    subparser.add_argument(
        "--events-out",
        help="event-stream path (default benchmarks/out/events.jsonl)",
    )


def _add_ledger_options(subparser) -> None:
    subparser.add_argument(
        "--no-ledger",
        action="store_true",
        help="skip appending this run to the run ledger",
    )
    subparser.add_argument(
        "--ledger",
        help="run-ledger path (default benchmarks/out/ledger.jsonl)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="feedback-driven failure reproduction"
    )
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser("list", help="list the failure dataset")

    reproduce = commands.add_parser("reproduce", help="search for the root cause")
    reproduce.add_argument("case_id")
    reproduce.add_argument("--max-rounds", type=int, default=800)
    reproduce.add_argument("--output", "-o", help="write the script to a file")
    reproduce.add_argument(
        "--profile",
        action="store_true",
        help="record run-level metrics and print them to stderr",
    )
    reproduce.add_argument(
        "--prune",
        choices=("none", "static"),
        default="static",
        help="fault-space accounting: static = drop statically-dead "
        "triples from the coverage denominator (default; search outcome "
        "is identical either way)",
    )
    _add_fault_dims_option(reproduce)
    _add_cache_options(reproduce)
    _add_checkpoint_options(reproduce)
    _add_early_verdict_options(reproduce)
    _add_ledger_options(reproduce)
    _add_events_options(reproduce)

    replay = commands.add_parser("replay", help="replay a reproduction script")
    replay.add_argument("case_id")
    replay.add_argument("script")
    _add_early_verdict_options(replay)

    compare = commands.add_parser("compare", help="compare all strategies")
    compare.add_argument(
        "case_id",
        help="failure case id, a comma-separated id list, or 'all'",
    )
    compare.add_argument("--max-rounds", type=int, default=400)
    compare.add_argument(
        "--summary-out",
        help="also write the machine-readable campaign summary JSON here",
    )
    compare.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="worker processes for the campaign (default: one per CPU)",
    )
    compare.add_argument(
        "--profile",
        action="store_true",
        help="record per-case run metrics and summarize them on stderr",
    )
    _add_fault_dims_option(compare)
    _add_cache_options(compare)
    _add_checkpoint_options(compare)
    _add_early_verdict_options(compare)
    _add_ledger_options(compare)
    _add_events_options(compare)

    watch = commands.add_parser(
        "watch", help="live view of a campaign's event stream"
    )
    watch.add_argument(
        "path",
        nargs="?",
        help="events JSONL path (default benchmarks/out/events.jsonl)",
    )
    watch.add_argument(
        "--follow",
        "-f",
        action="store_true",
        help="keep tailing the stream until campaign.done arrives",
    )
    watch.add_argument(
        "--format",
        choices=("text", "jsonl"),
        default="text",
        help="text = rendered progress table (default); jsonl = re-emit "
        "validated events",
    )
    watch.add_argument(
        "--interval",
        type=float,
        default=0.5,
        help="poll/redraw interval in seconds for --follow (default 0.5)",
    )
    watch.add_argument(
        "--timeout",
        type=float,
        default=None,
        help="stop following after this many seconds even without "
        "campaign.done",
    )
    watch.add_argument(
        "--ledger",
        help="run-ledger path for the ETA estimate "
        "(default benchmarks/out/ledger.jsonl)",
    )

    trace = commands.add_parser(
        "trace", help="run the search with tracing and export the trace"
    )
    trace.add_argument("case_id")
    trace.add_argument("--max-rounds", type=int, default=800)
    trace.add_argument(
        "--format",
        choices=("chrome", "json", "text"),
        default="chrome",
        help="chrome = chrome://tracing trace_event JSON (default)",
    )
    trace.add_argument("--out", "-o", help="write the trace to a file")

    explain = commands.add_parser(
        "explain",
        help="reproduce a case and print why each injected instance "
        "entered the plan",
    )
    explain.add_argument("case_id")
    explain.add_argument("--max-rounds", type=int, default=800)
    explain.add_argument("--format", choices=("text", "json"), default="text")

    report = commands.add_parser(
        "report", help="render the HTML campaign dashboard"
    )
    report.add_argument(
        "--out",
        "-o",
        help="output path (default benchmarks/out/report.html)",
    )
    report.add_argument(
        "--dir",
        help="artifact directory to aggregate (default benchmarks/out)",
    )

    inspect = commands.add_parser("inspect", help="show the prepared search")
    inspect.add_argument("case_id")
    inspect.add_argument("--top", type=int, default=10)
    _add_fault_dims_option(inspect)

    lint = commands.add_parser(
        "lint", help="detect fault-handling defects in a package"
    )
    lint.add_argument("package", help="importable package, e.g. repro.systems.minizk")
    lint.add_argument("--format", choices=("text", "json"), default="text")
    lint.add_argument(
        "--rules",
        help=_LazyHelp(
            "comma-separated rule ids to run (default: all of %(rules)s)",
            rules=_rule_ids,
        ),
    )
    lint.add_argument(
        "--min-severity",
        choices=("info", "warning", "error"),
        help="drop findings below this severity",
    )
    lint.add_argument(
        "--strict",
        action="store_true",
        help="exit nonzero when any error-severity finding remains",
    )
    lint.add_argument(
        "--out",
        "-o",
        help="write the report to a file instead of stdout",
    )

    analyze = commands.add_parser(
        "analyze",
        help="static fault-propagation analysis with dynamic cross-check",
    )
    analyze.add_argument(
        "case_id",
        help="failure case id, a comma-separated id list, or 'all'",
    )
    analyze.add_argument("--max-rounds", type=int, default=800)
    analyze.add_argument("--format", choices=("text", "json"), default="text")
    analyze.add_argument("--out", "-o", help="write the analysis to a file")
    analyze.add_argument(
        "--radius",
        type=float,
        help=_LazyHelp(
            "temporal pruning radius in normal-run log lines (default %(radius)g)",
            radius=_default_radius,
        ),
    )
    _add_fault_dims_option(analyze)
    _add_cache_options(analyze)
    return parser


def main(argv=None) -> int:
    from .failures import UnknownCaseError

    args = build_parser().parse_args(argv)
    handler = {
        "list": cmd_list,
        "reproduce": cmd_reproduce,
        "replay": cmd_replay,
        "compare": cmd_compare,
        "watch": cmd_watch,
        "trace": cmd_trace,
        "explain": cmd_explain,
        "report": cmd_report,
        "inspect": cmd_inspect,
        "lint": cmd_lint,
        "analyze": cmd_analyze,
    }[args.command]
    try:
        return handler(args)
    except UnknownCaseError as error:
        print(f"error: unknown case id {error.args[0]!r}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
