"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``list`` — show the failure dataset (the catalog index alone).
* ``reproduce <case_id>`` — run the feedback-driven search on one case
  and print the reproduction script.  It is a one-cell campaign on
  ``compare``'s engine: re-run with the same flags on the same cache
  directory and unedited source, it is served from the cache, prints
  ``[cells: 1 served from the cache]`` and writes the same script.
* ``replay <case_id> <script.json>`` — replay a saved reproduction script.
* ``compare <case_id>|all`` — run every strategy on one case (Table-2
  row) or the whole dataset, fanned out over ``--jobs`` worker processes.
* ``watch [EVENTS.jsonl]`` — render a campaign's live event stream
  (``repro.obs.bus``): per-cell status and rounds, ground-truth rank
  movement, cache/worker rates, and an ETA from the run
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
and both memoize deterministic runs and whole cells through
:mod:`repro.cache`, on disk too unless ``--no-cache`` (``--cache-dir``
relocates the disk tier; a profiled cell is never served).  Every
run replays the workload from t=0 to its horizon (``compare`` still
accepts ``--[no-]checkpoint`` and ``--[no-]early-verdict`` and ignores
both).
Both stream live progress events to ``benchmarks/out/events.jsonl``
for ``repro watch`` unless ``--no-events`` (``--events-out`` relocates
the stream); the bus is outcome-invariant — signatures are
byte-identical with events on or off.  ``compare`` also takes a
comma-separated case-id list and ``--summary-out PATH`` for the
machine-readable campaign summary.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
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


def _run_config(args):
    """This invocation's one :class:`~repro.cache.runcache.RunConfig`,
    from its flags (a command without a knob's flag runs with that knob
    off).  Nothing is exported to the environment: worker processes
    receive the config as their pool initializer's argument (DESIGN §5.3)."""
    from .cache import runcache
    from .cache.runcache import RunConfig

    cache_dir = getattr(args, "cache_dir", None) or runcache.default_disk_dir()
    return RunConfig(
        cache_dir=cache_dir if getattr(args, "cache", False) else None,
        events=getattr(args, "events", False),
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
    "cache": "[cache: {hits} hit(s), {misses} miss(es), "
    "hit rate {hit_rate:.1%}]",
}

#: What the end-of-run ``[degraded: ...]`` line lists: (counter, label).
_DEGRADED = (
    ("campaign.inline_fallbacks", "cell(s) re-run inline after worker failures"),
    ("cache.disk_errors", "cache disk error(s)"),
)


def _print_runner_stats(since=None) -> None:
    """The run's bookkeeping on stderr, from the one reducer: a line per
    runner section that moved, the campaign cells served whole from the
    cache when there were any, then one ``[degraded: ...]`` line naming
    every fallback the run took (silent when clean).  ``since`` is the
    registry's capture when this call began (default: everything)."""
    from .obs import metrics as obs_metrics

    counters = obs_metrics.capture(since)["counters"]
    for section, values in obs_metrics.runner_stats(counters).items():
        print(
            _STATS_LINES[section].format_map(collections.defaultdict(int, values)),
            file=sys.stderr,
        )
    served = int(counters.get("cache.cells_served", 0))
    if served:
        print(f"[cells: {served} served from the cache]", file=sys.stderr)
    degraded = [
        f"{int(counters[counter])} {label}"
        for counter, label in _DEGRADED
        if counters.get(counter)
    ]
    if degraded:
        print(f"[degraded: {', '.join(degraded)}]", file=sys.stderr)


def cmd_list(_args) -> int:
    from .bench.tables import format_table
    from .failures import INDEX

    rows = [(case_id, *row) for case_id, row in INDEX.items()]
    print(format_table(["id", "issue", "system", "title"], rows))
    return 0


def _issue_and_title(case_id: str) -> tuple:
    """A case's issue and title, from the catalog index when it is there."""
    from .failures import CATALOG, INDEX

    if case_id in INDEX:
        issue, _, title = INDEX[case_id]
        return issue, title
    return CATALOG[case_id].issue, CATALOG[case_id].title


def _print_profile(metrics: dict) -> None:
    """Render the flat metrics dict of a profiled run to stderr."""
    if not metrics:
        print("[profile: no metrics recorded]", file=sys.stderr)
        return
    print("[profile]", file=sys.stderr)
    for key in sorted(metrics):
        value = metrics[key]
        rendered = f"{value:.6f}" if isinstance(value, float) else str(value)
        print(f"  {key} = {rendered}", file=sys.stderr)


def cmd_reproduce(args) -> int:
    from .failures import check_case_ids

    check_case_ids([args.case_id])
    config = _run_config(args)
    config.install()
    with _event_stream(config, args):
        return _cmd_reproduce_body(args)


def _cmd_reproduce_body(args) -> int:
    # A reproduction is a one-cell campaign: run_tasks serves its cell
    # from the cache or computes and stores it, and emits its events.
    from .bench.cell import CampaignTask
    from .bench.parallel import run_tasks
    from .obs import ledger

    issue, title = _issue_and_title(args.case_id)
    print(f"{issue}: {title}")
    task = CampaignTask.anduril(
        args.case_id, max_rounds=args.max_rounds, max_seconds=None,
        profile=args.profile, prune=args.prune, fault_dims=args.fault_dims,
    )
    (outcome,) = run_tasks([task], jobs=1)
    print(f"oracle: {outcome.oracle}")
    if args.profile:
        _print_profile(outcome.metrics)
    coverage = outcome.coverage
    planned, space = coverage["planned"], coverage["space"]
    pruned = ""
    if "pruned" in coverage:
        pruned = (
            f", statically pruned {coverage['pruned']} "
            f"({coverage['contradictions']} contradiction(s))"
        )
    print(
        f"[coverage: planned {planned}/{space} "
        f"({planned / space if space else 0.0:.1%}), "
        f"fired {coverage['fired']}{pruned}]",
        file=sys.stderr,
    )
    _append_ledger(
        [ledger.entry_from_outcome(outcome, strategy="anduril", seed=outcome.seed)],
        args,
    )
    _print_runner_stats(args.metrics_since)
    if not outcome.success:
        print(f"NOT reproduced: {outcome.message} ({outcome.rounds} rounds)")
        return 1
    print(
        f"reproduced in {outcome.rounds} rounds "
        f"({outcome.seconds:.1f}s): {outcome.injected}"
    )
    print(outcome.script_json)
    if args.output:
        if not _write_text(args.output, outcome.script_json + "\n", what="script"):
            return 2
        print(f"script written to {args.output}")
    return 0


def cmd_replay(args) -> int:
    from .core.report import ReproductionScript
    from .failures import get_case

    case = get_case(args.case_id)
    try:
        with open(args.script, encoding="utf-8") as handle:
            script = ReproductionScript.from_json(handle.read())
    except OSError as error:
        print(
            f"error: cannot read {args.script}: {error.strerror or error}",
            file=sys.stderr,
        )
        return 2
    except (ValueError, KeyError, TypeError) as error:
        print(
            f"error: {args.script} is not a reproduction script "
            f"({type(error).__name__}: {error})",
            file=sys.stderr,
        )
        return 2
    if script.case_id != case.case_id:
        print(
            f"error: {args.script} reproduces {script.case_id}, "
            f"not {case.case_id}",
            file=sys.stderr,
        )
        return 2
    result = script.replay(case.workload)
    satisfied = case.oracle.satisfied(result)
    print(f"injected: {result.injected}  oracle satisfied: {satisfied}")
    return 0 if satisfied else 1


def _compare_case_ids(spec: str) -> list:
    """``all``, one case id, or a comma-separated id list (order kept),
    each checked against the catalog: no case module loads."""
    from .failures import CATALOG, INDEX, check_case_ids

    if spec == "all":
        return sorted({*INDEX, *CATALOG}, key=lambda case_id: int(case_id[1:]))
    case_ids = [case_id.strip() for case_id in spec.split(",") if case_id.strip()]
    check_case_ids(case_ids)
    return case_ids


def cmd_compare(args) -> int:
    case_ids = _compare_case_ids(args.case_id)
    if not case_ids:
        print(f"error: no case ids in {args.case_id!r}", file=sys.stderr)
        return 2
    # A campaign is cells named by case id: it reads the stored ones and
    # loads a case, the search stack and the simulator only for the
    # cells it must compute (repro.bench.parallel.run_tasks).
    from .bench.parallel import resolve_jobs

    config = _run_config(args)
    config.install()
    # The campaign engine (repro.bench.parallel.run_tasks) emits the
    # campaign/case lifecycle events and forwards worker-captured round
    # events through the active bus installed here.
    with _event_stream(config, args):
        return _cmd_compare_body(args, resolve_jobs(args.jobs), case_ids)


def _cmd_compare_body(args, jobs: int, case_ids: list) -> int:
    from .bench.cell import STRATEGIES
    from .bench.parallel import run_compare_campaign
    from .bench.tables import format_table
    from .obs import ledger

    def title(case_id: str) -> str:
        return f"{case_id} ({_issue_and_title(case_id)[0]})"

    # Cells address cases by id: every per-cell setting rides in the task.
    cell_options = dict(max_rounds=args.max_rounds, fault_dims=args.fault_dims)
    strategies = list(STRATEGIES)
    started = time.perf_counter()
    anduril_by_case, cells = run_compare_campaign(
        case_ids,
        strategies,
        jobs=jobs,
        anduril_options=dict(cell_options, profile=args.profile),
        strategy_options=dict(cell_options, max_seconds=60.0),
    )
    elapsed = time.perf_counter() - started
    if len(case_ids) == 1:
        (case_id,) = case_ids
        rows = [("anduril", anduril_by_case[case_id].cell)]
        rows.extend((name, cells[(name, case_id)].cell) for name in strategies)
        print(format_table(["strategy", "rounds/time"], rows, title=title(case_id)))
    else:
        # Campaign table cells show rounds only (no wall clock) so the
        # stdout table is byte-identical regardless of --jobs; timing goes
        # to stderr.
        headers = ["case", "anduril", *strategies]
        rows = [
            [
                title(case_id),
                anduril_by_case[case_id].deterministic_cell,
                *(
                    cells[(name, case_id)].deterministic_cell
                    for name in strategies
                ),
            ]
            for case_id in case_ids
        ]
        print(format_table(
            headers, rows,
            title="strategy comparison (rounds to reproduce; '-' = failed)",
        ))
    print(
        f"[campaign: {len(case_ids)} case(s) x {1 + len(strategies)} strategies, "
        f"jobs={jobs}, {elapsed:.1f}s]",
        file=sys.stderr,
    )
    outcomes = [anduril_by_case[case_id] for case_id in case_ids]
    outcomes.extend(
        cells[(name, case_id)] for name in strategies for case_id in case_ids
    )
    entries = [
        ledger.entry_from_outcome(
            outcome, strategy=outcome.strategy, seed=outcome.seed, jobs=jobs
        )
        for outcome in outcomes
    ]
    _append_ledger(entries, args)
    _print_runner_stats(args.metrics_since)
    if args.summary_out:
        from .bench import summary as bench_summary

        bench_summary.clear()
        for outcome in (*anduril_by_case.values(), *cells.values()):
            bench_summary.record_outcome(outcome)
        try:
            path = bench_summary.write_bench_summary(
                args.summary_out, since=args.metrics_since
            )
        except OSError as error:
            print(
                f"error: cannot write summary to {args.summary_out}: {error}",
                file=sys.stderr,
            )
            return 2
        print(f"[summary -> {path}]", file=sys.stderr)
    if args.profile:
        for case_id in case_ids:
            outcome = anduril_by_case[case_id]
            decision = outcome.mean_decision_us
            print(
                f"[profile {case_id}: mean FIR decision "
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
    explorer = case.explorer(max_rounds=args.max_rounds, recorder=recorder)
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

    case = get_case(args.case_id)
    explorer = case.explorer(fault_dims=args.fault_dims)
    context, pool = explorer.prepare(), explorer.policy.pool
    graph = context.prepared.graph
    print(f"{case.issue}: {case.title}")
    print(f"failure log lines: {len(case.failure_log())}")
    print(f"relevant observables: {sorted(context.observables.keys())}")
    print(f"causal graph: {graph.node_count} nodes / {graph.edge_count} edges")
    print(f"candidates: {pool.candidate_count} "
          f"({pool.remaining_instances()} instances)")
    for entry in pool.window(args.top):
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
    from .failures import get_case

    cases = [get_case(case_id) for case_id in _compare_case_ids(args.case_id)]
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
            prune="static",
            prune_radius=radius,
            fault_dims=args.fault_dims,
        )
        result = explorer.explore()
        flow_graph = explorer.prepare().flow_graph
        coverage = result.coverage.to_dict()
        contradictions = coverage.get("contradictions", 0)
        total_contradictions += contradictions
        case_docs[case.case_id] = {
            "system": case.system,
            "issue": case.issue,
            "reproduced": result.success,
            "rounds": result.rounds,
            "coverage": coverage,
            "graph": flow_graph.summary() if flow_graph is not None else {},
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
    _print_runner_stats(args.metrics_since)
    if total_contradictions:
        print(
            f"error: {total_contradictions} dynamic contradiction(s) — the "
            f"static analysis pruned triples that fired",
            file=sys.stderr,
        )
        return 1
    return 0


def _at_least_zero(parse, what: str):
    """An argparse ``type`` parsing ``what`` that is zero or more (NaN is
    neither, so it is refused too)."""

    def convert(text: str):
        try:
            value = parse(text)
        except ValueError:
            value = None
        if value is None or not value >= 0:
            raise argparse.ArgumentTypeError(
                f"expected {what}, zero or more, got {text!r}"
            )
        return value

    return convert


def _add_fault_dims_option(subparser) -> None:
    subparser.add_argument(
        "--fault-dims",
        choices=("exceptions", "soft", "all"),
        default=None,
        help="fault dimensions to enumerate: exceptions = raise at env "
        "ops (legacy), soft = corrupt values env ops return, all = both "
        "(default: each case's own setting)",
    )


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
    from .core.params import DEFAULT_RADIUS

    return DEFAULT_RADIUS


def _add_cache_options(subparser) -> None:
    subparser.add_argument(
        "--cache",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="keep runs and campaign cells on disk, not only in memory (default on)",
    )
    subparser.add_argument(
        "--cache-dir",
        help="on-disk cache tier (default benchmarks/out/runcache)",
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


#: ``--max-rounds`` on every searching command.
_ROUNDS = _at_least_zero(int, "an integer")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="feedback-driven failure reproduction"
    )
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser("list", help="list the failure dataset")

    reproduce = commands.add_parser("reproduce", help="search for the root cause")
    reproduce.add_argument("case_id")
    reproduce.add_argument("--max-rounds", type=_ROUNDS, default=800)
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
    _add_ledger_options(reproduce)
    _add_events_options(reproduce)

    replay = commands.add_parser("replay", help="replay a reproduction script")
    replay.add_argument("case_id")
    replay.add_argument("script")

    compare = commands.add_parser("compare", help="compare all strategies")
    compare.add_argument(
        "case_id",
        help="failure case id, a comma-separated id list, or 'all'",
    )
    compare.add_argument("--max-rounds", type=_ROUNDS, default=400)
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
    for retired in ("--checkpoint", "--early-verdict"):
        compare.add_argument(
            retired,
            action=argparse.BooleanOptionalAction,
            help="ignored: every run replays from t=0 to its horizon "
            "(kept for old scripts)",
        )
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
    trace.add_argument("--max-rounds", type=_ROUNDS, default=800)
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
    explain.add_argument("--max-rounds", type=_ROUNDS, default=800)
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
    analyze.add_argument("--max-rounds", type=_ROUNDS, default=800)
    analyze.add_argument("--format", choices=("text", "json"), default="text")
    analyze.add_argument("--out", "-o", help="write the analysis to a file")
    analyze.add_argument(
        "--radius",
        type=_at_least_zero(float, "a number"),
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
    if args.command in ("reproduce", "compare", "analyze"):
        from .obs import metrics as obs_metrics

        # What _print_runner_stats reports from: the registry is
        # process-wide, and a call reports only its own movement.
        args.metrics_since = obs_metrics.capture()
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
