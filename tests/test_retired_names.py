"""Names a refactor retired may not come back.

Each row of ``RETIRED`` is (pattern, paths, allowed files, the DESIGN.md
section that retired it).  The pattern is a regular expression matched
line by line against every file under the paths (a ``*`` path is a
glob), except the allowed files (or, ending in ``/``, directories),
which are the one place the name still belongs.  ``tests/`` is never
scanned, so a row spells its pattern plainly.
"""

import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

RETIRED = [
    pytest.param(
        r"REPRO_(CACHE|CACHE_DIR|EARLY_VERDICT|FAULT_DIMS|EVENTS)"
        r"|worker_counters|worker_histograms|worker_events"
        r"|_cache_delta|_checkpoint_delta|_verdict_delta"
        r"|_calibrate|CALIBRATION_RUNS|CALIBRATION_MIN_FRACTION"
        r"|checkpoint\.retired"
        r"|SpeculativeExecutor|core\.speculate|_predict_plans|speculation_hits"
        r"|PackedTrace|_unpacked_trace|_trace_rows|_trace_events|_trace_prefix"
        r"|occurrences_from_trace",
        ("src", "tools"),
        (),
        # Workers get a pickled RunConfig and return one telemetry
        # envelope; the pool forks every eligible plan, with nothing to
        # calibrate or retire; one serial round loop; only unarmed runs
        # record a trace.
        "§5.3, §12.5, §10.2, §5.5",
        id="env-relays-telemetry-plumbing-calibration-speculation-packed-traces",
    ),
    pytest.param(
        r"def cancel\(|def cleanup\(|unregister=lambda|def (capture|restore)\(",
        ("src/repro/sim", "src/repro/injection"),
        (),
        # A wakeup's handle is its heap entry, a park record is two
        # fields, and the fork checkpoint replaced in-process snapshots.
        "§2.1",
        id="per-wakeup-closures-snapshot-api",
    ),
    pytest.param(
        r"instances_by_site|events_by_site|instances_of\(|_event_index",
        ("src", "tools"),
        (),
        # The probe trace's one per-site index serves every reader.
        "§5.3",
        id="private-trace-groupings",
    ),
    pytest.param(
        r"TraceEvent\(",
        ("src", "tools"),
        ("src/repro/injection/fir.py",),
        # Only the trace's row view builds a TraceEvent.
        "§5.3",
        id="trace-event-rows",
    ),
    pytest.param(
        r"check_bench_regression|bench_baseline"
        r"|BENCH_(simkernel|verdict|runcache|parallel)"
        r"|ckpt_sweep|verdict_sweep|reachability_prior|REPRO_JOBS",
        ("src", "tools", "benchmarks/*.py", ".github"),
        (),
        # One perf gate, the e2e benchmark; no reachability prior; the
        # default job count reads no variable.
        "§5.2, §5.3",
        id="bench-zoo-reachability-prior-job-count-env",
    ),
    pytest.param(
        r"dedupe_instances\(|RoundReporter\(",
        ("src/repro/core", "src/repro/baselines"),
        ("src/repro/core/search.py",),
        # Plans and round lifecycle events are built in one round loop.
        "§5.5",
        id="second-round-loop",
    ),
    pytest.param(
        r"_tried",
        ("src/repro/baselines",),
        (),
        # The baselines keep one tried set, Strategy.tried.
        "§5.5",
        id="private-tried-sets",
    ),
    pytest.param(
        r"mkstemp|_entry_name|os\.replace",
        ("src/repro/cache",),
        (),
        # Records are appended to per-writer segments, not per-entry files.
        "§8.1",
        id="per-entry-cache-files",
    ),
    pytest.param(
        r"_log_rows|_log_records|_encode_result|_decode_result|_INTERN_LIMIT"
        r"|\b_RECORDS\b|\b_SOURCES\b",
        ("src", "tools"),
        (),
        # A log is columns and a result pickles as itself: no row codec,
        # no process-wide intern tables.
        "§8.1, §10.1",
        id="log-row-codec-intern-tables",
    ),
    pytest.param(
        r"LogRecord\(",
        ("src", "tools"),
        ("src/repro/logs/",),
        # Only the log's row view and the text parser build a LogRecord.
        "§2.1",
        id="log-record-rows",
    ),
    pytest.param(
        r"lint_prior|lint_bonus|prior_weights|prior_scale|site_weights"
        r"|ablation_lint_prior",
        ("src", "tools", "benchmarks/*.py", ".github"),
        (),
        # The site priority is the paper's F_i = min_k(L_ik + I_k), with
        # no static prior term; lint findings feed `repro lint` alone.
        "§2, §5.3",
        id="lint-prior",
    ),
    pytest.param(
        r"compile_cutoff|VerdictMonitor|CompiledVerdict|monitor_factory"
        r"|monitor_key|_verdict_key|truncated_at|add_listener|_listeners"
        r"|verdict\.(cutoffs|virtual_seconds_saved|events_saved)|monotone=",
        ("src", "tools", "benchmarks/*.py", ".github"),
        (),
        # Every run goes to its horizon: no oracle monitor rides through
        # the cache, the checkpoint pool, the scheduler or the logger.
        "§13",
        id="early-verdict-cutoff",
    ),
    pytest.param(
        r"early[_-]verdict",
        ("src", "tools", "benchmarks/*.py", ".github"),
        (
            "src/repro/core/explorer.py",
            "src/repro/bench/harness.py",
            "src/repro/__main__.py",
        ),
        # Accepted and ignored where the frozen benchmark still passes it.
        "§5.3, §13",
        id="early-verdict-shims",
    ),
    pytest.param(
        r"CheckpointPool",
        ("src",),
        ("src/repro/sim/",),
        # No search forks: the pool is a library of the simulator.
        "§10",
        id="checkpoint-pool-outside-sim",
    ),
    pytest.param(
        r"ForkCost|_fork_cost|request_price|_request_seconds|MAX_RUNGS|OPEN_BUDGET"
        r"|_pick_rung|_break_even|checkpoint\.declined|requests_saved|free_forks",
        ("src", "tools", ".github"),
        (),
        # The pool forks every eligible plan from one rung at the plan's
        # exact depth: no cost model, no request-price prior.
        "§10.2",
        id="fork-cost-model-request-price",
    ),
    pytest.param(
        r"\.arm\(|config\.checkpoint|_add_checkpoint_options"
        r"|RunConfig\.here\(checkpoint",
        ("src", "tools", "benchmarks/*.py", ".github"),
        (),
        # The pipeline runs inline and RunConfig has no checkpoint knob.
        "§5.3, §10",
        id="search-path-checkpoint-knob",
    ),
    pytest.param(
        r"checkpoint(: bool|=)|--(\[no-\])?(no-)?checkpoint",
        ("src", "tools", "benchmarks/*.py", ".github"),
        (
            "src/repro/core/explorer.py",
            "src/repro/bench/harness.py",
            "src/repro/__main__.py",
        ),
        # Accepted and ignored where the frozen benchmark still passes it.
        "§5.3, §10",
        id="checkpoint-shims",
    ),
    pytest.param(
        r"SearchOutcome|StrategyResult|AndurilOutcome|StrategyOutcome"
        r"|NULL_COVERAGE|NullCoverageTracker|vary_seed",
        ("src", "tools", "benchmarks/*.py", "examples", ".github"),
        (),
        # Every search returns one ExplorationResult, every campaign cell
        # is one CellOutcome, coverage is always accounted, and a round's
        # first run uses the case seed.
        "§5.5, §7.1",
        id="search-result-wrappers-null-coverage-vary-seed",
    ),
    pytest.param(
        r"track_coverage",
        ("src", "tools", "benchmarks/*.py", "examples", ".github"),
        ("src/repro/core/explorer.py",),
        # Accepted and ignored where the frozen benchmark still passes it.
        "§5.3, §7.1",
        id="track-coverage-shim",
    ),
    pytest.param(
        r"CacheStats|tier\(.flow.\)|_disk_get|_disk_store|flowcache\.(reset|_MEMO)",
        ("src", "tools", ".github"),
        (),
        # A flow graph is memoised on its model and persisted nowhere; the
        # cache counters live in the metrics registry alone.
        "§8.1, §9.1",
        id="flow-disk-tier-cache-stats",
    ),
    pytest.param(
        r"cached_propagation_graph",
        ("src", "tools", ".github"),
        ("src/repro/cache/flowcache.py",),
        # Kept as an alias of propagation_graph for the frozen tracer.
        "§5.3",
        id="flow-accessor-alias",
    ),
    pytest.param(
        r"_alias_lookup|_noop_counts|_noop_key|alias_hits|\bALIAS\b",
        ("src", "tools", ".github"),
        (),
        # A window runs as its first-firing instance, so the run cache
        # serves what a key names and nothing else.
        "§8.2",
        id="run-cache-alias-path",
    ),
    pytest.param(
        r"RunConfig\([^)]*\bcache=|configure\([^)]*\b(enabled|capacity)=",
        ("src", "tools", ".github"),
        (),
        # The run cache's memory tier is always on: RunConfig says only
        # where its disk tier is, and configure's `enabled` is a shim for
        # the frozen benchmark.
        "§5.3, §8.1",
        id="run-cache-off-switch",
    ),
    pytest.param(
        r"_with_fault_dims|options\.pop\(\"fault_dims\"|getattr\(case, \"fault_dims\"",
        ("src", "tools", ".github"),
        (),
        # A search's fault dimensions are a field of its SearchParams,
        # resolved against the case's own: no case copy carries them.
        "§5.3",
        id="fault-dims-case-copies",
    ),
    pytest.param(
        r"run_baseline_many",
        ("src", "tools", "benchmarks/*.py", "examples", ".github"),
        (),
        # It had no caller: a baseline sweep is CampaignTask.baseline
        # tasks through run_tasks, as run_compare_campaign builds them.
        "§5.1",
        id="baseline-sweep-wrapper",
    ),
    pytest.param(
        r"PreparedSearch",
        ("src", "tools", ".github", "examples"),
        (),
        # Every search, ANDURIL's and each baseline's, is set up by
        # build_context into one SearchContext over the shared case.
        "§5.4",
        id="prepared-search-copy",
    ),
]


def files_under(paths):
    for path in paths:
        found = ROOT.glob(path) if "*" in path else (ROOT / path).rglob("*")
        for file in sorted(found):
            if file.is_file() and "__pycache__" not in file.parts:
                yield file


@pytest.mark.parametrize("pattern, paths, allowed, section", RETIRED)
def test_a_retired_name_stays_retired(pattern, paths, allowed, section):
    regex = re.compile(pattern)
    hits = []
    for file in files_under(paths):
        name = file.relative_to(ROOT).as_posix()
        if name.startswith(allowed):
            continue
        text = file.read_text(encoding="utf-8", errors="replace")
        for number, line in enumerate(text.splitlines(), start=1):
            if regex.search(line):
                hits.append(f"{name}:{number}: {line.strip()}")
    assert not hits, f"retired by DESIGN.md {section}:\n" + "\n".join(hits)
