"""End-to-end benchmark of the default-configuration campaign, deep
search and replay loops, with a per-layer cost stack.

    python3 benchmarks/e2e/run.py --workload campaign-cold --seed 2 --seconds 10 --trace 0

runs one workload as a closed loop of passes for ``--seconds`` seconds
and prints, as the last stdout line, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  Every pass is
a fresh interpreter (``python -m repro compare ...`` itself for the
campaign workloads, ``leg.py`` for the in-process ones); a time is the
fastest of the run's samples (see ``best``).  End-to-end numbers are never
taken from a traced pass.

Without ``--workload`` (or with several, or with ``--reps``) it runs the
whole set ``--reps`` times in alternating order, prints every metric by
name and unit and writes ``out/BENCH_e2e.json`` for ``compare.py``.
``--selftest`` is a smoke run of the benchmark itself.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import re
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time

import leg

HERE = leg.HERE
ROOT = leg.ROOT
OUT = os.path.join(HERE, "out")
LEG = os.path.join(HERE, "leg.py")
PYTHON = sys.executable

BARE_FLAGS = (
    "--no-cache", "--no-checkpoint", "--no-early-verdict", "--no-events", "--no-ledger",
)
#: jobs, every accelerator off, cache filled in set-up, timed invocations per pass.
CAMPAIGNS = {
    "campaign-bare": dict(jobs=1, bare=True, fill=False, timed=1),
    "campaign-cold": dict(jobs=1, bare=False, fill=False, timed=1),
    "campaign-warm": dict(jobs=1, bare=False, fill=True, timed=3),
    "campaign-parallel": dict(jobs=2, bare=False, fill=False, timed=1),
}
ITEMS = {
    **dict.fromkeys(CAMPAIGNS, leg.CAMPAIGN_CASES),
    "search-deep": leg.SEARCH_ITEMS,
    "replay-xl": leg.REPLAY_CASES,
}
LEG_TIMEOUT = 150.0


def load_json(path: str):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


# ------------------------------------------------------------------ processes


class Finished:
    """One child process tree, reaped."""

    def __init__(self, code, wall, usage, stdout, stderr, survivors):
        self.exit = code
        self.wall_s = wall
        self.cpu_s = usage.ru_utime + usage.ru_stime
        self.peak_rss_mb = usage.ru_maxrss / 1024.0
        self.stdout = stdout
        self.stderr = stderr
        self.survivors = survivors


def group_members(pgid: int) -> list[int]:
    """Live processes whose process group is ``pgid``."""
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii", errors="replace") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        if fields[0] != "Z" and int(fields[2]) == pgid:
            members.append(int(entry))
    return members


def reap_group(pgid: int) -> int:
    """Kill what a finished leg left behind; returns how many there were."""
    survivors = group_members(pgid)
    if survivors:
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        deadline = time.monotonic() + 5.0
        while group_members(pgid) and time.monotonic() < deadline:
            time.sleep(0.01)
    return len(survivors)


def spawn(argv: list[str], tmp: str, tag: str) -> Finished:
    """Run ``argv`` in its own session and reap its whole tree.

    ``os.wait4`` gives the tree's CPU time and peak RSS for this child
    alone, which ``RUSAGE_CHILDREN`` (cumulative, max-so-far) cannot.
    """
    env = dict(
        os.environ,
        PYTHONPATH=os.path.join(ROOT, "src"),
        PYTHONHASHSEED=os.environ.get("PYTHONHASHSEED", "0"),
        E2E_SPAWNED_AT=repr(time.time()),
    )
    paths = [os.path.join(tmp, f"{tag}.{stream}") for stream in ("out", "err")]
    with open(paths[0], "wb") as out, open(paths[1], "wb") as err:
        started = time.perf_counter()
        child = subprocess.Popen(
            argv, cwd=ROOT, env=env, stdout=out, stderr=err, start_new_session=True
        )
        watchdog = threading.Timer(LEG_TIMEOUT, os.killpg, (child.pid, signal.SIGKILL))
        watchdog.start()
        try:
            _, status, usage = os.wait4(child.pid, 0)
        except BaseException:
            # Interrupted: leave no leg running behind the benchmark.
            os.killpg(child.pid, signal.SIGKILL)
            child.wait()
            raise
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - started
    child.returncode = os.waitstatus_to_exitcode(status)
    survivors = reap_group(child.pid)
    texts = []
    for path in paths:
        with open(path, encoding="utf-8", errors="replace") as handle:
            texts.append(handle.read())
    return Finished(child.returncode, wall, usage, texts[0], texts[1], survivors)


def python_cli(*argv: str) -> list[str]:
    return [PYTHON, "-m", "repro", *argv]


def split_leg_output(finished: Finished):
    """``(text before the last line, the leg's JSON document or None)``."""
    body, _, last = finished.stdout.rstrip("\n").rpartition("\n")
    if finished.exit != 0:
        return finished.stdout, None
    try:
        return (body + "\n" if body else ""), json.loads(last)
    except ValueError:
        return finished.stdout, None


def directory_size(path: str) -> tuple[int, int]:
    """``(bytes, files)`` under ``path``."""
    total = files = 0
    for folder, _, names in os.walk(path):
        for name in names:
            total += os.path.getsize(os.path.join(folder, name))
            files += 1
    return total, files


# --------------------------------------------------------------------- passes
#
# A pass is set-up plus one or more timed samples.  It returns
# {"setup_s", "samples": [{"wall_s", "cpu_s", "peak_rss_mb"}], "attempted",
#  "failed", "notes": [...], ...workload detail..., "trace": {...} or None}.


def new_pass(tmp: str) -> dict:
    return {
        "tmp": tmp, "setup_s": 0.0, "samples": [], "attempted": 0, "failed": 0,
        "notes": [], "trace": None,
    }


def judge(result: dict, ok: bool, note: str, count: int = 1) -> None:
    result["attempted"] += count
    if not ok:
        result["failed"] += count
        result["notes"].append(note)


def note_process(result: dict, finished: Finished, what: str) -> None:
    """A leg that died, or left a process behind, is a failed operation."""
    if finished.exit != 0:
        result["notes"].append(
            f"{what}: exit {finished.exit}: {finished.stderr.strip()[-400:]}"
        )
    if finished.survivors:
        judge(result, False, f"{what}: {finished.survivors} surviving process(es) killed")


def sample_of(finished: Finished, document=None) -> dict:
    document = document or {}
    return {
        "wall_s": document.get("wall_s", finished.wall_s),
        "cpu_s": document.get("cpu_s", finished.cpu_s),
        "peak_rss_mb": finished.peak_rss_mb,
    }


def table_cells(stdout: str) -> dict[str, list[str]]:
    """``case id -> cells`` of a ``compare`` campaign table."""
    rows = {}
    for line in stdout.splitlines():
        match = re.match(r"(f\d+) \(.*?\)\s*\|(.*)", line)
        if match:
            rows[match.group(1)] = [cell.strip() for cell in match.group(2).split("|")]
    return rows


def campaign_pass(name: str, cases, traced: bool, expected: dict, result: dict) -> None:
    spec = CAMPAIGNS[name]
    tmp = result["tmp"]
    cache_dir = os.path.join(tmp, "cache")
    command = ["compare", ",".join(cases), "--jobs", str(spec["jobs"])]
    if spec["bare"]:
        command += BARE_FLAGS
    else:
        # Relocating the files changes no default and keeps the run out
        # of benchmarks/out/.
        command += [
            "--cache-dir", cache_dir,
            "--ledger", os.path.join(tmp, "ledger.jsonl"),
            "--events-out", os.path.join(tmp, "events.jsonl"),
        ]

    started = time.perf_counter()
    listed = spawn(python_cli("list"), tmp, "list")
    known = set(re.findall(r"^(f\d+)\s", listed.stdout, re.M))
    ready = listed.exit == 0 and set(cases) <= known
    if ready and spec["fill"]:
        filled = spawn(python_cli(*command), tmp, "fill")
        note_process(result, filled, "cache fill")
        ready = filled.exit == 0
    result["setup_s"] = time.perf_counter() - started

    wanted = {
        case: [str(rounds) if success else "-" for success, rounds in expected[case]]
        for case in cases
    }
    cells = sum(len(row) for row in wanted.values())
    for index in range(1 if traced else spec["timed"]):
        if not ready:
            judge(result, False, "set-up failed: the CLI did not list the cases", cells)
            continue
        if traced:
            spans = os.path.join(OUT, f"trace_{name}.json")
            finished = spawn(
                [PYTHON, LEG, "cli", "--trace-out", spans, "--", *command],
                tmp, f"timed{index}",
            )
            stdout, document = split_leg_output(finished)
            if document is not None:
                result["trace"] = document["trace"]
                finished.wall_s -= result["trace"]["post_s"]
                result["trace"]["wall"] = finished.wall_s
        else:
            finished = spawn(python_cli(*command), tmp, f"timed{index}")
            stdout = finished.stdout
        note_process(result, finished, name)
        result["samples"].append(sample_of(finished))
        result.setdefault("stdout", stdout)
        got = table_cells(stdout) if finished.exit == 0 else {}
        # The repo's invariance contract: the table is byte-identical
        # whatever the accelerators and the job count.
        identical = stdout == result["stdout"]
        for case, row in wanted.items():
            wrong = (
                len(row)
                if not identical or len(got.get(case, ())) != len(row)
                else sum(a != b for a, b in zip(got[case], row))
            )
            result["attempted"] += len(row)
            if wrong:
                result["failed"] += wrong
                result["notes"].append(f"{case}: got {got.get(case)} want {row}")
    if os.path.isdir(cache_dir):
        result["cache_bytes"], result["cache_entries"] = directory_size(cache_dir)


def leg_pass(name: str, items, traced: bool, result: dict):
    """Run an in-process leg; returns its document (``None`` if it died)."""
    kind = {"search-deep": "search", "replay-xl": "replay"}[name]
    argv = [PYTHON, LEG, kind, "--tmp", result["tmp"], "--items", ",".join(items)]
    if traced:
        argv += ["--trace-out", os.path.join(OUT, f"trace_{name}.json")]
    finished = spawn(argv, result["tmp"], kind)
    note_process(result, finished, kind)
    _, document = split_leg_output(finished)
    if document is not None:
        result["setup_s"] = document["setup_s"]
        result["samples"].append(sample_of(finished, document))
        result["trace"] = document["trace"] or None
    return document


def search_pass(items, traced: bool, expected: dict, result: dict) -> None:
    document = leg_pass("search-deep", items, traced, result)
    if document is None:
        judge(result, False, "search leg failed", len(items))
        return
    for search in document["searches"]:
        got = [search["success"], search["rounds"]]
        ok = got == expected[search["id"]] and search["script_ok"]
        judge(result, ok, f"{search['id']}: got {got} want {expected[search['id']]}")
    cache_dir = os.path.join(result["tmp"], "cache")
    result["cache_bytes"], result["cache_entries"] = directory_size(cache_dir)


def replay_pass(items, traced: bool, expected: dict, result: dict) -> None:
    replays = leg.INLINE_REPLAYS + leg.FORK_REPLAYS
    document = leg_pass("replay-xl", items, traced, result)
    if document is None:
        judge(result, False, "replay leg failed", len(items) * (replays + 1))
        return
    for case in document["cases"]:
        want = expected[case["id"]]
        probe = (case["probe_requests"], case["probe_records"])
        judge(
            result,
            probe == (want["probe_requests"], want["probe_records"]),
            f"{case['id']}: no-fault run counts {probe} differ from the reference",
        )
        for digest, satisfied in case["replays"]:
            judge(
                result,
                satisfied and digest == want["digest"],
                f"{case['id']}: replay digest {digest} oracle {satisfied}",
            )
    for key in ("replay_inline_s", "replay_fork_s", "inline_ms", "fork_ms"):
        result[key] = document[key]


def run_pass(name: str, items, traced: bool, expected: dict) -> dict:
    os.makedirs(OUT, exist_ok=True)
    result = new_pass(tempfile.mkdtemp(prefix="pass-", dir=OUT))
    try:
        if name in CAMPAIGNS:
            campaign_pass(name, items, traced, expected["campaign"], result)
        elif name == "search-deep":
            search_pass(items, traced, expected["search"], result)
        else:
            replay_pass(items, traced, expected["replay"], result)
    finally:
        shutil.rmtree(result["tmp"], ignore_errors=True)
    return result


def pinned_rounds(name: str, items, expected: dict) -> int:
    """Search rounds one timed sample completes; fixed by the references."""
    if name in CAMPAIGNS:
        return sum(rounds for case in items for _, rounds in expected["campaign"][case])
    if name == "search-deep":
        return sum(expected["search"][item][1] for item in items)
    return len(items) * (leg.INLINE_REPLAYS + leg.FORK_REPLAYS)


# ------------------------------------------------------------------- one run


def samples_of(passes: list[dict], key: str) -> list[float]:
    return [sample[key] for result in passes for sample in result["samples"]]


def best(passes: list[dict], key: str) -> float:
    """The fastest sample of a run.

    Identical passes of a deterministic program differ only by what the
    host adds, and a neighbour on a shared host can only add: a 4-minute
    series of campaign-bare samples sat at 1.70-1.85 s with spikes to
    2.5 s and a half-minute episode at 2.7 s.  Over runs of five samples
    the minimum spread 4 % (quartile distance), the median 9 %.
    """
    return min(samples_of(passes, key))


def end_to_end(passes: list[dict], rounds: int) -> dict:
    wall = best(passes, "wall_s")
    return {
        "setup_s": min(result["setup_s"] for result in passes),
        "wall_s": wall,
        "cpu_s": best(passes, "cpu_s"),
        "peak_rss_mb": statistics.median(samples_of(passes, "peak_rss_mb")),
        "rounds_per_s": rounds / wall,
    }


def mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def per_layer(name: str, untraced: list[dict], traced: list[dict], micro: dict) -> dict:
    """Every per-layer metric of one traced run, 0 where a layer did no work."""
    import trace as spans

    traces = [result["trace"] for result in traced]

    def figure(key: str) -> float:
        return mean(trace[key] for trace in traces)

    def counter(key: str) -> float:
        return mean(trace["counters"].get(key, 0.0) for trace in traces)

    values = {f"{layer}.busy_s": mean(t["busy"][layer] for t in traces)
              for layer in spans.LAYERS if layer != "injection"}
    values.update({
        "sim.runs": figure("sim.runs"),
        "sim.run_ms_p50": 1e3 * figure("sim.run_p50"),
        "sim.run_ms_p99": 1e3 * figure("sim.run_p99"),
        "sim.env_requests_per_s": figure("sim.requests_per_s"),
        "checkpoint.open_ms_p50": 1e3 * figure("checkpoint.open_p50"),
        "checkpoint.fork_ms_p50": 1e3 * figure("checkpoint.fork_p50"),
        "checkpoint.forks": counter("sim.checkpoint.forks"),
        "checkpoint.fallbacks": counter("sim.checkpoint.fallbacks"),
        "logs.diff_ms_p50": 1e3 * figure("logs.diff_p50"),
        "core.prepare_ms_p50": 1e3 * figure("core.prepare_p50"),
        "core.rerank_ms_p50": 1e3 * figure("core.rerank_p50"),
        "core.feedback_ms_p50": 1e3 * figure("core.feedback_p50"),
        "core.rounds": figure("core.rounds"),
        "analysis.graph_ms_p50": 1e3 * figure("analysis.graph_p50"),
        "analysis.context_s": figure("analysis.context"),
        "analysis.flow_ms": 1e3 * figure("analysis.flow"),
        "cache.get_us_p50": 1e6 * figure("cache.get_p50"),
        "cache.put_us_p50": 1e6 * figure("cache.put_p50"),
        "cache.disk_bytes": mean(result.get("cache_bytes", 0) for result in traced),
        "cache.entries": mean(result.get("cache_entries", 0) for result in traced),
        "obs.events": figure("obs.events"),
        "obs.ledger_append_ms": 1e3 * figure("obs.ledger"),
    })
    served = counter("cache.hits") + counter("cache.alias_hits")
    values["cache.lookups"] = served + counter("cache.misses")
    values["cache.hit_ratio"] = (
        served / values["cache.lookups"] if values["cache.lookups"] else 0.0
    )
    tried = values["checkpoint.forks"] + values["checkpoint.fallbacks"]
    values["checkpoint.useful_ratio"] = values["checkpoint.forks"] / tried if tried else 0.0
    # At one job run_tasks is a plain loop; only with a pool is its self
    # time the parent waiting for workers.
    values["parallel.worker_wait_s"] = (
        figure("parallel.run_tasks_self")
        if CAMPAIGNS.get(name, {}).get("jobs", 1) > 1
        else 0.0
    )
    values.update(micro)

    wall = mean(trace["wall"] for trace in traces)
    attributed = figure("attributed")
    values["trace.wall_s"] = wall
    values["trace.unattributed_s"] = wall - attributed
    values["trace.attributed_share"] = attributed / wall
    values["trace.overhead_ratio"] = (
        min(trace["wall"] for trace in traces) / best(untraced, "wall_s")
    )

    for phase in ("inline", "fork"):
        per_replay = [ms for result in untraced for ms in result.get(f"{phase}_ms", ())]
        values[f"replay_{phase}_s"] = (
            min(result[f"replay_{phase}_s"] for result in untraced)
            if per_replay
            else 0.0
        )
        values[f"replay.{phase}_ms_p50"] = spans.percentile(per_replay, 0.5)
        values[f"replay.{phase}_ms_p90"] = spans.percentile(per_replay, 0.9)
    return values


def run_micro() -> dict:
    os.makedirs(OUT, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="micro-", dir=OUT)
    try:
        finished = spawn([PYTHON, LEG, "micro", "--tmp", tmp], tmp, "micro")
        _, document = split_leg_output(finished)
        if document is None:
            raise SystemExit(f"micro leg failed: {finished.stderr.strip()[-400:]}")
        return document["metrics"]
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def run_workload(name: str, seed: int, seconds: float, traced: bool,
                 spec: dict, expected: dict, items=None) -> dict:
    """One run of one workload: passes until ``seconds`` have elapsed.

    The seed fixes the order the cases are given in.  The catalog's own
    seeds are part of each case, so the work is the same for every seed.
    """
    items = list(items or ITEMS[name])
    random.Random(seed).shuffle(items)
    passes: list[dict] = []
    started = time.perf_counter()
    while True:
        # A traced run alternates, so the overhead ratio compares passes
        # taken under the same conditions.
        passes.append(run_pass(name, items, traced and len(passes) % 2 == 1, expected))
        enough = len(passes) >= 2 or not traced
        if enough and time.perf_counter() - started >= seconds:
            break
    with_trace = [result for result in passes if result["trace"]]
    untraced = [result for result in passes if result["samples"] and not result["trace"]]
    attempted = sum(result["attempted"] for result in passes)
    failed = sum(result["failed"] for result in passes)
    values = {}
    if untraced and not traced:
        values = end_to_end(untraced, pinned_rounds(name, items, expected))
    elif untraced and with_trace:
        values = per_layer(name, untraced, with_trace, run_micro())
    metrics = spec["per_layer" if traced else "end_to_end"]
    declared = {metric["name"] for metric in metrics}
    if not values:
        failed = max(failed, 1)
        values = dict.fromkeys(declared, 0.0)
    if declared != set(values):
        raise SystemExit(
            "BENCHMARK.json and run.py disagree on metric names: "
            f"{sorted(declared ^ set(values))}"
        )
    stdouts = {result["stdout"] for result in passes if "stdout" in result}
    return {
        "workload": name,
        "correct": failed == 0,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": {
            metric["name"]: {"value": values[metric["name"]], "unit": metric["unit"]}
            for metric in metrics
        },
        "passes": len(passes),
        "samples": sum(len(result["samples"]) for result in untraced),
        "notes": [note for result in passes for note in result["notes"]][:20],
        "stdout_sha": (
            hashlib.sha256("\n".join(sorted(stdouts)).encode()).hexdigest()[:16]
            if stdouts
            else None
        ),
    }


def print_metrics(run: dict) -> None:
    print(
        f"[{run['workload']}] {run['passes']} pass(es), {run['samples']} untraced "
        f"sample(s); {run['failed']} of {run['attempted']} operation(s) failed "
        f"(failed_share = {run['failed'] / run['attempted']:.4f})"
    )
    for note in run["notes"]:
        print(f"  ! {note}")
    for metric, entry in run["metrics"].items():
        print(f"  {metric} = {entry['value']:.6g} {entry['unit']}")


# ------------------------------------------------------------ the whole set


def host_facts() -> dict:
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=5, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "git_sha": sha or "unknown",
        "PYTHONHASHSEED": os.environ.get("PYTHONHASHSEED", "0"),
    }


def run_set(args, spec: dict, expected: dict) -> int:
    names = args.workload or [workload["name"] for workload in spec["workloads"]]
    runs: dict[str, list[dict]] = {name: [] for name in names}
    for rep in range(args.reps):
        # Alternate the order so drift on the host taxes no one workload.
        for name in names if rep % 2 == 0 else reversed(names):
            run = run_workload(name, args.seed, args.seconds, False, spec, expected)
            print_metrics(run)
            runs[name].append(run)
    document = {
        "schema": 1,
        "host": host_facts(),
        "seed": args.seed,
        "seconds": args.seconds,
        "reps": args.reps,
        "workloads": {},
        "layers": {},
    }
    failed = 0
    for name, reps in runs.items():
        metrics = {}
        for metric in spec["end_to_end"]:
            values = [run["metrics"][metric["name"]]["value"] for run in reps]
            metrics[metric["name"]] = {
                "unit": metric["unit"],
                "median": statistics.median(values),
                "min": min(values),
                "max": max(values),
                "n": len(values),
                "values": values,
            }
        attempted = sum(run["attempted"] for run in reps)
        failures = sum(run["failed"] for run in reps)
        failed += failures
        document["workloads"][name] = {
            "metrics": metrics,
            "attempted": attempted,
            "failed": failures,
            "failed_share": failures / attempted,
            "stdout_sha": sorted({run["stdout_sha"] for run in reps if run["stdout_sha"]}),
        }
    tables = {
        sha for name in names if name in CAMPAIGNS
        for sha in document["workloads"][name]["stdout_sha"]
    }
    if len(tables) > 1:
        failed += 1
        print(f"! campaign workloads printed {len(tables)} different tables")
    if args.trace:
        for name in names:
            run = run_workload(name, args.seed, args.seconds, True, spec, expected)
            print_metrics(run)
            failed += run["failed"]
            document["layers"][name] = {
                metric: entry["value"] for metric, entry in run["metrics"].items()
            }
    print(f"\n{'workload':<18} {'metric':<13} {'median':>10} {'min':>10} {'max':>10}  n  unit")
    for name, entry in document["workloads"].items():
        for metric, stats in entry["metrics"].items():
            print(
                f"{name:<18} {metric:<13} {stats['median']:>10.4f} {stats['min']:>10.4f} "
                f"{stats['max']:>10.4f}  {stats['n']}  {stats['unit']}"
            )
        print(f"{name:<18} {'failed_share':<13} {entry['failed_share']:>10.4f}")
    out = args.out or os.path.join(OUT, "BENCH_e2e.json")
    os.makedirs(os.path.dirname(os.path.abspath(out)), exist_ok=True)
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=1)
        handle.write("\n")
    print(f"[saved to {out}]")
    return 1 if failed else 0


def selftest(spec: dict, expected: dict) -> int:
    """Smoke the benchmark itself: a small warm campaign, a few replays,
    and the emitted names against ``BENCHMARK.json``."""
    problems = []
    for name, items, traced in (
        ("campaign-warm", ("f21", "f14"), False),
        ("replay-xl", ("f1-xl",), True),
    ):
        run = run_workload(name, 1, 0.0, traced, spec, expected, items)
        print_metrics(run)
        if not run["correct"]:
            problems.append(f"{name}: {run['failed']} failed operation(s)")
        zero = [metric for metric, entry in run["metrics"].items()
                if not traced and entry["value"] <= 0]
        if zero:
            problems.append(f"{name}: end-to-end metric(s) not positive: {zero}")
    workloads = {workload["name"] for workload in spec["workloads"]}
    if workloads != set(ITEMS):
        problems.append(f"BENCHMARK.json workloads {sorted(workloads)} != {sorted(ITEMS)}")
    for problem in problems:
        print(f"selftest: {problem}")
    print("selftest:", "FAILED" if problems else "ok")
    return 1 if problems else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", action="append", choices=sorted(ITEMS))
    parser.add_argument("--seed", type=int, default=2)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument("--reps", type=int, help="runs per workload (default 5)")
    parser.add_argument("--out", help="where the whole-set result goes")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()

    missing = [
        path for path in ("src/repro/__main__.py", "benchmarks/bench_cases.py", "BENCHMARK.json")
        if not os.path.exists(os.path.join(ROOT, path))
    ]
    if missing:
        print(f"error: not a checkout of the program: missing {missing}", file=sys.stderr)
        return 2
    spec = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    expected = load_json(os.path.join(HERE, "expected.json"))
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    if args.selftest:
        return selftest(spec, expected)
    if args.reps is None and args.workload and len(args.workload) == 1:
        run = run_workload(
            args.workload[0], args.seed, args.seconds, bool(args.trace), spec, expected
        )
        print_metrics(run)
        print(json.dumps({key: run[key] for key in ("correct", "attempted", "failed", "metrics")}))
        return 0
    args.reps = args.reps or 5
    return run_set(args, spec, expected)


if __name__ == "__main__":
    sys.exit(main())
