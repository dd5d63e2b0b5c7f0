"""Simulator-kernel throughput and checkpoint/fork cost.

Three measurements land in ``benchmarks/out/BENCH_simkernel.json``:

* **kernel** — raw event-loop throughput (events/sec) on a synthetic
  queue-and-timer workload that never touches the env boundary, so the
  number isolates the scheduler hot loop (heap ops, task resumption)
  from FIR bookkeeping.  CI gates this via ``check_bench_regression.py
  --simkernel-*``: a >25% drop fails the build.
* **checkpoint** — what a prefix snapshot costs: opening a holder
  process (fork + prefix replay to the trigger), and the per-plan fork
  round-trip (fork + suffix replay + result pickle), against the full
  inline replay it replaces.
* **compare** — the headline: one cold-cache reproduction workflow
  (search + confirmation replays; see ``ckpt_sweep.py``) per scaled
  mini system with checkpointing off, then on.  Each leg runs in a
  fresh interpreter so allocator aging in the first leg cannot tax the
  second.  Outcomes and replay results must be identical; the artifact
  records the per-system wall-clock speedup.

The compare uses the late-failing cases from ``bench_cases.py``, not
the unit-test catalog: checkpointing attacks the fault-free *prefix*,
so its effect is only visible on cases whose failures live deep in the
trace — which is also the regime the paper's real-world subjects
occupy (a failure five minutes into a run, not five milliseconds).

Wall-clock assertions are deliberately loose (a loaded CI host must not
flake the suite); the JSON artifact is the measurement of record.
"""

import json
import os
import statistics
import subprocess
import sys
import time

import pytest
from bench_cases import bench_cases
from conftest import emit

from repro.bench import format_table
from repro.bench.tables import OUT_DIR
from repro.injection.fir import InjectionPlan
from repro.injection.sites import FaultInstance
from repro.sim import Checkpoint, checkpoint_supported, execute_workload
from repro.sim.cluster import Cluster

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SRC_DIR = os.path.join(os.path.dirname(BENCH_DIR), "src")

#: Items pushed through the synthetic kernel workload per pass.
KERNEL_ITEMS = 30_000
#: Per-plan fork round-trips (and inline replays) timed for the medians.
FORK_SAMPLES = 15
#: Where the microbench parks its holder, as a fraction of the trace —
#: the depth regime the bench cases' ground truths live in.
FORK_DEPTH = 0.8


def _kernel_workload(cluster: Cluster) -> None:
    """Queue ping-pong plus timers: scheduler traffic, no env calls."""
    queue = cluster.queue("kernel", capacity=8)

    def producer():
        for index in range(KERNEL_ITEMS):
            yield queue.put(index)
            if index % 64 == 0:
                yield cluster.sleep(0.001)

    def consumer():
        for _ in range(KERNEL_ITEMS):
            yield queue.get()

    def ticker():
        for _ in range(KERNEL_ITEMS // 64):
            yield cluster.sleep(0.002)

    cluster.spawn("producer", producer())
    cluster.spawn("consumer", consumer())
    cluster.spawn("ticker", ticker())


def _measure_kernel() -> dict:
    """Best-of-3 events/sec on the synthetic workload."""
    best = None
    for _ in range(3):
        cluster = Cluster(seed=0)
        _kernel_workload(cluster)
        started = time.perf_counter()
        cluster.sim.run(until=1e6)
        seconds = time.perf_counter() - started
        events = cluster.sim.events_executed
        rate = events / seconds if seconds else 0.0
        if best is None or rate > best["events_per_sec"]:
            best = {
                "events": events,
                "seconds": round(seconds, 4),
                "events_per_sec": round(rate, 1),
            }
    return best


def _result_signature(result) -> tuple:
    """The outcome-relevant fields of a run, for equality checks."""
    return (
        str(result.injected_instance),
        [str(record) for record in result.log],
        result.site_counts,
        result.injection_requests,
        result.end_time,
        sorted(t.name for t in result.stuck),
        sorted(t.name for t in result.crashed),
    )


def _measure_checkpoint(case) -> dict:
    """Holder-open and fork round-trip cost vs full inline replay."""
    probe = execute_workload(case.workload, horizon=case.horizon, seed=case.seed)
    trace = probe.trace
    fork_point = max(int(len(trace) * FORK_DEPTH), 1)
    # Plans that arm a pair at/after the fork point, one per sample, so
    # consecutive forks do distinct (but comparable) suffix work.
    plans = []
    for event in trace[fork_point - 1:]:
        plans.append(
            InjectionPlan.of(
                [FaultInstance(event.site_id, "IOException", event.occurrence)]
            )
        )
        if len(plans) >= FORK_SAMPLES:
            break

    started = time.perf_counter()
    checkpoint = Checkpoint(
        case.workload, case.horizon, case.seed, None, fork_point
    )
    first = checkpoint.run(plans[0])
    open_seconds = time.perf_counter() - started
    assert first is not None, "first fork off a fresh holder failed"

    fork_times, inline_times = [], []
    try:
        for plan in plans:
            started = time.perf_counter()
            forked = checkpoint.run(plan)
            fork_times.append(time.perf_counter() - started)
            started = time.perf_counter()
            inline = execute_workload(
                case.workload, horizon=case.horizon, seed=case.seed, plan=plan
            )
            inline_times.append(time.perf_counter() - started)
            assert forked is not None
            assert _result_signature(forked) == _result_signature(inline)
    finally:
        checkpoint.close()

    return {
        "case": case.case_id,
        "trace_requests": len(trace),
        "fork_point": fork_point,
        "open_ms": round(open_seconds * 1e3, 3),
        "fork_ms_median": round(statistics.median(fork_times) * 1e3, 3),
        "inline_ms_median": round(statistics.median(inline_times) * 1e3, 3),
        "fork_samples": len(fork_times),
    }


def _run_leg(case_id: str, checkpoint: bool) -> dict:
    """One compare leg (``ckpt_sweep.py``) in a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC_DIR, BENCH_DIR, env.get("PYTHONPATH", "")]
    )
    proc = subprocess.run(
        [
            sys.executable,
            os.path.join(BENCH_DIR, "ckpt_sweep.py"),
            case_id,
            "on" if checkpoint else "off",
        ],
        env=env,
        capture_output=True,
        text=True,
        timeout=1200,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.skipif(
    not checkpoint_supported(), reason="requires os.fork (POSIX)"
)
def test_sim_kernel():
    kernel = _measure_kernel()
    # Loose sanity floor only; the real gate compares against the
    # committed artifact with a noise-tolerant threshold.
    assert kernel["events_per_sec"] > 10_000, kernel

    cases = {case.case_id: case for case in bench_cases()}
    checkpoint_cost = _measure_checkpoint(cases["f1-xl"])

    compare: dict[str, dict] = {}
    speedups = []
    for case_id, case in cases.items():
        off = _run_leg(case_id, checkpoint=False)
        on = _run_leg(case_id, checkpoint=True)
        # The invariance contract: forking may only move wall clock —
        # search outcomes and replayed run results must be identical.
        assert on["cells"] == off["cells"], case_id
        assert on["replay_digest"] == off["replay_digest"], case_id
        speedup = off["seconds"] / on["seconds"] if on["seconds"] else 0.0
        speedups.append(speedup)
        compare[case_id] = {
            "system": case.system,
            "off_seconds": off["seconds"],
            "on_seconds": on["seconds"],
            "search_off_seconds": off["search_seconds"],
            "search_on_seconds": on["search_seconds"],
            "replay_off_seconds": off["replay_seconds"],
            "replay_on_seconds": on["replay_seconds"],
            "speedup": round(speedup, 3),
        }

    faster = sum(1 for s in speedups if s >= 1.5)
    # Acceptance: checkpointing pays for itself on most systems.  The
    # bar (>=1.5x on >=3 of 5) sits well under the typically observed
    # margin so CI load cannot flake it.
    assert faster >= 3, {cid: c["speedup"] for cid, c in compare.items()}

    rows = [
        (
            case_id,
            entry["system"],
            f"{entry['off_seconds']:.2f}",
            f"{entry['on_seconds']:.2f}",
            f"{entry['speedup']:.2f}x",
        )
        for case_id, entry in compare.items()
    ]
    rows.append(
        (
            "median",
            "-",
            "-",
            "-",
            f"{statistics.median(speedups):.2f}x",
        )
    )
    emit(
        "bench_simkernel",
        format_table(
            ["case", "system", "no-ckpt s", "ckpt s", "speedup"],
            rows,
            title=(
                f"checkpoint/fork speedup (cold cache; kernel "
                f"{kernel['events_per_sec']:,.0f} events/s)"
            ),
            align="llrrr",
        ),
    )

    artifact = {
        "schema": 2,
        "kernel": kernel,
        "checkpoint": checkpoint_cost,
        "compare": compare,
        "speedup_median": round(statistics.median(speedups), 3),
        "systems_faster_1_5x": faster,
        "deterministic_outcomes": True,
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, "BENCH_simkernel.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(artifact, handle, indent=2)
        handle.write("\n")
    print(f"[saved to {path}]")
