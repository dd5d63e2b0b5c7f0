"""Run-cache speedup: cold vs warm full-strategy sweeps.

Runs the whole strategy roster (ANDURIL + every baseline) on one case
per mini system — the ``compare`` workload — three times: without the
cache, against a cold cache, and against the warm cache the cold pass
filled.  The warm pass must be served almost entirely from memoized
runs, and its wall clock is the PR's headline number; the measured
speedup and hit rate land in ``benchmarks/out/BENCH_runcache.json``.

Wall-clock assertions are deliberately loose (warm must beat no-cache
by well under the typically observed margin) so a loaded CI host cannot
flake the suite; the JSON artifact is the measurement of record.
"""

import dataclasses
import json
import os
import shutil
import tempfile
import time

from conftest import emit

from repro import cache as runcache
from repro.analysis.system_model import clear_facts_cache
from repro.baselines import ALL_STRATEGIES
from repro.bench import format_table, run_anduril, run_baseline
from repro.bench.tables import OUT_DIR
from repro.failures import get_case

#: One representative case per mini system (kept small on purpose: the
#: benchmark measures cache behavior, not the full dataset).
CASE_IDS = ("f1", "f5", "f13", "f19", "f22")


def run_sweep():
    """One ``compare``-equivalent pass; returns its outcome signature."""
    # A pass stands for one `compare` process: it starts without the
    # per-model memos and prepared cases of the pass before it.
    clear_facts_cache()
    cells = []
    for case_id in CASE_IDS:
        case = get_case(case_id)
        outcome = run_anduril(case, max_rounds=400, max_seconds=60.0)
        cells.append(("anduril", case_id, outcome.success, outcome.rounds))
        for name in ALL_STRATEGIES:
            strategy_outcome = run_baseline(
                name, case, max_rounds=300, max_seconds=60.0
            )
            cells.append(
                (name, case_id, strategy_outcome.success, strategy_outcome.rounds)
            )
    return tuple(cells)


def test_runcache_speedup():
    cache_dir = tempfile.mkdtemp(prefix="runcache-bench-")
    try:
        runcache.reset()
        started = time.perf_counter()
        nocache_signature = run_sweep()
        nocache_seconds = time.perf_counter() - started

        cache = runcache.configure(enabled=True, disk_dir=cache_dir)
        started = time.perf_counter()
        cold_signature = run_sweep()
        cold_seconds = time.perf_counter() - started
        cold_stats = dataclasses.replace(cache.stats)

        started = time.perf_counter()
        warm_signature = run_sweep()
        warm_seconds = time.perf_counter() - started
        warm_hits = cache.stats.hits - cold_stats.hits
        warm_aliases = cache.stats.alias_hits - cold_stats.alias_hits
        warm_misses = cache.stats.misses - cold_stats.misses
        warm_lookups = warm_hits + warm_aliases + warm_misses
        warm_hit_rate = (
            (warm_hits + warm_aliases) / warm_lookups if warm_lookups else 0.0
        )
    finally:
        runcache.reset()
        shutil.rmtree(cache_dir, ignore_errors=True)

    # Memoization must not move any outcome — only wall clock.
    assert cold_signature == nocache_signature
    assert warm_signature == nocache_signature

    # The warm pass re-executes nothing but uncacheable odds and ends.
    assert warm_hit_rate >= 0.95, f"warm hit rate only {warm_hit_rate:.1%}"
    # Headline: ≥30% faster than no-cache (observed: far more).
    assert warm_seconds <= nocache_seconds * 0.7, (
        f"warm sweep {warm_seconds:.2f}s vs no-cache {nocache_seconds:.2f}s"
    )

    speedup = nocache_seconds / warm_seconds if warm_seconds else float("inf")
    rows = [
        ("no-cache", f"{nocache_seconds:.2f}", "1.00x", "-"),
        (
            "cold",
            f"{cold_seconds:.2f}",
            f"{nocache_seconds / cold_seconds:.2f}x",
            f"{cold_stats.hit_rate:.1%}",
        ),
        ("warm", f"{warm_seconds:.2f}", f"{speedup:.2f}x", f"{warm_hit_rate:.1%}"),
    ]
    emit(
        "bench_runcache",
        format_table(
            ["pass", "seconds", "speedup", "hit rate"],
            rows,
            title=f"run-cache speedup ({len(CASE_IDS)} cases x "
            f"{1 + len(ALL_STRATEGIES)} strategies)",
            align="lrrr",
        ),
    )

    artifact = {
        "cases": list(CASE_IDS),
        "strategies": 1 + len(ALL_STRATEGIES),
        "nocache_seconds": round(nocache_seconds, 3),
        "cold_seconds": round(cold_seconds, 3),
        "warm_seconds": round(warm_seconds, 3),
        "warm_speedup_vs_nocache": round(speedup, 3),
        "cold_hit_rate": round(cold_stats.hit_rate, 6),
        "warm_hit_rate": round(warm_hit_rate, 6),
        "warm_lookups": warm_lookups,
        "warm_misses": warm_misses,
        "alias_hits_total": cache.stats.alias_hits,
        "deterministic": True,
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, "BENCH_runcache.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(artifact, handle, indent=2)
        handle.write("\n")
    print(f"[saved to {path}]")
