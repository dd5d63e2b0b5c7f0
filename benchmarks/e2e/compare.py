"""Compare two ``BENCH_e2e.json`` result sets: ``compare.py A.json B.json``.

One row per (end-to-end metric, workload) with both medians and ranges,
the ratio B/A, and a verdict from the bounds in ``BENCHMARK.json``:

* ``unresolved`` — the two sets' ranges overlap by more than the bound
  (as a share of A's median): the run-to-run spread is wider than the
  change the bound could resolve, so nothing is claimed either way;
* ``worse`` / ``better`` — B's median differs from A's by more than the
  bound, in the metric's bad / good direction;
* ``same`` — otherwise.

Exits non-zero on any ``worse`` and on any rise in ``failed_share``.
"""

from __future__ import annotations

import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def load(path: str) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def verdict(a: dict, b: dict, better: str, bound: float) -> str:
    overlap = min(a["max"], b["max"]) - max(a["min"], b["min"])
    if overlap > bound * a["median"]:
        return "unresolved"
    change = (b["median"] - a["median"]) / a["median"]
    if better == "higher":
        change = -change
    if change > bound:
        return "worse"
    if change < -bound:
        return "better"
    return "same"


def shown(stats: dict) -> str:
    return f"{stats['median']:.4f} [{stats['min']:.4f}, {stats['max']:.4f}]"


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    first, second = load(argv[0]), load(argv[1])
    spec = load(os.path.join(ROOT, "BENCHMARK.json"))
    bad = 0
    print(
        f"{'workload':<18} {'metric':<13} {'A median [min, max]':>32} "
        f"{'B median [min, max]':>32} {'B/A':>7}  verdict"
    )
    for workload in (entry["name"] for entry in spec["workloads"]):
        a_set = first["workloads"].get(workload)
        b_set = second["workloads"].get(workload)
        if a_set is None or b_set is None:
            print(f"{workload:<18} missing from {'A' if a_set is None else 'B'}")
            bad += 1
            continue
        for metric in spec["end_to_end"]:
            a, b = a_set["metrics"][metric["name"]], b_set["metrics"][metric["name"]]
            outcome = verdict(a, b, metric["better"], metric["bound"])
            bad += outcome == "worse"
            print(
                f"{workload:<18} {metric['name']:<13} {shown(a):>32} {shown(b):>32} "
                f"{b['median'] / a['median']:>7.3f}  {outcome} "
                f"(base {a['median']:.4f} {metric['unit']}, bound {metric['bound']:.0%})"
            )
        rose = b_set["failed_share"] > a_set["failed_share"]
        bad += rose
        print(
            f"{workload:<18} {'failed_share':<13} {a_set['failed_share']:>32.4f} "
            f"{b_set['failed_share']:>32.4f} {'':>7}  {'worse' if rose else 'same'}"
        )
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
