#!/usr/bin/env python3
"""Merge the CI perf gate's per-run result sets into one per side.

The gate runs ``benchmarks/e2e/run.py --reps 1 --out OUT/<side>-<n>.json``
three times on the parent commit and three times on HEAD.  This tool
pools each side's three result sets into ``OUT/parent.json`` and
``OUT/head.json`` for ``benchmarks/e2e/compare.py``:

    python3 tools/merge_e2e.py OUT

Per workload and metric the values are concatenated and ``n``,
``median``, ``min`` and ``max`` recomputed; ``attempted`` and ``failed``
are summed and ``failed_share`` recomputed.  Everything else comes from
the side's first result set.  Exits 1 unless each side has exactly three
result sets.
"""

from __future__ import annotations

import glob
import json
import statistics
import sys

SIDES = ("parent", "head")
RUNS_PER_SIDE = 3


def merge(docs: list[dict]) -> dict:
    """Pool result sets of the same workloads into the first one."""
    merged = docs[0]
    for name, entry in merged["workloads"].items():
        runs = [doc["workloads"][name] for doc in docs]
        for metric, stats in entry["metrics"].items():
            values = [v for run in runs for v in run["metrics"][metric]["values"]]
            stats.update(values=values, n=len(values), median=statistics.median(values),
                         min=min(values), max=max(values))
        entry["attempted"] = sum(run["attempted"] for run in runs)
        entry["failed"] = sum(run["failed"] for run in runs)
        entry["failed_share"] = entry["failed"] / entry["attempted"]
    merged["reps"] = len(docs)
    return merged


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1:
        print("usage: merge_e2e.py OUT", file=sys.stderr)
        return 2
    out = args[0]
    for side in SIDES:
        docs = []
        for path in sorted(glob.glob(f"{out}/{side}-*.json")):
            with open(path) as handle:
                docs.append(json.load(handle))
        if len(docs) != RUNS_PER_SIDE:
            print(f"{side}: {len(docs)} of {RUNS_PER_SIDE} result sets",
                  file=sys.stderr)
            return 1
        with open(f"{out}/{side}.json", "w") as handle:
            json.dump(merge(docs), handle, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
