"""Table 1: per-system code size and fault-site statistics.

Columns mirror the paper: lines of code, Total static fault sites in the
system, Inferred sites (ANDURIL's causal graph), and Dynamic occurrences
of the inferred sites under the cases' workloads (mean over each
system's cases).
"""

import os
import statistics

from conftest import emit

from repro.bench import format_table
from repro.failures import paper_cases
from repro.failures.case import system_model

SYSTEM_ORDER = ("zookeeper", "hdfs", "hbase", "kafka", "cassandra")


def loc_of_package(package: str) -> int:
    import importlib

    module = importlib.import_module(package)
    total = 0
    for root in module.__path__:
        for entry in sorted(os.listdir(root)):
            if entry.endswith(".py"):
                with open(os.path.join(root, entry), encoding="utf-8") as handle:
                    total += sum(1 for _ in handle)
    return total


def compute_table1():
    per_system: dict[str, dict] = {}
    for case in paper_cases():
        prepared = case.explorer().prepare()
        # Inferred static sites and their dynamic occurrences in the probe.
        candidate_sites = {
            entry.instance.site_id for entry in prepared.pool.ranked_entries()
        }
        dynamic = sum(
            prepared.normal_run.site_counts.get(site, 0)
            for site in candidate_sites
        )
        bucket = per_system.setdefault(
            case.system,
            {"package": case.package, "inferred": [], "dynamic": []},
        )
        bucket["inferred"].append(len(candidate_sites))
        bucket["dynamic"].append(dynamic)

    rows = []
    stats = {}
    for system in SYSTEM_ORDER:
        bucket = per_system[system]
        model = system_model(bucket["package"])
        total = model.total_fault_candidates()
        inferred = int(statistics.mean(bucket["inferred"]))
        dynamic = int(statistics.mean(bucket["dynamic"]))
        stats[system] = (total, inferred, dynamic)
        rows.append(
            (system, loc_of_package(bucket["package"]), total, inferred, dynamic)
        )
    return rows, stats


def test_table1(benchmark):
    rows, stats = benchmark.pedantic(compute_table1, rounds=1, iterations=1)
    emit(
        "table1_fault_sites",
        format_table(
            ["System", "LOC", "Total sites", "Inferred", "Dynamic"],
            rows,
            title="Table 1: fault sites per system (means over each system's cases)",
        ),
    )
    for system, (total, inferred, dynamic) in stats.items():
        # The causal graph prunes the static space (paper: 9-23% kept)...
        assert 0 < inferred < total, system
        # ...while dynamic instances blow it back up (sites run many times).
        assert dynamic >= inferred, system
