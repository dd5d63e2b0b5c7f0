"""Tables 4 and 8: Explorer runtime performance.

Per system (medians over its cases, Table 4) and per case (Table 8):
injection requests received by the FIR per run, mean per-decision
latency, per-round initialization time (priority recomputation), and the
workload execution time.
"""

import statistics

from conftest import emit

from repro.bench import format_table
from repro.failures import paper_cases

SYSTEM_ORDER = ("zookeeper", "hdfs", "hbase", "kafka", "cassandra")


def compute_table4(anduril_outcomes):
    per_case_rows = []
    per_system: dict[str, list] = {name: [] for name in SYSTEM_ORDER}
    for case in paper_cases():
        outcome = anduril_outcomes[case.case_id]
        per_case_rows.append(
            (
                f"{case.case_id} ({case.issue})",
                outcome.median_requests,
                f"{outcome.mean_decision_us:.2f}us",
                f"{outcome.median_init_ms:.2f}ms",
                f"{outcome.median_workload_ms:.0f}ms",
            )
        )
        per_system[case.system].append(outcome)
    system_rows = []
    for system in SYSTEM_ORDER:
        outcomes = per_system[system]
        system_rows.append(
            (
                system,
                int(statistics.median([o.median_requests for o in outcomes])),
                f"{statistics.median([o.mean_decision_us for o in outcomes]):.2f}us",
                f"{statistics.median([o.median_init_ms for o in outcomes]):.2f}ms",
                f"{statistics.median([o.median_workload_ms for o in outcomes]):.0f}ms",
            )
        )
    return system_rows, per_case_rows


def test_table4(benchmark, anduril_outcomes):
    system_rows, per_case_rows = benchmark.pedantic(
        compute_table4, args=(anduril_outcomes,), rounds=1, iterations=1
    )
    headers = ["System", "Inject. req.", "Decision", "Round init", "Workload"]
    emit(
        "table4_performance",
        format_table(headers, system_rows, title="Table 4: Explorer performance")
        + "\n\n"
        + format_table(
            ["Failure", "Inject. req.", "Decision", "Round init", "Workload"],
            per_case_rows,
            title="Table 8: per-case runtime details",
        ),
    )
    for row in system_rows:
        requests = row[1]
        decision_us = float(row[2][:-2])
        # Decisions stay cheap (paper: sub-microsecond to tens of us) and
        # every system exercises a non-trivial dynamic fault space.
        assert requests > 50
        assert decision_us < 1000
