"""Table 5: the stacktrace-injector baseline plus injected fault types.

The paper's appendix table: the fault type ANDURIL injects per failure,
and how the stacktrace-only injector fares (it works when the root cause
appears in logged traces; it fails when the fault is handled silently or
the log is noisy).
"""

from conftest import emit

from repro.bench import format_table, run_baseline
from repro.failures import paper_cases


def compute_table5():
    rows = []
    successes = 0
    for case in paper_cases():
        outcome = run_baseline(
            "stacktrace", case, max_rounds=300, max_seconds=8.0
        )
        if outcome.success:
            successes += 1
        rows.append(
            (
                f"{case.case_id} ({case.issue})",
                case.title[:58],
                case.ground_truth.exception,
                outcome.cell,
            )
        )
    return rows, successes


def test_table5(benchmark, anduril_outcomes):
    rows, successes = benchmark.pedantic(compute_table5, rounds=1, iterations=1)
    emit(
        "table5_stacktrace",
        format_table(
            ["Failure", "Description", "Injected fault", "Stacktrace inj."],
            rows,
            title="Table 5: failure descriptions, fault types, stacktrace-injector",
        )
        + f"\n\nstacktrace injector reproduced {successes}/22",
    )
    # Paper shape: it reproduces a strict subset (9 of 22 there).
    anduril_successes = sum(
        1 for outcome in anduril_outcomes.values() if outcome.success
    )
    assert 0 < successes < anduril_successes
    # The dominant injected type is IOException, as in the paper.
    io_like = sum(1 for row in rows if "IOException" in row[2] or "Socket" in row[2]
                  or "Connect" in row[2] or "FileNot" in row[2])
    assert io_like >= 18
