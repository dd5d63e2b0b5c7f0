"""Table 6: deeper root causes that satisfy the same failure oracle.

For the catalog cases with registered alternates, injecting the deeper
fault reproduces the same observed symptom — the phenomenon the paper
used to expose flaws in the original patches.
"""

from conftest import emit

from repro.bench import format_table
from repro.failures import paper_cases
from repro.injection.fir import InjectionPlan
from repro.sim.cluster import execute_workload


def compute_table6():
    rows = []
    verified = 0
    for case in paper_cases():
        if not case.alternates:
            continue
        seed = case.failure_seed if case.failure_seed is not None else case.seed
        for alternate in case.alternates:
            instance = alternate.resolve_instance(case.model())
            result = execute_workload(
                case.workload,
                horizon=case.horizon,
                seed=seed,
                plan=InjectionPlan.single(instance),
            )
            satisfied = result.injected and case.oracle.satisfied(result)
            if satisfied:
                verified += 1
            original = case.ground_truth
            rows.append(
                (
                    f"{case.case_id} ({case.issue})",
                    f"{original.exception} in {original.function}",
                    f"{alternate.exception} in {alternate.function}",
                    "same symptom" if satisfied else "NOT reproduced",
                )
            )
    return rows, verified


def test_table6(benchmark):
    rows, verified = benchmark.pedantic(compute_table6, rounds=1, iterations=1)
    emit(
        "table6_new_root_causes",
        format_table(
            ["Failure", "Original root cause", "Deeper root cause", "Oracle"],
            rows,
            title="Table 6: alternative/deeper root causes with identical symptoms",
        ),
    )
    assert rows, "expected at least one case with alternates"
    assert verified == len(rows)
