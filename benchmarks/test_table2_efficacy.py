"""Table 2: reproduction efficacy — ANDURIL, its ablation variants, and
the state-of-the-art baselines on all 22 failures.

Cells are ``rounds/time``; "-" means the strategy did not reproduce the
failure within its budget (the paper's 24-hour-cap analog).
"""

from conftest import emit

from repro.bench import format_table, run_baseline
from repro.bench import summary as bench_summary
from repro.failures import paper_cases

VARIANTS = (
    "exhaustive",
    "fault-site-distance",
    "fault-site-distance-limit",
    "fault-site-feedback",
    "multiply-feedback",
)
SOTA = ("fate", "crashtuner")
BUDGET = dict(max_rounds=300, max_seconds=20.0)


def compute_table2(anduril_outcomes):
    rows = []
    successes = {name: 0 for name in ("anduril", *VARIANTS, *SOTA)}
    rounds = {name: [] for name in ("anduril", *VARIANTS, *SOTA)}
    for case in paper_cases():
        anduril = anduril_outcomes[case.case_id]
        row = [f"{case.case_id} ({case.issue})", anduril.cell]
        if anduril.success:
            successes["anduril"] += 1
            rounds["anduril"].append(anduril.rounds)
        for name in (*VARIANTS, *SOTA):
            outcome = run_baseline(name, case, **BUDGET)
            # Coverage fractions land next to ANDURIL's in the summary's
            # "coverage" section, so bench_summary.json compares them.
            bench_summary.record_outcome(outcome)
            row.append(outcome.cell)
            if outcome.success:
                successes[name] += 1
                rounds[name].append(outcome.rounds)
        rows.append(row)
    return rows, successes, rounds


def test_table2(benchmark, anduril_outcomes):
    rows, successes, rounds = benchmark.pedantic(
        compute_table2, args=(anduril_outcomes,), rounds=1, iterations=1
    )
    headers = ["Failure", "ANDURIL", *VARIANTS, *SOTA]
    summary = " | ".join(f"{k}: {v}/22" for k, v in successes.items())
    means = " | ".join(
        f"{name}: {sum(values) / len(values):.1f}"
        for name, values in rounds.items()
        if values
    )
    emit(
        "table2_efficacy",
        format_table(headers, rows, title="Table 2: reproduction efficacy")
        + "\n\nreproduced: "
        + summary
        + "\nmean rounds (on successes): "
        + means,
    )

    # Headline shapes from the paper, adapted to our 100x smaller fault
    # spaces (coverage tools may finish inside the cap here, but pay a
    # large round multiple — the paper's 6x-280x inefficiency):
    # (1) ANDURIL reproduces every failure.
    assert successes["anduril"] == 22
    # (2) No ablation variant beats the full design on success count.
    for name in VARIANTS:
        assert successes[name] <= successes["anduril"], name
    # (3) CrashTuner (crash-timing oriented) reproduces only a fraction.
    assert successes["crashtuner"] <= 12
    assert successes["crashtuner"] < successes["anduril"]
    # (4) Coverage-first FATE pays a large round multiple over ANDURIL.
    anduril_mean = sum(rounds["anduril"]) / len(rounds["anduril"])
    fate_mean = sum(rounds["fate"]) / max(len(rounds["fate"]), 1)
    assert fate_mean >= 3 * anduril_mean
    # (5) Static pruning alone (exhaustive) needs more total rounds than
    # the feedback-driven search.
    assert sum(rounds["exhaustive"]) > sum(rounds["anduril"])
    # (6) ANDURIL's median rounds stay low (paper: median 11).
    ordered = sorted(rounds["anduril"])
    assert ordered[len(ordered) // 2] <= 20
