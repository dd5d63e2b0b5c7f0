"""Ablation of the paper's in-text design alternatives (§5.2.3–§5.2.4).

Beyond the Table-2 variants, the paper *argues* for two specific design
choices without tabulating them:

* combining per-observable priorities with ``min`` rather than ``sum``
  ("the summation can be less sensitive to the effect of feedback");
* measuring temporal distance in *log messages* rather than by the
  fault instance's relative order ("order focuses too much on" the
  frequently executed fault).

This bench runs the full feedback search under each alternative on the
whole dataset and on the hard timing cases.
"""

from conftest import emit

from repro.bench import format_table, run_anduril
from repro.failures import paper_cases

SETTINGS = [
    ("min + messages (paper)", dict(aggregate="min", temporal_mode="messages")),
    ("sum + messages", dict(aggregate="sum", temporal_mode="messages")),
    ("min + order", dict(aggregate="min", temporal_mode="order")),
    ("sum + order", dict(aggregate="sum", temporal_mode="order")),
]


def compute_ablation():
    cases = paper_cases()
    rows = []
    summary = {}
    for label, overrides in SETTINGS:
        cells = [label]
        successes = 0
        total_rounds = 0
        for case in cases:
            outcome = run_anduril(
                case, max_rounds=600, max_seconds=30.0, **overrides
            )
            cells.append(str(outcome.rounds) if outcome.success else "-")
            if outcome.success:
                successes += 1
                total_rounds += outcome.rounds
        rows.append(cells)
        summary[label] = (successes, total_rounds)
    return cases, rows, summary


def test_design_choice_ablation(benchmark):
    cases, rows, summary = benchmark.pedantic(
        compute_ablation, rounds=1, iterations=1
    )
    headers = ["Design", *(case.case_id for case in cases)]
    lines = [
        f"{label}: {successes}/22 reproduced, {rounds} total rounds"
        for label, (successes, rounds) in summary.items()
    ]
    emit(
        "ablation_design_choices",
        format_table(headers, rows, title="Design-choice ablation (rounds)")
        + "\n\n"
        + "\n".join(lines),
    )
    paper_successes, paper_rounds = summary["min + messages (paper)"]
    # The paper's configuration reproduces everything...
    assert paper_successes == 22
    # ...and no alternative configuration strictly beats it on both
    # success count and total rounds.
    for label, (successes, rounds) in summary.items():
        if label == "min + messages (paper)":
            continue
        assert not (
            successes > paper_successes
            or (successes == paper_successes and rounds < 0.5 * paper_rounds)
        ), f"{label} dominates the paper configuration"
