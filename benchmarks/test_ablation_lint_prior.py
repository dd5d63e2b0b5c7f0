"""Ablation: the lint pass as a search prior for the Explorer.

The Explorer's site priority is purely feedback-driven: F_i starts from
static distance alone and only separates candidates as observables
accumulate feedback.  The lint prior warm-starts it — sites implicated
by fault-handling defect findings get an F_i bonus proportional to the
evidence weight (``LintReport.site_weights``).

This bench runs the full search on all 22 cases with and without the
prior and compares rounds-to-reproduction and the ground-truth site's
rank in the very first round (before any feedback has arrived) — the
rank is where a static prior must show up, since several cases already
reproduce within the first window.
"""

from conftest import emit

from repro.bench import format_table, run_anduril
from repro.failures import paper_cases


def first_rank(outcome):
    return outcome.rank_trajectory[0][1] if outcome.rank_trajectory else None


def compute_ablation():
    rows = []
    stats = {
        "baseline": {"success": 0, "rounds": 0, "ranks": []},
        "lint prior": {"success": 0, "rounds": 0, "ranks": []},
    }
    for case in paper_cases():
        base = run_anduril(case, max_rounds=600, max_seconds=30.0)
        prior = run_anduril(
            case, max_rounds=600, max_seconds=30.0, lint_prior=True
        )
        for label, outcome in (("baseline", base), ("lint prior", prior)):
            if outcome.success:
                stats[label]["success"] += 1
                stats[label]["rounds"] += outcome.rounds
            rank = first_rank(outcome)
            if rank is not None:
                stats[label]["ranks"].append(rank)
        rows.append(
            (
                case.case_id,
                str(base.rounds) if base.success else "-",
                str(prior.rounds) if prior.success else "-",
                str(first_rank(base) or "-"),
                str(first_rank(prior) or "-"),
            )
        )
    return rows, stats


def test_lint_prior_ablation(benchmark):
    rows, stats = benchmark.pedantic(compute_ablation, rounds=1, iterations=1)
    table = format_table(
        ["case", "rounds", "rounds+prior", "rank@1", "rank@1+prior"],
        rows,
        title="Lint-prior ablation (rounds to reproduce, initial site rank)",
        align="lrrrr",
    )
    lines = []
    for label, entry in stats.items():
        mean_rank = (
            sum(entry["ranks"]) / len(entry["ranks"]) if entry["ranks"] else 0.0
        )
        lines.append(
            f"{label}: {entry['success']}/22 reproduced, "
            f"{entry['rounds']} total rounds, "
            f"mean first-round ground-truth rank {mean_rank:.1f}"
        )
    emit("ablation_lint_prior", table + "\n\n" + "\n".join(lines))

    base, prior = stats["baseline"], stats["lint prior"]
    # The prior must not cost reproductions or blow up the round count.
    assert prior["success"] >= base["success"]
    assert prior["rounds"] <= base["rounds"] * 1.5
    # On average the warm start should rank the true site no worse than
    # the cold start does.
    if base["ranks"] and prior["ranks"]:
        assert sum(prior["ranks"]) / len(prior["ranks"]) <= (
            sum(base["ranks"]) / len(base["ranks"]) + 0.5
        )
