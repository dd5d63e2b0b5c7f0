"""Lint-detector efficacy over the five mini systems.

Runs the full fault-handling rule catalog on each system package and
reports three views:

* finding counts per rule per system;
* for each of the 22 catalog failures, whether some finding implicates
  the ground-truth fault site (and which rules did);
* per-rule site precision — of the env-boundary sites a rule implicates,
  how many are a known root cause (the case's ground truth or one of its
  registered Table-6 alternates).

The seeded defect of at least 15 of the 22 cases must be flagged.
"""

from conftest import emit

from repro.analysis import analyze_package, run_lint
from repro.bench import format_table
from repro.failures import paper_cases


def compute_lint_tables():
    by_pkg = {}
    for case in paper_cases():
        by_pkg.setdefault(case.package, []).append(case)

    systems = []
    rule_counts = {}        # rule -> {system: findings}
    rule_sites = {}         # rule -> {system: set of env site ids}
    truth_sites = {}        # system -> set of root-cause site ids
    env_site_count = {}
    case_rows = []
    flagged = 0

    for pkg, cases in sorted(by_pkg.items()):
        system = pkg.rsplit(".", 1)[-1]
        systems.append(system)
        model = analyze_package(pkg)
        report = run_lint(model, package=pkg)
        env_sites = {env_call.site_id for env_call in model.env_calls}
        env_site_count[system] = len(env_sites)

        truths = set()
        for case in cases:
            truths.add(case.ground_truth.resolve_site(model))
            for alternate in case.alternates:
                truths.add(alternate.resolve_site(model))
        truth_sites[system] = truths

        rules_by_site = {}
        for finding in report.findings:
            rule_counts.setdefault(finding.rule, {}).setdefault(system, 0)
            rule_counts[finding.rule][system] += 1
            site_map = rule_sites.setdefault(finding.rule, {})
            for site_id in finding.site_ids:
                if site_id in env_sites:
                    site_map.setdefault(system, set()).add(site_id)
                rules_by_site.setdefault(site_id, set()).add(finding.rule)

        for case in cases:
            gt_site = case.ground_truth.resolve_site(model)
            hit_rules = sorted(rules_by_site.get(gt_site, ()))
            if hit_rules:
                flagged += 1
            case_rows.append(
                (
                    case.case_id,
                    system,
                    case.ground_truth.function,
                    "yes" if hit_rules else "NO",
                    ", ".join(hit_rules) or "-",
                )
            )

    return systems, rule_counts, rule_sites, truth_sites, env_site_count, case_rows, flagged


def test_lint_detectors(benchmark):
    (
        systems,
        rule_counts,
        rule_sites,
        truth_sites,
        env_site_count,
        case_rows,
        flagged,
    ) = benchmark.pedantic(compute_lint_tables, rounds=1, iterations=1)

    count_rows = [
        [rule_id, *(str(rule_counts[rule_id].get(system, 0)) for system in systems)]
        for rule_id in sorted(rule_counts)
    ]
    counts_table = format_table(
        ["rule", *systems],
        count_rows,
        title="Lint findings per rule per system",
        align="l" + "r" * len(systems),
    )

    precision_rows = []
    for rule_id in sorted(rule_sites):
        cells = [rule_id]
        for system in systems:
            sites = rule_sites[rule_id].get(system, set())
            if not sites:
                cells.append("-")
                continue
            hits = len(sites & truth_sites[system])
            cells.append(f"{hits}/{len(sites)}")
        precision_rows.append(cells)
    precision_table = format_table(
        ["rule", *systems],
        precision_rows,
        title=(
            "Per-rule site precision (implicated env sites that are a known "
            "root cause / implicated env sites)"
        ),
        align="l" + "r" * len(systems),
    )

    cases_table = format_table(
        ["case", "system", "root-cause fn", "flagged", "by rules"],
        case_rows,
        title="Ground-truth fault site flagged by the lint pass",
    )

    emit(
        "table_lint_detectors",
        "\n\n".join(
            [
                counts_table,
                precision_table,
                cases_table,
                f"ground truth flagged: {flagged}/22 cases",
            ]
        ),
    )

    assert flagged >= 15, f"only {flagged}/22 ground-truth sites flagged"
    # Every system should produce findings and every rule should fire
    # somewhere — a silent rule means the catalog regressed.
    for rule_id, counts in rule_counts.items():
        assert sum(counts.values()) > 0, f"rule {rule_id} never fired"
    assert len(rule_counts) >= 6
