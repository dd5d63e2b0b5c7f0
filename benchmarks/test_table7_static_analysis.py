"""Table 7: static analysis performance per case.

Columns mirror the paper: lines of code analyzed, time in exception
analysis, slicing, causal chaining (mean per observable), and total —
extended with the flow pass (propagation-graph build time) and its
fault-space pruning effect (enumerated triples before/after the static
prune).  Pruning is accounting-only, so these columns report what the
coverage denominator shrinks to, not a change in search behaviour.
"""

from collections import defaultdict

from conftest import emit

from repro.analysis.causal import CausalGraphBuilder
from repro.analysis.model import graph_fault_candidates
from repro.bench import format_table
from repro.core.pruning import pruner_from_prepared
from repro.failures import paper_cases
from repro.failures.case import system_model
from repro.obs.coverage import enumerate_fault_space


def loc_of_model(model) -> int:
    import importlib

    total = 0
    seen = set()
    for facts in model.modules:
        if facts.module in seen:
            continue
        seen.add(facts.module)
        module = importlib.import_module(facts.module)
        with open(module.__file__, encoding="utf-8") as handle:
            total += sum(1 for _ in handle)
    return total


def compute_table7():
    rows = []
    totals = []
    flow_totals = []
    by_system = defaultdict(lambda: [0, 0])  # system -> [space, pruned]
    for case in paper_cases():
        model = system_model(case.package)
        builder = CausalGraphBuilder(model)
        # Build from this case's relevant observables, like the Explorer.
        explorer = case.explorer(prune="static")
        prepared = explorer.prepare()
        builder.build(prepared.observables.mapped_keys())
        timings = builder.timings
        observables = max(len(prepared.observables.mapped_keys()), 1)
        chaining_per_observable = timings.chaining_seconds / observables
        totals.append(timings.total_seconds)
        flow_totals.append(prepared.flow_graph.build_seconds)
        space = enumerate_fault_space(
            graph_fault_candidates(prepared.graph),
            prepared.normal_run.site_counts,
            max_instances_per_site=explorer.max_instances_per_site,
        )
        pruner = pruner_from_prepared(prepared.flow_graph, prepared)
        kept = pruner.prune(space)
        pruned = len(space) - len(kept)
        by_system[case.system][0] += len(space)
        by_system[case.system][1] += pruned
        rows.append(
            (
                f"{case.case_id} ({case.issue})",
                loc_of_model(model),
                f"{timings.exception_seconds * 1e3:.1f}ms",
                f"{timings.slicing_seconds * 1e3:.2f}ms",
                f"{chaining_per_observable * 1e3:.2f}ms",
                f"{timings.total_seconds * 1e3:.1f}ms",
                f"{prepared.flow_graph.build_seconds * 1e3:.1f}ms",
                len(space),
                f"{pruned} ({pruned / len(space):.0%})" if space else "0",
            )
        )
    return rows, totals, flow_totals, dict(by_system)


def test_table7(benchmark):
    rows, totals, flow_totals, by_system = benchmark.pedantic(
        compute_table7, rounds=1, iterations=1
    )
    emit(
        "table7_static_analysis",
        format_table(
            [
                "Failure",
                "LOC",
                "Exception",
                "Slicing",
                "Chaining/obs",
                "Total",
                "Flow",
                "Space",
                "Pruned",
            ],
            rows,
            title="Table 7: static analysis time breakdown",
        ),
    )
    # The static step is cheap relative to the dynamic exploration (paper:
    # 11s-344s on systems 4-5 orders of magnitude larger), and the flow
    # pass adds only milliseconds on top.
    assert all(total < 5.0 for total in totals)
    assert all(total < 5.0 for total in flow_totals)
    # The flow pass must pay for itself: at least 3 of the 5 systems shed
    # a quarter or more of their enumerated fault space.
    strong = sum(
        1
        for space, pruned in by_system.values()
        if space and pruned / space >= 0.25
    )
    assert strong >= 3, by_system
